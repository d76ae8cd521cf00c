#include <algorithm>
#include <cmath>
#include <limits>

#include "common/random.h"
#include "geo/geohash.h"
#include "geo/grid_index.h"
#include "geo/latlng.h"
#include "geo/point.h"
#include "gtest/gtest.h"

namespace dlinf {
namespace {

TEST(PointTest, DistanceAndCentroid) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({1, 1}, {2, 2}), 2.0);
  const Point c = Centroid({{0, 0}, {2, 0}, {1, 3}});
  EXPECT_DOUBLE_EQ(c.x, 1.0);
  EXPECT_DOUBLE_EQ(c.y, 1.0);
  EXPECT_EQ(Centroid({}).x, 0.0);
}

TEST(PointTest, Bounds) {
  const BBox box = Bounds({{1, 5}, {-2, 3}, {4, -1}});
  EXPECT_DOUBLE_EQ(box.min_x, -2);
  EXPECT_DOUBLE_EQ(box.max_y, 5);
  EXPECT_TRUE(box.Contains({0, 0}));
  EXPECT_FALSE(box.Contains({10, 0}));
  EXPECT_DOUBLE_EQ(box.Width(), 6.0);
}

TEST(LatLngTest, HaversineKnownDistance) {
  // Beijing to Shanghai, roughly 1068 km.
  const LatLng beijing{39.9042, 116.4074};
  const LatLng shanghai{31.2304, 121.4737};
  EXPECT_NEAR(HaversineDistance(beijing, shanghai), 1068000, 10000);
  EXPECT_DOUBLE_EQ(HaversineDistance(beijing, beijing), 0.0);
}

TEST(LatLngTest, ProjectionRoundTrip) {
  const LocalProjection proj(LatLng{39.9, 116.4});
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const Point p{rng.Uniform(-3000, 3000), rng.Uniform(-3000, 3000)};
    const Point back = proj.Forward(proj.Backward(p));
    EXPECT_NEAR(back.x, p.x, 1e-6);
    EXPECT_NEAR(back.y, p.y, 1e-6);
  }
}

TEST(LatLngTest, ProjectionMatchesHaversineLocally) {
  const LocalProjection proj(LatLng{39.9, 116.4});
  const LatLng a{39.905, 116.405};
  const LatLng b{39.91, 116.41};
  const double planar = Distance(proj.Forward(a), proj.Forward(b));
  const double sphere = HaversineDistance(a, b);
  EXPECT_NEAR(planar, sphere, sphere * 0.001);  // <0.1% over ~1 km.
}

TEST(GridIndexTest, RadiusQueryMatchesBruteForce) {
  Rng rng(11);
  std::vector<Point> points;
  GridIndex index(25.0);
  for (int i = 0; i < 500; ++i) {
    points.push_back({rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
    index.Insert(i, points.back());
  }
  for (int trial = 0; trial < 30; ++trial) {
    const Point q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    const double radius = rng.Uniform(5, 200);
    std::vector<int64_t> got = index.RadiusQuery(q, radius);
    std::sort(got.begin(), got.end());
    std::vector<int64_t> want;
    for (int i = 0; i < 500; ++i) {
      if (Distance(points[i], q) <= radius) want.push_back(i);
    }
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

TEST(GridIndexTest, NearestMatchesBruteForce) {
  Rng rng(12);
  std::vector<Point> points;
  GridIndex index(30.0);
  for (int i = 0; i < 300; ++i) {
    points.push_back({rng.Uniform(0, 500), rng.Uniform(0, 500)});
    index.Insert(i, points.back());
  }
  for (int trial = 0; trial < 30; ++trial) {
    const Point q{rng.Uniform(0, 500), rng.Uniform(0, 500)};
    double best_d = std::numeric_limits<double>::infinity();
    for (const Point& p : points) best_d = std::min(best_d, Distance(p, q));
    double got_d = 0.0;
    const int64_t got = index.Nearest(q, 1000.0, &got_d);
    ASSERT_GE(got, 0);
    EXPECT_NEAR(got_d, best_d, 1e-9);
  }
}

TEST(GridIndexTest, NearestRespectsMaxRadius) {
  GridIndex index(10.0);
  index.Insert(1, {100, 100});
  EXPECT_EQ(index.Nearest({0, 0}, 50.0), -1);
  EXPECT_EQ(index.Nearest({0, 0}, 200.0), 1);
}

TEST(GridIndexTest, RemoveDeletesExactEntry) {
  GridIndex index(10.0);
  index.Insert(1, {5, 5});
  index.Insert(2, {5, 5});
  EXPECT_TRUE(index.Remove(1, {5, 5}));
  EXPECT_FALSE(index.Remove(1, {5, 5}));
  EXPECT_EQ(index.size(), 1);
  const std::vector<int64_t> left = index.RadiusQuery({5, 5}, 1.0);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0], 2);
}

TEST(GeohashTest, KnownEncoding) {
  // Well-known reference: geohash of (57.64911, 10.40744) is "u4pruydqqvj".
  EXPECT_EQ(GeohashEncode({57.64911, 10.40744}, 11), "u4pruydqqvj");
}

TEST(GeohashTest, DecodeContainsOriginal) {
  const LatLng coord{39.916, 116.397};
  const std::string hash = GeohashEncode(coord, 8);
  const GeohashBox box = GeohashDecode(hash);
  EXPECT_GE(coord.lat, box.min_lat);
  EXPECT_LE(coord.lat, box.max_lat);
  EXPECT_GE(coord.lng, box.min_lng);
  EXPECT_LE(coord.lng, box.max_lng);
  // Precision-8 cells are roughly 38 m x 19 m.
  const double h = HaversineDistance({box.min_lat, box.min_lng},
                                     {box.max_lat, box.min_lng});
  const double w = HaversineDistance({box.min_lat, box.min_lng},
                                     {box.min_lat, box.max_lng});
  EXPECT_NEAR(h, 19.0, 2.0);
  EXPECT_NEAR(w, 30.0, 10.0);
}

TEST(GeohashTest, NeighborsTileThePlane) {
  const std::string center = GeohashEncode({39.9, 116.4}, 8);
  EXPECT_EQ(GeohashNeighbor(center, 0, 0), center);
  // East neighbor's box must share the center's east edge.
  const GeohashBox c = GeohashDecode(center);
  const GeohashBox e = GeohashDecode(GeohashNeighbor(center, 1, 0));
  EXPECT_NEAR(e.min_lng, c.max_lng, 1e-9);
  EXPECT_NEAR(e.min_lat, c.min_lat, 1e-9);
  const GeohashBox n = GeohashDecode(GeohashNeighbor(center, 0, 1));
  EXPECT_NEAR(n.min_lat, c.max_lat, 1e-9);
  // Walking +2 east then -2 west returns home.
  EXPECT_EQ(GeohashNeighbor(GeohashNeighbor(center, 2, 0), -2, 0), center);
}

}  // namespace
}  // namespace dlinf
