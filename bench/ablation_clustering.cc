// Ablation: candidate-pool clustering method (Section III-B design choice).
//
// The paper argues for threshold hierarchical clustering over k-means,
// density-based methods and grid merging. This bench quantifies the
// trade-off each method makes on the same stay points:
//   pool size      — how many candidates the selector must choose among,
//   oracle MAE     — distance from each test address's true delivery
//                    location to the nearest pool location (a lower bound
//                    on any selector's error),
//   build time     — clustering wall-clock.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "bench_util.h"
#include "cluster/dbscan.h"
#include "cluster/grid_merge.h"
#include "cluster/hierarchical.h"
#include "cluster/kmeans.h"
#include "cluster/optics.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/stopwatch.h"

namespace {

using namespace dlinf;

void Report(const char* name, const std::vector<Point>& pool,
            double build_seconds, const sim::World& world) {
  std::vector<double> oracle;
  for (const sim::Address& addr : world.addresses) {
    if (addr.split != sim::Split::kTest) continue;
    double d2 = std::numeric_limits<double>::infinity();
    for (const Point& p : pool) {
      d2 = std::min(d2, SquaredDistance(p, addr.true_delivery_location));
    }
    oracle.push_back(std::sqrt(d2));
  }
  std::printf("%-22s %10zu %12.1f %12.1f %10.2f\n", name, pool.size(),
              Mean(oracle), Percentile(oracle, 0.95), build_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string metrics_path = bench::ParseMetricsFlag(&argc, argv);
  SetMinLogLevel(LogLevel::kWarning);
  std::printf("== Ablation: candidate-pool clustering (SynDowBJ) ==\n");
  std::printf("%-22s %10s %12s %12s %10s\n", "method", "pool", "oracleMAE(m)",
              "oracleP95(m)", "build(s)");

  bench::BenchData bundle = bench::MakeBenchData(sim::SynDowBJConfig());
  std::vector<Point> stay_locations;
  for (const StayPoint& sp : bundle.data.gen->stay_points()) {
    stay_locations.push_back(sp.location);
  }
  const sim::World& world = *bundle.world;
  Rng rng(5);

  {
    Stopwatch watch;
    const auto clusters = AgglomerateByDistance(stay_locations, 40.0);
    const double secs = watch.ElapsedSeconds();
    std::vector<Point> pool;
    for (const auto& c : clusters) pool.push_back(c.centroid);
    Report("hierarchical D=40", pool, secs, world);
  }
  {
    Stopwatch watch;
    const DbscanResult clustering = Dbscan(stay_locations, {30.0, 3});
    std::vector<std::vector<Point>> members(clustering.num_clusters);
    for (size_t i = 0; i < stay_locations.size(); ++i) {
      if (clustering.labels[i] >= 0) {
        members[clustering.labels[i]].push_back(stay_locations[i]);
      }
    }
    std::vector<Point> pool;
    for (const auto& m : members) pool.push_back(Centroid(m));
    Report("DBSCAN eps=30 min=3", pool, watch.ElapsedSeconds(), world);
  }
  {
    Stopwatch watch;
    const OpticsResult optics = Optics(stay_locations, {80.0, 3});
    const std::vector<int> labels = optics.ExtractDbscanClusters(30.0);
    int num_clusters = 0;
    for (int l : labels) num_clusters = std::max(num_clusters, l + 1);
    std::vector<std::vector<Point>> members(num_clusters);
    for (size_t i = 0; i < stay_locations.size(); ++i) {
      if (labels[i] >= 0) members[labels[i]].push_back(stay_locations[i]);
    }
    std::vector<Point> pool;
    for (const auto& m : members) pool.push_back(Centroid(m));
    Report("OPTICS eps'=30", pool, watch.ElapsedSeconds(), world);
  }
  {
    // k-means needs k chosen a priori — the difficulty the paper calls out.
    // Use the hierarchical pool size as an oracle-chosen k, and half / double
    // of it to show the sensitivity.
    const size_t k_ref =
        AgglomerateByDistance(stay_locations, 40.0).size();
    for (double factor : {0.5, 1.0, 2.0}) {
      const int k = std::max(1, static_cast<int>(k_ref * factor));
      Stopwatch watch;
      const KMeansResult result = KMeans(stay_locations, k, &rng);
      char label[64];
      std::snprintf(label, sizeof(label), "k-means k=%d", k);
      Report(label, result.centroids, watch.ElapsedSeconds(), world);
    }
  }
  {
    Stopwatch watch;
    const auto clusters = GridMergeCluster(stay_locations, 40.0);
    const double secs = watch.ElapsedSeconds();
    std::vector<Point> pool;
    for (const auto& c : clusters) pool.push_back(c.centroid);
    Report("grid merge 40m", pool, secs, world);
  }
  bench::DumpMetrics(metrics_path);
  return 0;
}
