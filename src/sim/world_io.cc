#include "sim/world_io.h"

#include <filesystem>

#include "common/csv.h"
#include "common/string_util.h"

namespace dlinf {
namespace sim {
namespace {

std::string F(double v) { return StrPrintf("%.6f", v); }
std::string I(int64_t v) {
  return StrPrintf("%lld", static_cast<long long>(v));
}

}  // namespace

bool SaveWorldCsv(const World& world, const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) return false;
  auto path = [&](const char* name) { return directory + "/" + name; };

  {
    CsvTable t;
    t.header = {"id", "center_x", "center_y", "gate_x", "gate_y", "locker_x",
                "locker_y", "split"};
    for (const Community& c : world.communities) {
      t.rows.push_back({I(c.id), F(c.center.x), F(c.center.y), F(c.gate.x),
                        F(c.gate.y), F(c.locker.x), F(c.locker.y),
                        I(static_cast<int>(c.split))});
    }
    if (!WriteCsv(path("communities.csv"), t)) return false;
  }
  {
    CsvTable t;
    t.header = {"id", "community_id", "x", "y", "reception_x", "reception_y"};
    for (const Building& b : world.buildings) {
      t.rows.push_back({I(b.id), I(b.community_id), F(b.position.x),
                        F(b.position.y), F(b.reception.x), F(b.reception.y)});
    }
    if (!WriteCsv(path("buildings.csv"), t)) return false;
  }
  {
    CsvTable t;
    t.header = {"id",     "building_id", "community_id", "truth_x", "truth_y",
                "mode",   "geocode_x",   "geocode_y",    "poi",     "rate",
                "split",  "text"};
    for (const Address& a : world.addresses) {
      std::string text = a.text;
      for (char& c : text) {
        if (c == ',') c = ';';  // Keep the simple CSV format unambiguous.
      }
      t.rows.push_back({I(a.id), I(a.building_id), I(a.community_id),
                        F(a.true_delivery_location.x),
                        F(a.true_delivery_location.y),
                        I(static_cast<int>(a.mode)), F(a.geocoded_location.x),
                        F(a.geocoded_location.y), I(a.poi_category),
                        F(a.order_rate), I(static_cast<int>(a.split)), text});
    }
    if (!WriteCsv(path("addresses.csv"), t)) return false;
  }
  {
    CsvTable t;
    t.header = {"id", "zone_community_ids"};
    for (const Courier& c : world.couriers) {
      std::vector<std::string> zone;
      for (int64_t id : c.zone_community_ids) zone.push_back(I(id));
      t.rows.push_back({I(c.id), Join(zone, ";")});
    }
    if (!WriteCsv(path("couriers.csv"), t)) return false;
  }
  {
    CsvTable trips;
    trips.header = {"id", "courier_id", "start", "end"};
    CsvTable waybills;
    waybills.header = {"trip_id", "id",      "address_id",
                       "receive", "recorded", "actual"};
    CsvTable gps;
    gps.header = {"trip_id", "x", "y", "t"};
    CsvTable stays;
    stays.header = {"trip_id", "x", "y", "start", "end", "address_ids"};
    for (const DeliveryTrip& trip : world.trips) {
      trips.rows.push_back(
          {I(trip.id), I(trip.courier_id), F(trip.start_time),
           F(trip.end_time)});
      for (const Waybill& w : trip.waybills) {
        waybills.rows.push_back({I(trip.id), I(w.id), I(w.address_id),
                                 F(w.receive_time),
                                 F(w.recorded_delivery_time),
                                 F(w.actual_delivery_time)});
      }
      for (const TrajPoint& p : trip.trajectory.points) {
        gps.rows.push_back({I(trip.id), F(p.x), F(p.y), F(p.t)});
      }
      for (const PlannedStay& stay : trip.planned_stays) {
        std::vector<std::string> ids;
        for (int64_t id : stay.delivered_address_ids) ids.push_back(I(id));
        stays.rows.push_back({I(trip.id), F(stay.location.x),
                              F(stay.location.y), F(stay.start_time),
                              F(stay.end_time), Join(ids, ";")});
      }
    }
    if (!WriteCsv(path("trips.csv"), trips)) return false;
    if (!WriteCsv(path("waybills.csv"), waybills)) return false;
    if (!WriteCsv(path("gps.csv"), gps)) return false;
    if (!WriteCsv(path("stays.csv"), stays)) return false;
  }
  {
    CsvTable meta;
    meta.header = {"name", "station_x", "station_y"};
    meta.rows.push_back({world.name, F(world.station.x), F(world.station.y)});
    if (!WriteCsv(path("meta.csv"), meta)) return false;
  }
  return true;
}

std::optional<World> LoadWorldCsv(const std::string& directory) {
  auto path = [&](const char* name) { return directory + "/" + name; };
  World world;

  const auto meta = ReadCsv(path("meta.csv"));
  if (!meta || meta->rows.size() != 1) return std::nullopt;
  world.name = meta->rows[0][0];
  double x, y;
  if (!ParseNumber(meta->rows[0][1], &x) ||
      !ParseNumber(meta->rows[0][2], &y)) {
    return std::nullopt;
  }
  world.station = Point{x, y};

  const auto communities = ReadCsv(path("communities.csv"));
  if (!communities) return std::nullopt;
  for (const auto& row : communities->rows) {
    Community c;
    int64_t split;
    if (!ParseNumber(row[0], &c.id) || !ParseNumber(row[1], &c.center.x) ||
        !ParseNumber(row[2], &c.center.y) ||
        !ParseNumber(row[3], &c.gate.x) || !ParseNumber(row[4], &c.gate.y) ||
        !ParseNumber(row[5], &c.locker.x) ||
        !ParseNumber(row[6], &c.locker.y) || !ParseNumber(row[7], &split)) {
      return std::nullopt;
    }
    c.split = static_cast<Split>(split);
    world.communities.push_back(c);
  }

  const auto buildings = ReadCsv(path("buildings.csv"));
  if (!buildings) return std::nullopt;
  for (const auto& row : buildings->rows) {
    Building b;
    if (!ParseNumber(row[0], &b.id) ||
        !ParseNumber(row[1], &b.community_id) ||
        !ParseNumber(row[2], &b.position.x) ||
        !ParseNumber(row[3], &b.position.y) ||
        !ParseNumber(row[4], &b.reception.x) ||
        !ParseNumber(row[5], &b.reception.y)) {
      return std::nullopt;
    }
    world.buildings.push_back(b);
  }

  const auto addresses = ReadCsv(path("addresses.csv"));
  if (!addresses) return std::nullopt;
  for (const auto& row : addresses->rows) {
    Address a;
    int64_t mode, poi, split;
    if (!ParseNumber(row[0], &a.id) ||
        !ParseNumber(row[1], &a.building_id) ||
        !ParseNumber(row[2], &a.community_id) ||
        !ParseNumber(row[3], &a.true_delivery_location.x) ||
        !ParseNumber(row[4], &a.true_delivery_location.y) ||
        !ParseNumber(row[5], &mode) ||
        !ParseNumber(row[6], &a.geocoded_location.x) ||
        !ParseNumber(row[7], &a.geocoded_location.y) ||
        !ParseNumber(row[8], &poi) || !ParseNumber(row[9], &a.order_rate) ||
        !ParseNumber(row[10], &split)) {
      return std::nullopt;
    }
    a.mode = static_cast<DeliveryMode>(mode);
    a.poi_category = static_cast<int>(poi);
    a.split = static_cast<Split>(split);
    a.text = row[11];
    world.addresses.push_back(std::move(a));
  }

  const auto couriers = ReadCsv(path("couriers.csv"));
  if (!couriers) return std::nullopt;
  for (const auto& row : couriers->rows) {
    Courier c;
    if (!ParseNumber(row[0], &c.id)) return std::nullopt;
    for (const std::string& piece : ::dlinf::Split(row[1], ';')) {
      if (piece.empty()) continue;
      int64_t id;
      if (!ParseNumber(piece, &id)) return std::nullopt;
      c.zone_community_ids.push_back(id);
    }
    world.couriers.push_back(std::move(c));
  }

  const auto trips = ReadCsv(path("trips.csv"));
  const auto waybills = ReadCsv(path("waybills.csv"));
  const auto gps = ReadCsv(path("gps.csv"));
  const auto stays = ReadCsv(path("stays.csv"));
  if (!trips || !waybills || !gps || !stays) return std::nullopt;
  for (const auto& row : trips->rows) {
    DeliveryTrip trip;
    if (!ParseNumber(row[0], &trip.id) ||
        !ParseNumber(row[1], &trip.courier_id) ||
        !ParseNumber(row[2], &trip.start_time) ||
        !ParseNumber(row[3], &trip.end_time)) {
      return std::nullopt;
    }
    trip.trajectory.courier_id = trip.courier_id;
    world.trips.push_back(std::move(trip));
  }
  auto trip_at = [&](const std::string& field,
                     DeliveryTrip** out) -> bool {
    int64_t id;
    if (!ParseNumber(field, &id) || id < 0 ||
        id >= static_cast<int64_t>(world.trips.size())) {
      return false;
    }
    *out = &world.trips[id];
    return true;
  };
  for (const auto& row : waybills->rows) {
    DeliveryTrip* trip;
    if (!trip_at(row[0], &trip)) return std::nullopt;
    Waybill w;
    if (!ParseNumber(row[1], &w.id) || !ParseNumber(row[2], &w.address_id) ||
        !ParseNumber(row[3], &w.receive_time) ||
        !ParseNumber(row[4], &w.recorded_delivery_time) ||
        !ParseNumber(row[5], &w.actual_delivery_time)) {
      return std::nullopt;
    }
    trip->waybills.push_back(w);
  }
  for (const auto& row : gps->rows) {
    DeliveryTrip* trip;
    if (!trip_at(row[0], &trip)) return std::nullopt;
    TrajPoint p;
    if (!ParseNumber(row[1], &p.x) || !ParseNumber(row[2], &p.y) ||
        !ParseNumber(row[3], &p.t)) {
      return std::nullopt;
    }
    trip->trajectory.points.push_back(p);
  }
  for (const auto& row : stays->rows) {
    DeliveryTrip* trip;
    if (!trip_at(row[0], &trip)) return std::nullopt;
    PlannedStay stay;
    if (!ParseNumber(row[1], &stay.location.x) ||
        !ParseNumber(row[2], &stay.location.y) ||
        !ParseNumber(row[3], &stay.start_time) ||
        !ParseNumber(row[4], &stay.end_time)) {
      return std::nullopt;
    }
    for (const std::string& piece : ::dlinf::Split(row[5], ';')) {
      if (piece.empty()) continue;
      int64_t id;
      if (!ParseNumber(piece, &id)) return std::nullopt;
      stay.delivered_address_ids.push_back(id);
    }
    trip->planned_stays.push_back(std::move(stay));
  }
  return world;
}

}  // namespace sim
}  // namespace dlinf
