// The `serve` workload: open-loop /query and /query_batch traffic against a
// 2-shard QueryEngine over a city about 12x SynDowBJ, then bundle
// republishes (PublishBundle, PollShards) once the traffic has ended.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/http_conn.h"
#include "apps/query_engine.h"
#include "dlinfma/dlinfma_method.h"
#include "dlinfma/metrics.h"
#include "io/bundle.h"
#include "host_speed.h"
#include "layer_trace.h"
#include "open_loop.h"
#include "sim/generator.h"
#include "stream/online_trainer.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dlinf::apps::DeliveryLocationService;
using dlinf::apps::QueryEngine;

constexpr double kRequestsPerSecond = 20000.0;
constexpr int kConnections = 4;
constexpr int kShards = 2;
constexpr double kBatchShare = 0.1;
constexpr size_t kBatchIds = 16;
constexpr double kZipfExponent = 0.99;
constexpr int kCheckEvery = 32;         ///< ~1 in 32 answers byte-checked.
constexpr int kSetupRepeats = 5;        ///< QueryEngine::Create per run.
/// Queued queries per shard before arrivals shed (default 512, ~50 ms of
/// this traffic). Probes on a shared VM saw the host stall the process for
/// 30-40 ms; 4096 rides such a stall out, so a shed means the program fell
/// behind rather than that the host paused it.
constexpr int kMaxQueuePerShard = 4096;
constexpr int kPushes = 9;              ///< Republishes after the traffic.

/// The serving city: SynDowBJ's layout and behaviour, 12x the communities
/// and couriers, one week. Fixed, so every seed queries the same bundle and
/// answer quality is comparable across runs; the seed drives the traffic.
dlinf::sim::SimConfig ServeCity() {
  dlinf::sim::SimConfig config = dlinf::sim::SynDowBJConfig();
  config.num_communities = 144;
  config.community_grid_cols = 12;
  config.num_couriers = 48;
  config.num_days = 7;
  return config;
}

/// The untimed fixture: world, mined dataset, 2-epoch model, published
/// bundle. Kept alive for the republishes.
struct Fixture {
  dlinf::sim::World world;
  dlinf::dlinfma::Dataset data;
  dlinf::dlinfma::SampleSet samples;
  std::unique_ptr<dlinf::dlinfma::DlInfMaMethod> method;
  std::string bundle_dir;
};

/// One request's keys: a single /query id or a /query_batch id list.
struct RequestKeys {
  bool batch = false;
  std::vector<int64_t> ids;
};

struct Traffic {
  std::vector<std::vector<ScheduledRequest>> schedules;
  std::vector<std::vector<RequestKeys>> keys;  ///< Parallel to schedules.
  /// Answers kept for the byte check, per connection: (index, body).
  std::vector<std::vector<std::pair<size_t, std::string>>> kept;
  std::vector<std::vector<uint8_t>> check;  ///< Per request: keep answer?
};

Traffic MakeTraffic(const dlinf::sim::World& world, uint64_t seed,
                    double seconds) {
  const size_t n = world.addresses.size();
  // Zipf ranks over every address id, mapped through a fixed permutation:
  // which addresses are hot, and so how the hot keys fall on the shards,
  // is part of the workload; the seed draws the request stream from it.
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t rank = 0; rank < n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
    cdf[rank] = total;
  }
  std::vector<int64_t> ids_by_rank(n);
  for (size_t i = 0; i < n; ++i) ids_by_rank[i] = world.addresses[i].id;
  Rng permute = SeededRng(0, 100);
  std::shuffle(ids_by_rank.begin(), ids_by_rank.end(), permute);

  Traffic traffic;
  traffic.schedules.resize(kConnections);
  traffic.keys.resize(kConnections);
  traffic.kept.resize(kConnections);
  traffic.check.resize(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    Rng rng = SeededRng(seed, 200 + static_cast<uint64_t>(c));
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    const std::vector<double> arrivals = PoissonArrivals(
        kRequestsPerSecond / kConnections, seconds, seed, static_cast<uint64_t>(c));
    for (const double due : arrivals) {
      RequestKeys keys;
      ScheduledRequest request;
      request.due_s = due;
      if (uniform(rng) < kBatchShare) {
        // One courier's waybills: the first 16 of a random trip.
        const auto& trip = world.trips[static_cast<size_t>(
            uniform(rng) * static_cast<double>(world.trips.size()))];
        keys.batch = true;
        std::string body = "{\"address_ids\":[";
        for (size_t i = 0; i < std::min(kBatchIds, trip.waybills.size()); ++i) {
          keys.ids.push_back(trip.waybills[i].address_id);
          if (i > 0) body += ',';
          body += std::to_string(trip.waybills[i].address_id);
        }
        body += "]}";
        request.bytes =
            "POST /query_batch HTTP/1.1\r\nHost: bench\r\n"
            "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
      } else {
        const size_t rank = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), uniform(rng) * total) -
            cdf.begin());
        keys.ids.push_back(ids_by_rank[std::min(rank, n - 1)]);
        request.bytes = "GET /query?address_id=" + std::to_string(keys.ids[0]) +
                        " HTTP/1.1\r\nHost: bench\r\n\r\n";
      }
      traffic.check[c].push_back(uniform(rng) * kCheckEvery < 1.0 ? 1 : 0);
      traffic.schedules[c].push_back(std::move(request));
      traffic.keys[c].push_back(std::move(keys));
    }
  }
  return traffic;
}

/// The exact body the engine must serve for `keys`, from direct Query
/// calls on each owning shard's live state.
std::string ExpectedBody(QueryEngine* engine, const RequestKeys& keys) {
  auto one = [engine](int64_t id) {
    const int shard = engine->router().ShardOf(id);
    return QueryEngine::FormatAnswerJson(
        id, engine->shard_manager(shard)->state()->service->Query(id), shard,
        /*shed=*/false);
  };
  if (!keys.batch) return one(keys.ids[0]);
  std::string body = "{\"answers\":[";
  for (size_t i = 0; i < keys.ids.size(); ++i) {
    if (i > 0) body += ',';
    body += one(keys.ids[i]);
  }
  return body + "]}";
}

/// PublishBundle then PollShards, as `dlinf_cli serve` does on a push.
/// Returns the seconds until every shard served the new generation, or -1
/// when a shard did not swap.
double Push(const Fixture& fixture, QueryEngine* engine, int* swaps,
            int* rollbacks, std::string* error) {
  LayerSpan push_span("reload.push");
  const double start = Now();
  {
    LayerSpan span("online_trainer.publish");
    if (!dlinf::stream::PublishBundle(fixture.world, fixture.data,
                                      fixture.samples, *fixture.method,
                                      fixture.bundle_dir, error)) {
      return -1.0;
    }
  }
  QueryEngine::ReloadSummary summary;
  {
    LayerSpan span("bundle_manager.poll");
    summary = engine->PollShards(error);
  }
  const double elapsed = Now() - start;
  *swaps += summary.swapped;
  *rollbacks += summary.rolled_back;
  return summary.swapped == engine->num_shards() ? elapsed : -1.0;
}

/// The traced run's layer pass: replays the run's own inputs through each
/// layer's public functions, one span per layer.
void LayerPass(const Fixture& fixture, const Traffic& traffic,
               QueryEngine* engine, RunResult* result) {
  auto& layer = result->per_layer;
  {
    dlinf::apps::HttpParser parser;
    std::string wire;
    for (const ScheduledRequest& request : traffic.schedules[0]) {
      wire += request.bytes;
    }
    int64_t parsed = 0;
    LayerSpan span("http_conn.parse");
    dlinf::apps::HttpRequest request;
    for (size_t offset = 0; offset < wire.size(); offset += 16384) {
      parser.Feed(wire.data() + offset, std::min<size_t>(16384, wire.size() - offset));
      while (parser.Next(&request) == dlinf::apps::HttpParser::Status::kRequest) {
        ++parsed;
      }
    }
    span.set_calls(parsed);
  }
  std::vector<int64_t> singles;
  std::vector<std::vector<int64_t>> batches;
  for (const auto& connection : traffic.keys) {
    for (const RequestKeys& keys : connection) {
      if (keys.batch) {
        batches.push_back(keys.ids);
      } else {
        singles.push_back(keys.ids[0]);
      }
    }
  }
  {
    std::vector<int64_t> per_shard(static_cast<size_t>(engine->num_shards()));
    int64_t keys = 0;
    LayerSpan span("shard_router.shard_of");
    for (const int64_t id : singles) {
      ++per_shard[static_cast<size_t>(engine->router().ShardOf(id))];
      ++keys;
    }
    for (const auto& ids : batches) {
      for (const int64_t id : ids) {
        ++per_shard[static_cast<size_t>(engine->router().ShardOf(id))];
        ++keys;
      }
    }
    span.set_calls(keys);
    layer["shard_router.max_shard_share"] = {
        static_cast<double>(*std::max_element(per_shard.begin(), per_shard.end())) /
            static_cast<double>(std::max<int64_t>(1, keys)),
        "ratio"};
  }
  const auto state = engine->shard_manager(0)->state();
  std::vector<DeliveryLocationService::Answer> answers;
  answers.reserve(singles.size());
  {
    LayerSpan span("location_service.query", static_cast<int64_t>(singles.size()));
    for (const int64_t id : singles) answers.push_back(state->service->Query(id));
  }
  {
    LayerSpan span("location_service.query_batch",
                   static_cast<int64_t>(batches.size()));
    for (const auto& ids : batches) {
      const auto batch_answers = state->service->QueryBatch(ids);
      answers.insert(answers.end(), batch_answers.begin(), batch_answers.end());
    }
  }
  int64_t tiers[3] = {0, 0, 0};
  for (const auto& answer : answers) ++tiers[static_cast<int>(answer.source)];
  const double answered = static_cast<double>(std::max<size_t>(1, answers.size()));
  layer["location_service.tier_address_frac"] = {tiers[0] / answered, "ratio"};
  layer["location_service.tier_building_frac"] = {tiers[1] / answered, "ratio"};
  layer["location_service.tier_geocode_frac"] = {tiers[2] / answered, "ratio"};
  {
    size_t bytes = 0;
    LayerSpan span("query_engine.format", static_cast<int64_t>(singles.size()));
    for (size_t i = 0; i < singles.size(); ++i) {
      bytes += QueryEngine::FormatAnswerJson(singles[i], answers[i], 0, false).size();
    }
    if (bytes == 0) result->Fail("FormatAnswerJson produced no bytes");
  }
  for (int i = 0; i < 2; ++i) {
    std::optional<dlinf::io::WarmBundle> bundle;
    {
      LayerSpan span("io.load_bundle");
      bundle = dlinf::io::LoadBundle(fixture.bundle_dir);
    }
    if (!bundle) {
      result->Fail("layer pass: LoadBundle failed");
      return;
    }
    const auto inventory = dlinf::io::AllSamples(bundle->samples);
    LayerSpan span("location_service.build");
    const auto service = DeliveryLocationService::BuildFromInferrer(
        *bundle->world, bundle->data, inventory, bundle->method.get());
    if (service.address_entries() == 0) result->Fail("empty rebuilt service");
  }
}

}  // namespace

RunResult RunServe(const RunArgs& args) {
  RunResult result;
  const std::string phase = "serve";

  // Fixture (untimed).
  Fixture fixture;
  fixture.world = dlinf::sim::GenerateWorld(ServeCity());
  fixture.data = dlinf::dlinfma::BuildDataset(fixture.world, {});
  fixture.samples = dlinf::dlinfma::ExtractSamples(fixture.data, {});
  dlinf::dlinfma::TrainConfig train;
  train.max_epochs = 2;
  fixture.method =
      std::make_unique<dlinf::dlinfma::DlInfMaMethod>("DLInfMA", dlinf::dlinfma::LocMatcherConfig{}, train);
  fixture.method->Fit(fixture.data, fixture.samples);
  fixture.bundle_dir = args.work_dir + "/bundle";
  std::string error;
  if (!dlinf::stream::PublishBundle(fixture.world, fixture.data, fixture.samples,
                                    *fixture.method, fixture.bundle_dir, &error)) {
    result.Fail("fixture publish failed: " + error);
    return result;
  }
  Traffic traffic = MakeTraffic(fixture.world, args.seed, args.seconds);
  std::printf("fixture: %zu addresses, %zu delivered, %zu trips; traffic: "
              "%.0f req/s over %d connections, %.0f%% batches of %zu ids\n",
              fixture.world.addresses.size(),
              fixture.world.DeliveredAddressIds().size(),
              fixture.world.trips.size(), kRequestsPerSecond, kConnections,
              100.0 * kBatchShare, kBatchIds);

  // Set-up: QueryEngine::Create, repeated; the last engine serves.
  const double rss_before = RssMiB();
  std::vector<double> setup_s;
  std::vector<double> raw_setup_s;
  std::unique_ptr<QueryEngine> engine;
  QueryEngine::Options options;
  options.bundle_dir = fixture.bundle_dir;
  options.num_shards = kShards;
  options.max_queue_per_shard = kMaxQueuePerShard;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (engine) engine->Stop();
    engine.reset();
    double raw_s = 0.0;
    setup_s.push_back(NormalizedSeconds(
        [&] {
          LayerSpan span("query_engine.create");
          engine = QueryEngine::Create(options, &error);
        },
        args.program_cpus.front(), &raw_s));
    raw_setup_s.push_back(raw_s);
    if (!engine) {
      result.Fail("QueryEngine::Create failed: " + error);
      return result;
    }
  }
  PrintPhase("setup", kSetupRepeats, kSetupRepeats, 0);
  // The event loop alone on one CPU; the shard workers share the other.
  const int io_cpu = args.program_cpus.front();
  const int work_cpu = args.program_cpus.back();
  PinThreadsByName("qe.loop", io_cpu);
  PinThreadsByName("qe.shard.", work_cpu);

  // Boot answers of a fixed probe set: every push must keep them.
  std::vector<RequestKeys> probes;
  for (size_t i = 0; i < fixture.world.addresses.size(); i += 97) {
    probes.push_back({false, {fixture.world.addresses[i].id}});
  }
  std::vector<std::string> probe_answers;
  for (const RequestKeys& probe : probes) {
    probe_answers.push_back(ExpectedBody(engine.get(), probe));
  }
  int swaps = 0;
  int rollbacks = 0;
  int pushes = 0;
  int failed_pushes = 0;
  std::vector<double> freshness;
  std::vector<double> raw_freshness;
  auto push_and_check = [&]() {
    std::string push_error;
    double seconds = 0.0;
    double raw_s = 0.0;
    const double normalized = NormalizedSeconds(
        [&] { seconds = Push(fixture, engine.get(), &swaps, &rollbacks, &push_error); },
        args.program_cpus.front(), &raw_s);
    ++pushes;
    if (seconds < 0.0) {
      ++failed_pushes;
      result.Fail("push did not swap every shard: " + push_error);
      return;
    }
    freshness.push_back(normalized);
    raw_freshness.push_back(raw_s);
    for (size_t i = 0; i < probes.size(); ++i) {
      if (ExpectedBody(engine.get(), probes[i]) != probe_answers[i]) {
        result.Fail("answer changed across a republish of an identical bundle");
        return;
      }
    }
  };

  // Load phase.
  const auto check = [&traffic](int connection, size_t index, int status,
                                std::string_view body) {
    if (status != 200 || body.find("\"shed\":true") != std::string_view::npos) {
      return false;
    }
    if (traffic.check[connection][index]) {
      traffic.kept[connection].emplace_back(index, std::string(body));
    }
    return true;
  };
  const auto latency_before = SnapshotHistogram("service.engine.latency_seconds");
  const int64_t hits_before = CounterValue("service.shard.hits");
  const int64_t shed_before = CounterValue("service.shard.shed");
  const auto threads_before = ThreadCpuByName("qe.");
  const double cpu_before = ProcessCpuSeconds();
  const double wall_before = Now();
  const LoadReport report =
      RunOpenLoop(engine->port(), traffic.schedules, check, 5.0, args.program_cpus, args.generator_cpus);
  const double wall = Now() - wall_before;
  const double program_cpu = ProcessCpuSeconds() - cpu_before -
                             report.generator_cpu_s - report.poller_cpu_s;
  const auto threads_after = ThreadCpuByName("qe.");
  ReportLoad(phase, report, report.sent, program_cpu, &result);

  for (int i = 0; i < kPushes; ++i) push_and_check();
  PrintPhase("push", pushes, pushes - failed_pushes, failed_pushes);
  result.attempted += pushes;
  result.failed += failed_pushes;
  if (rollbacks != 0) result.Fail("a push of an identical bundle rolled back");

  // Output checks: kept answers are byte-equal to a direct Query.
  int64_t checked = 0;
  int64_t mismatched = 0;
  for (int c = 0; c < kConnections; ++c) {
    for (const auto& [index, body] : traffic.kept[c]) {
      ++checked;
      if (body != ExpectedBody(engine.get(), traffic.keys[c][index])) ++mismatched;
    }
  }
  PrintPhase("byte_check", checked, checked - mismatched, mismatched);
  result.attempted += checked;
  result.failed += mismatched;
  if (mismatched > 0) result.Fail(std::to_string(mismatched) + " answers differ from a direct Query");
  if (checked == 0) result.Fail("no answer was byte-checked");

  // Answer quality: every delivered address, as the service answers it.
  std::vector<dlinf::Point> predicted;
  std::vector<dlinf::Point> truth;
  for (const int64_t id : fixture.world.DeliveredAddressIds()) {
    const int shard = engine->router().ShardOf(id);
    predicted.push_back(engine->shard_manager(shard)->state()->service->Query(id).location);
    truth.push_back(fixture.world.address(id).true_delivery_location);
  }
  const auto quality = dlinf::dlinfma::ComputeMetrics(predicted, truth);

  const double rss_after = RssMiB();
  if (args.trace) LayerPass(fixture, traffic, engine.get(), &result);

  const double shed = static_cast<double>(CounterValue("service.shard.shed") - shed_before);
  const double hits = static_cast<double>(CounterValue("service.shard.hits") - hits_before);
  const auto latency_after = SnapshotHistogram("service.engine.latency_seconds");
  auto& layer = result.per_layer;
  layer["query_engine.server_p50_us"] = {1e6 * DeltaQuantile(latency_before, latency_after, 0.5), "us"};
  layer["query_engine.server_p90_us"] = {1e6 * DeltaQuantile(latency_before, latency_after, 0.9), "us"};
  layer["query_engine.shed_frac"] = {hits + shed > 0 ? shed / (hits + shed) : 0.0, "ratio"};
  double shard_busy_max = 0.0;
  for (const auto& [name, seconds] : threads_after) {
    const auto before = threads_before.find(name);
    const double busy =
        (seconds - (before == threads_before.end() ? 0.0 : before->second)) / wall;
    if (name == "qe.loop") layer["qe.loop.busy_frac"] = {busy, "ratio"};
    if (name.rfind("qe.shard.", 0) == 0) shard_busy_max = std::max(shard_busy_max, busy);
  }
  layer["qe.shard.busy_frac_max"] = {shard_busy_max, "ratio"};
  layer["bundle_manager.swaps"] = {static_cast<double>(swaps), "count"};
  layer["bundle_manager.rollbacks"] = {static_cast<double>(rollbacks), "count"};

  engine->Stop();
  std::printf("%s raw: setup_s=%.6f freshness_s=%.6f\n", phase.c_str(),
              Median(raw_setup_s), Median(raw_freshness));
  result.end_to_end["setup_s"] = {Median(setup_s), "s"};
  result.end_to_end["mem_mb"] = {rss_after - rss_before, "MiB"};
  result.end_to_end["freshness_s"] = {Median(freshness), "s"};
  result.end_to_end["mae_m"] = {quality.mae_m, "m"};
  result.end_to_end["beta50_pct"] = {quality.beta50_pct, "%"};
  return result;
}

}  // namespace perfbench
