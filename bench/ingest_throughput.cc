// ingest_throughput — end-to-end throughput/ack-latency bench of the
// durable ingestion front end (DESIGN.md §14): boots an IngestServer with a
// fresh WAL on loopback and drives it with producer client threads
// streaming deterministic synthetic trips as transactional POST /ingest
// batches — every record WAL-committed before its ack.
//
//   ingest_throughput [--quick] [--json PATH] [--threads 3] [--pipeline 32]
//                     [--seconds 1.5] [--fsync-every 0]
//
// Records into the bench-regression gate (tools/bench_compare):
//   ingest.point_seconds    mean wall seconds per acked record (1/RPS)
//   ingest.ack_p50_seconds  median per-batch ack latency
//   ingest.ack_p99_seconds  tail ack latency
//
// Hard gate (loopback, fsync off — the page-cache durability tier):
// sustained >= 10k records/s with p99 batch ack < 50 ms. Exits 1 when
// missed, so CI fails before bench_compare sees the numbers.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "apps/http_conn.h"
#include "bench_util.h"
#include "common/check.h"
#include "common/string_util.h"
#include "stream/ingest_server.h"

namespace {

using dlinf::apps::HttpClient;
using dlinf::stream::FormatIngestLine;
using dlinf::stream::IngestRecord;
using dlinf::stream::IngestServer;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ClientResult {
  int64_t records = 0;
  int64_t errors = 0;
  std::vector<double> latency_s;  ///< One entry per POST (batch ack RTT).
};

/// One producer streaming synthetic trips (same shape as load_gen
/// --ingest): start_trip, a deterministic drifting point walk, finish_trip,
/// packed into POST batches of `pipeline` records.
void RunProducer(int port, int thread_index, int pipeline, double seconds,
                 ClientResult* result) {
  HttpClient client;
  if (!client.Connect(port)) {
    result->errors = 1;
    return;
  }
  const std::string client_id = "bench-" + std::to_string(thread_index);
  uint64_t seq = 0;
  int64_t trip = 0;
  int64_t point = 0;  // 0: next record starts a trip.
  const double deadline = NowSeconds() + seconds;
  while (NowSeconds() < deadline) {
    std::string body;
    for (int i = 0; i < pipeline; ++i) {
      IngestRecord record;
      record.client_id = client_id;
      record.seq = ++seq;
      if (point == 0) {
        record.kind = IngestRecord::Kind::kStartTrip;
        record.courier_id = 1000 + thread_index;
        record.start_time = static_cast<double>(trip) * 3600.0;
        record.end_time = record.start_time + 3600.0;
        ++point;
      } else if (point <= 8) {
        record.kind = IngestRecord::Kind::kPoint;
        record.x = 100.0 * thread_index + 10.0 * trip + point * 0.5;
        record.y = 50.0 * thread_index + 5.0 * trip + point * 0.25;
        record.t = static_cast<double>(trip) * 3600.0 + point * 15.0;
        ++point;
      } else {
        record.kind = IngestRecord::Kind::kFinishTrip;
        point = 0;
        ++trip;
      }
      body += FormatIngestLine(record);
      body += '\n';
    }
    const double start = NowSeconds();
    if (!client.SendPost("/ingest", body)) {
      ++result->errors;
      return;
    }
    int status = 0;
    std::string response;
    if (!client.ReadResponse(&status, &response)) {
      ++result->errors;
      return;
    }
    if (status != 200) {
      ++result->errors;
      continue;
    }
    result->records += pipeline;
    result->latency_s.push_back(NowSeconds() - start);
  }
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = std::min(
      sorted.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted.size())));
  return sorted[rank];
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = dlinf::bench::ParseJsonFlag(&argc, argv);
  const bool quick = dlinf::bench::ParseQuickFlag(&argc, argv);
  const std::string metrics_path = dlinf::bench::ParseMetricsFlag(&argc, argv);

  int threads = 3;
  int pipeline = 32;
  double seconds = quick ? 0.8 : 1.5;
  int64_t fsync_every = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    bool ok = true;
    if (arg == "--threads" && has_value) {
      ok = dlinf::ParseNumberFlag(arg, argv[++i], &threads);
    } else if (arg == "--pipeline" && has_value) {
      ok = dlinf::ParseNumberFlag(arg, argv[++i], &pipeline);
    } else if (arg == "--seconds" && has_value) {
      ok = dlinf::ParseNumberFlag(arg, argv[++i], &seconds);
    } else if (arg == "--fsync-every" && has_value) {
      ok = dlinf::ParseNumberFlag(arg, argv[++i], &fsync_every);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
    if (!ok) return 2;
  }

  const std::string wal_dir =
      (std::filesystem::temp_directory_path() / "ingest_throughput_wal")
          .string();
  std::filesystem::remove_all(wal_dir);

  IngestServer::Options options;
  options.wal.dir = wal_dir;
  options.wal.fsync_every_n = fsync_every;
  // Tiny static city: the bench measures the WAL + apply path, not mining
  // over a big world.
  dlinf::sim::SimConfig config = dlinf::sim::SynDowBJConfig();
  config.num_days = 1;
  config.num_communities = 3;
  options.city = dlinf::sim::GenerateWorld(config);
  options.city.trips.clear();
  IngestServer server(std::move(options));
  std::string error;
  CHECK(server.Start(&error)) << error;

  // Warm-up (connection setup, first segment allocation), then the
  // measured run.
  {
    ClientResult warmup;
    RunProducer(server.port(), 99, pipeline, 0.2, &warmup);
    CHECK(warmup.errors == 0) << "warm-up produced errors";
  }

  std::vector<ClientResult> results(static_cast<size_t>(threads));
  const double start = NowSeconds();
  std::vector<std::thread> producers;
  for (int i = 0; i < threads; ++i) {
    producers.emplace_back(RunProducer, server.port(), i, pipeline, seconds,
                           &results[static_cast<size_t>(i)]);
  }
  for (std::thread& producer : producers) producer.join();
  const double wall = NowSeconds() - start;

  int64_t records = 0;
  int64_t errors = 0;
  std::vector<double> latency;
  for (const ClientResult& result : results) {
    records += result.records;
    errors += result.errors;
    latency.insert(latency.end(), result.latency_s.begin(),
                   result.latency_s.end());
  }
  std::sort(latency.begin(), latency.end());

  const double rps = wall > 0.0 ? static_cast<double>(records) / wall : 0.0;
  const double p50 = Percentile(latency, 0.50);
  const double p99 = Percentile(latency, 0.99);
  std::printf(
      "ingest_throughput: threads=%d pipeline=%d fsync_every=%lld "
      "records=%lld points_per_sec=%.0f ack_p50_ms=%.3f ack_p99_ms=%.3f "
      "errors=%lld\n",
      threads, pipeline, static_cast<long long>(fsync_every),
      static_cast<long long>(records), rps, p50 * 1e3, p99 * 1e3,
      static_cast<long long>(errors));

  server.Stop();

  dlinf::bench::BenchResults bench_results;
  if (rps > 0.0) bench_results.Add("ingest.point_seconds", 1.0 / rps);
  bench_results.Add("ingest.ack_p50_seconds", p50);
  bench_results.Add("ingest.ack_p99_seconds", p99);
  if (!bench_results.WriteJson(json_path)) return 2;
  dlinf::bench::DumpMetrics(metrics_path);
  std::filesystem::remove_all(wal_dir);

  if (errors > 0) {
    std::fprintf(stderr, "FAIL: %lld transport/status errors\n",
                 static_cast<long long>(errors));
    return 1;
  }
  // The acceptance gate: >= 10k WAL-committed records/s, p99 ack < 50 ms
  // (fsync off: durability against SIGKILL, not power loss).
  if (fsync_every == 0 && (rps < 10000.0 || p99 >= 0.050)) {
    std::fprintf(stderr,
                 "FAIL: acceptance gate missed (rps=%.0f need >=10000, "
                 "ack_p99=%.3fms need <50ms)\n",
                 rps, p99 * 1e3);
    return 1;
  }
  std::printf("OK: sustained %.0f records/s at ack p99 %.3f ms\n", rps,
              p99 * 1e3);
  return 0;
}
