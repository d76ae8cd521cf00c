// serving_qps — end-to-end throughput/tail-latency bench of the sharded
// query engine (DESIGN.md §11): trains a small fixed-seed pipeline, saves
// it as a bundle, boots a 4-shard QueryEngine on loopback, and drives it
// with pipelined keep-alive client threads.
//
//   serving_qps [--quick] [--json PATH] [--shards 4] [--threads 4]
//               [--pipeline 16] [--seconds 1.5]
//
// Records into the bench-regression gate (tools/bench_compare):
//   serving.query_seconds   mean wall seconds per answered query (1/QPS)
//   serving.p50_seconds     median per-request latency (burst RTT bound)
//   serving.p99_seconds     tail latency
//   serving.p999_seconds    far tail
//
// Hard gate (the PR acceptance bar, loopback + warm bundle): sustained QPS
// >= 10k on 4 shards with p99 < 10 ms. The process exits 1 when either is
// missed, so CI fails even before bench_compare sees the numbers.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "apps/query_engine.h"
#include "bench_util.h"
#include "common/check.h"
#include "common/string_util.h"
#include "dlinfma/dlinfma_method.h"
#include "io/bundle.h"

namespace {

using dlinf::apps::HttpClient;
using dlinf::apps::QueryEngine;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ClientResult {
  int64_t requests = 0;
  int64_t errors = 0;
  std::vector<double> latency_s;
};

void RunClient(int port, int64_t address_count, int pipeline, int phase,
               double seconds, ClientResult* result) {
  HttpClient client;
  if (!client.Connect(port)) {
    result->errors = 1;
    return;
  }
  int64_t cursor = (phase * 7919) % address_count;
  const double deadline = NowSeconds() + seconds;
  while (NowSeconds() < deadline) {
    std::string burst;
    for (int i = 0; i < pipeline; ++i) {
      burst += "GET /query?address_id=" + std::to_string(cursor) +
               " HTTP/1.1\r\nHost: h\r\n\r\n";
      cursor = (cursor + 13) % address_count;
    }
    const double start = NowSeconds();
    if (!client.SendRaw(burst)) {
      ++result->errors;
      return;
    }
    for (int i = 0; i < pipeline; ++i) {
      int status = 0;
      std::string body;
      if (!client.ReadResponse(&status, &body)) {
        ++result->errors;
        return;
      }
      if (status != 200) ++result->errors;
    }
    const double elapsed = NowSeconds() - start;
    result->requests += pipeline;
    // The burst RTT bounds every request in it; recording it per request
    // keeps the percentile conservative.
    for (int i = 0; i < pipeline; ++i) result->latency_s.push_back(elapsed);
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

  int shards = 4;
  int threads = 4;
  int pipeline = 16;
  double seconds = quick ? 0.8 : 1.5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    bool ok = true;
    if (arg == "--shards" && has_value) {
      ok = dlinf::ParseNumberFlag(arg, argv[++i], &shards);
    } else if (arg == "--threads" && has_value) {
      ok = dlinf::ParseNumberFlag(arg, argv[++i], &threads);
    } else if (arg == "--pipeline" && has_value) {
      ok = dlinf::ParseNumberFlag(arg, argv[++i], &pipeline);
    } else if (arg == "--seconds" && has_value) {
      ok = dlinf::ParseNumberFlag(arg, argv[++i], &seconds);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
    if (!ok) return 2;
  }

  // Fixed-seed warm bundle (same scale the engine tests use).
  dlinf::sim::SimConfig config = dlinf::sim::SynDowBJConfig();
  config.num_days = 3;
  config.num_communities = 5;
  dlinf::bench::BenchData bench_data = dlinf::bench::MakeBenchData(config);
  dlinf::dlinfma::TrainConfig train_config;
  train_config.max_epochs = 2;
  train_config.early_stop_patience = 2;
  dlinf::dlinfma::DlInfMaMethod method(
      "DLInfMA", dlinf::dlinfma::LocMatcherConfig{}, train_config);
  method.Fit(bench_data.data, bench_data.samples);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "serving_qps_bundle")
          .string();
  std::string error;
  CHECK(dlinf::io::SaveBundle(dir, *bench_data.world, bench_data.data,
                              bench_data.samples, method, &error))
      << error;

  QueryEngine::Options options;
  options.bundle_dir = dir;
  options.num_shards = shards;
  std::unique_ptr<QueryEngine> engine = QueryEngine::Create(options, &error);
  CHECK(engine != nullptr) << error;
  const int64_t address_count =
      static_cast<int64_t>(bench_data.world->addresses.size());

  // Warm-up burst (connection setup, first-touch of the KV maps), then the
  // measured run.
  {
    ClientResult warmup;
    RunClient(engine->port(), address_count, pipeline, 0, 0.2, &warmup);
    CHECK(warmup.errors == 0) << "warm-up produced errors";
  }

  std::vector<ClientResult> results(static_cast<size_t>(threads));
  const double start = NowSeconds();
  std::vector<std::thread> clients;
  for (int i = 0; i < threads; ++i) {
    clients.emplace_back(RunClient, engine->port(), address_count, pipeline,
                         i, seconds, &results[static_cast<size_t>(i)]);
  }
  for (std::thread& client : clients) client.join();
  const double wall = NowSeconds() - start;

  int64_t requests = 0;
  int64_t errors = 0;
  std::vector<double> latency;
  for (const ClientResult& result : results) {
    requests += result.requests;
    errors += result.errors;
    latency.insert(latency.end(), result.latency_s.begin(),
                   result.latency_s.end());
  }
  std::sort(latency.begin(), latency.end());

  const double qps = wall > 0.0 ? static_cast<double>(requests) / wall : 0.0;
  const double p50 = Percentile(latency, 0.50);
  const double p99 = Percentile(latency, 0.99);
  const double p999 = Percentile(latency, 0.999);
  std::printf(
      "serving_qps: shards=%d threads=%d pipeline=%d requests=%lld "
      "qps=%.0f p50_ms=%.3f p99_ms=%.3f p999_ms=%.3f errors=%lld\n",
      shards, threads, pipeline, static_cast<long long>(requests), qps,
      p50 * 1e3, p99 * 1e3, p999 * 1e3, static_cast<long long>(errors));

  dlinf::bench::BenchResults bench_results;
  if (qps > 0.0) bench_results.Add("serving.query_seconds", 1.0 / qps);
  bench_results.Add("serving.p50_seconds", p50);
  bench_results.Add("serving.p99_seconds", p99);
  bench_results.Add("serving.p999_seconds", p999);
  if (!bench_results.WriteJson(json_path)) return 2;
  dlinf::bench::DumpMetrics(metrics_path);

  engine->Stop();
  std::filesystem::remove_all(dir);

  if (errors > 0) {
    std::fprintf(stderr, "FAIL: %lld transport/status errors\n",
                 static_cast<long long>(errors));
    return 1;
  }
  // The acceptance gate: >=10k QPS at p99 < 10 ms on the 4-shard default.
  if (shards == 4 && (qps < 10000.0 || p99 >= 0.010)) {
    std::fprintf(stderr,
                 "FAIL: acceptance gate missed (qps=%.0f need >=10000, "
                 "p99=%.3fms need <10ms)\n",
                 qps, p99 * 1e3);
    return 1;
  }
  std::printf("OK: sustained %.0f QPS at p99 %.3f ms\n", qps, p99 * 1e3);
  return 0;
}
