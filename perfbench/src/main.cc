// perfbench — the repository benchmark. One process drives the program
// through its public entry points on one seeded workload and prints every
// metric by name with its unit; the last stdout line is the JSON result.
//
//   perfbench --workload serve|ingest|train --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// workload with the program's trace recorder armed and the benchmark's
// layer spans on, reports the per-layer metrics, prints the end-to-end
// metrics it measured under tracing (for the overhead), and writes the
// spans as Chrome trace JSON to --trace-out. Exit status: 0 on a correct
// run; 1 when an output check failed or an operation failed (the result
// line is still printed); 2 on bad arguments; 3 when the load generator
// fell behind its schedule (no result is printed).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "layer_trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kProgramCpus = 2;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Mirrors BENCHMARK.json's end_to_end list; every workload reports each.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},      {"latency_p50_ms", "ms"}, {"cpu_us_per_op", "us"},
    {"mem_mb", "MiB"},     {"freshness_s", "s"},     {"mae_m", "m"},
    {"beta50_pct", "%"},
};

/// How a per-layer metric is read off the layer spans.
enum class FromSpan { kNone, kPerCall, kPerSpan };

struct LayerSpec {
  const char* name;
  const char* unit;
  const char* workloads;  ///< Space-separated workloads that measure it.
  FromSpan from = FromSpan::kNone;
  const char* span = nullptr;
  double scale = 1.0;  ///< Seconds -> the metric's unit.
};

/// Mirrors BENCHMARK.json's per_layer list. A workload that never calls a
/// layer reports 0 for it.
const LayerSpec kPerLayer[] = {
    {"http_conn.parse_us", "us", "serve", FromSpan::kPerCall, "http_conn.parse", 1e6},
    {"shard_router.max_shard_share", "ratio", "serve"},
    {"location_service.query_us", "us", "serve", FromSpan::kPerCall, "location_service.query", 1e6},
    {"location_service.query_batch_us", "us", "serve", FromSpan::kPerCall, "location_service.query_batch", 1e6},
    {"location_service.tier_address_frac", "ratio", "serve"},
    {"location_service.tier_building_frac", "ratio", "serve"},
    {"location_service.tier_geocode_frac", "ratio", "serve"},
    {"query_engine.format_us", "us", "serve", FromSpan::kPerCall, "query_engine.format", 1e6},
    {"query_engine.server_p50_us", "us", "serve"},
    {"query_engine.server_p90_us", "us", "serve"},
    {"query_engine.shed_frac", "ratio", "serve"},
    {"qe.loop.busy_frac", "ratio", "serve"},
    {"qe.shard.busy_frac_max", "ratio", "serve"},
    {"io.load_bundle_s", "s", "serve", FromSpan::kPerSpan, "io.load_bundle"},
    {"location_service.build_s", "s", "serve", FromSpan::kPerSpan, "location_service.build"},
    {"online_trainer.publish_s", "s", "serve", FromSpan::kPerSpan, "online_trainer.publish"},
    {"bundle_manager.poll_s", "s", "serve", FromSpan::kPerSpan, "bundle_manager.poll"},
    {"bundle_manager.swaps", "count", "serve"},
    {"bundle_manager.rollbacks", "count", "serve"},
    {"ingest_server.parse_us", "us", "ingest", FromSpan::kPerCall, "ingest_server.parse", 1e6},
    {"ingest_server.format_us", "us", "ingest", FromSpan::kPerCall, "ingest_server.format", 1e6},
    {"wal.append_us", "us", "ingest", FromSpan::kPerCall, "wal.append", 1e6},
    {"wal.bytes_per_record", "B", "ingest"},
    {"stream_pipeline.push_point_us", "us", "ingest", FromSpan::kPerCall, "stream_pipeline.push_point", 1e6},
    {"stream_pipeline.finish_trip_ms", "ms", "ingest", FromSpan::kPerCall, "stream_pipeline.finish_trip", 1e3},
    {"stream_pipeline.stay_points", "count", "ingest"},
    {"candidate_updater.clusters", "count", "ingest"},
    {"ingest_server.ack_p50_us", "us", "ingest"},
    {"ingest_server.ack_p90_us", "us", "ingest"},
    {"ingest_server.snapshot_bytes", "B", "ingest"},
    {"wal.segments", "count", "ingest"},
    {"ingest_server.recovered_records", "count", "ingest"},
    {"ingest.loop.busy_frac", "ratio", "ingest"},
    {"ingest.writer.busy_frac", "ratio", "ingest"},
    {"candidate_generation.build_s", "s", "train", FromSpan::kPerSpan, "candidate_generation.build"},
    {"features.extract_s", "s", "train", FromSpan::kPerSpan, "features.extract"},
    {"trainer.fit_s", "s", "train", FromSpan::kPerSpan, "trainer.fit"},
    {"trainer.epochs", "count", "train"},
    {"trainer.epoch_s", "s", "train"},
    {"locmatcher.forward_ms", "ms", "train", FromSpan::kPerSpan, "locmatcher.forward", 1e3},
    {"inferrer.infer_s", "s", "train", FromSpan::kPerSpan, "inferrer.infer"},
    {"io.save_bundle_s", "s", "train", FromSpan::kPerSpan, "io.save_bundle"},
    {"loadgen.late_p90_us", "us", "serve ingest"},
    {"loadgen.cpu_us_per_op", "us", "serve ingest"},
    {"host.steal_frac", "ratio", "serve ingest train"},
};

bool Measures(const LayerSpec& spec, const std::string& workload) {
  const std::string list = std::string(" ") + spec.workloads + " ";
  return list.find(" " + workload + " ") != std::string::npos;
}

/// Fills the span-derived per-layer metrics and checks that the workload
/// produced every metric it is meant to measure.
void FinishPerLayer(const std::string& workload, RunResult* result) {
  const auto stats = LayerStats();
  for (const LayerSpec& spec : kPerLayer) {
    if (spec.from == FromSpan::kNone) continue;
    const auto it = stats.find(spec.span);
    if (it == stats.end() || it->second.spans == 0) continue;
    const LayerStat& stat = it->second;
    const double seconds = spec.from == FromSpan::kPerCall
                               ? stat.PerCall()
                               : stat.total_s / static_cast<double>(stat.spans);
    result->per_layer[spec.name] = {seconds * spec.scale, spec.unit};
  }
  if (workload == "train") {
    const auto fit = result->per_layer.find("trainer.fit_s");
    const double epochs = result->per_layer["trainer.epochs"].value;
    if (fit != result->per_layer.end() && epochs > 0) {
      result->per_layer["trainer.epoch_s"] = {fit->second.value / epochs, "s"};
    }
  }
  for (const LayerSpec& spec : kPerLayer) {
    auto it = result->per_layer.find(spec.name);
    if (Measures(spec, workload)) {
      if (it == result->per_layer.end()) {
        result->Fail(std::string("layer metric not measured: ") + spec.name);
        result->per_layer[spec.name] = {0.0, spec.unit};
      } else {
        it->second.unit = spec.unit;
      }
    } else {
      result->per_layer[spec.name] = {0.0, spec.unit};
    }
  }
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics,
                        const std::set<std::string>& names) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (names.count(name) == 0) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    out += std::string(first ? "" : ", ") + "\"" + JsonEscape(name) +
           "\": {\"value\": " + value + ", \"unit\": \"" +
           JsonEscape(metric.unit) + "\"}";
    first = false;
  }
  return out + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve|ingest|train --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunArgs args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed wants an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0.0) return Usage("--seconds wants a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace wants 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "serve" && args.workload != "ingest" &&
      args.workload != "train") {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (!have_seed) return Usage("--seed is required");
  if (args.work_dir.empty()) return Usage("--work-dir is required");
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return Usage(("cannot create --work-dir " + args.work_dir).c_str());

  // The program runs on two CPUs and the load generator on a third, and the
  // load phases keep those three from halting (SpeedProbe). On a virtual
  // machine whose host is shared, waking a halted virtual CPU waits on the
  // host's scheduler; probes on a 4-vCPU VM swung the serve p50 from 0.07
  // to 3.5 ms with the host's load when the threads could spread over every
  // CPU and let them idle. One CPU stays free for the rest of the machine.
  const std::vector<int> cpus = ChooseCpus(kProgramCpus + 1);
  if (cpus.size() == static_cast<size_t>(kProgramCpus + 1)) {
    args.program_cpus.assign(cpus.begin(), cpus.end() - 1);
    args.generator_cpus.assign(cpus.end() - 1, cpus.end());
  } else {
    args.program_cpus = cpus;
    args.generator_cpus = cpus;
  }
  PinToCpus(args.program_cpus);
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
              "program_cpus=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.program_cpus.size());
  // The program's own per-request spans are sampled so the rings keep a
  // readable share of them; the benchmark's layer spans are always kept.
  if (args.trace) EnableLayerTrace(0.01);
  RunResult result;
  if (args.workload == "serve") {
    result = RunServe(args);
  } else if (args.workload == "ingest") {
    result = RunIngest(args);
  } else {
    result = RunTrain(args);
  }
  if (args.trace) {
    DisableLayerTrace();
    FinishPerLayer(args.workload, &result);
    PrintLayerTable();
    if (!args.trace_out.empty()) {
      if (ExportLayerTrace(args.trace_out)) {
        std::printf("trace: wrote %s\n", args.trace_out.c_str());
      } else {
        result.Fail("cannot write trace file " + args.trace_out);
      }
    }
  }

  std::set<std::string> e2e_names;
  for (const MetricSpec& spec : kEndToEnd) {
    e2e_names.insert(spec.name);
    const auto it = result.end_to_end.find(spec.name);
    if (it == result.end_to_end.end()) {
      result.Fail(std::string("end-to-end metric not measured: ") + spec.name);
      continue;
    }
    std::printf("metric %-16s %14.6f %s\n", spec.name, it->second.value, spec.unit);
  }
  const double failed_frac =
      result.attempted > 0
          ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
          : 1.0;
  std::printf("metric %-16s %14.6f ratio (%lld failed of %lld attempted)\n",
              "failed_frac", failed_frac, static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));
  std::set<std::string> layer_names;
  for (const LayerSpec& spec : kPerLayer) layer_names.insert(spec.name);
  if (args.trace) {
    for (const LayerSpec& spec : kPerLayer) {
      std::printf("layer  %-36s %16.6f %s\n", spec.name,
                  result.per_layer[spec.name].value, spec.unit);
    }
    // The end-to-end numbers as measured with tracing on: compared with an
    // untraced run of the same seed they give the tracing overhead.
    std::printf("traced_end_to_end %s\n",
                MetricsJson(result.end_to_end, e2e_names).c_str());
  }
  for (const std::string& failure : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  if (!result.invalid_reason.empty()) {
    std::printf("INVALID RUN: %s\n", result.invalid_reason.c_str());
    std::fflush(stdout);
    return 3;
  }
  if (result.attempted < 1) result.attempted = 1;
  const bool ok = result.correct && result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              args.trace ? MetricsJson(result.per_layer, layer_names).c_str()
                         : MetricsJson(result.end_to_end, e2e_names).c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
