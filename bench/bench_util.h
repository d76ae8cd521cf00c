#ifndef DLINF_BENCH_BENCH_UTIL_H_
#define DLINF_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_json.h"
#include "common/stopwatch.h"
#include "dlinfma/inferrer.h"
#include "io/file.h"
#include "obs/metrics.h"
#include "sim/generator.h"

namespace dlinf {
namespace bench {

/// Parses the shared bench flags `--metrics [PATH]` (dump a metrics JSON
/// snapshot when the run finishes; default path `metrics.json` next to the
/// results) and `--no-metrics` (disable collection entirely, for overhead
/// baselines). Consumed flags are removed from argv so downstream parsers
/// (e.g. google-benchmark's) never see them. Returns the dump path, empty
/// when no dump was requested.
inline std::string ParseMetricsFlag(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--no-metrics") == 0) {
      obs::SetMetricsEnabled(false);
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      if (i + 1 < *argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        path = argv[++i];
      } else {
        path = "metrics.json";
      }
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

/// Dumps the global registry snapshot to `path` (no-op when empty).
inline void DumpMetrics(const std::string& path) {
  if (path.empty()) return;
  std::string error;
  if (io::WriteFileAtomic(path, obs::MetricsRegistry::Global().SnapshotJson(),
                          &error)) {
    std::printf("metrics snapshot -> %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "error: %s\n", error.c_str());
  }
}

/// Parses and consumes `--json PATH`: append this run's named wall-times to
/// the flat JSON results file at PATH (the bench regression gate's input;
/// see tools/bench_compare.cc). Returns the path, empty when not requested.
inline std::string ParseJsonFlag(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < *argc &&
        std::strncmp(argv[i + 1], "--", 2) != 0) {
      path = argv[++i];
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

/// Parses and consumes `--quick`: shrink workloads to CI size. A committed
/// baseline must be produced with the same flag the comparison run uses.
inline bool ParseQuickFlag(int* argc, char** argv) {
  bool quick = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return quick;
}

/// Wall time of a fixed CPU-bound integer workload (best of 3). Stored under
/// `_calibration` in every results file so bench_compare can normalize out
/// the speed difference between the machine that produced the committed
/// baseline and the CI runner: regressions are judged on
/// time/calibration ratios, not raw seconds.
inline double CalibrationSeconds() {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    uint64_t acc = 0;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += x;
    }
    const double seconds = watch.ElapsedSeconds();
    // Defeat dead-code elimination of the loop above.
    if (acc == 0x5dee7) std::printf(" ");
    if (seconds < best) best = seconds;
  }
  return best;
}

/// Collects named wall-times and merge-writes them into a flat JSON results
/// file, so several bench binaries can contribute to one BENCH_pr.json.
///
/// Repeated measurements keep the minimum — both within one run (repeated
/// Add of the same name, e.g. google-benchmark repetitions) and across runs
/// (WriteJson min-merges with the existing file). Running a bench binary N
/// times against the same file therefore yields best-of-N wall times, which
/// is what the regression gate compares: the minimum is the least
/// contention-polluted estimate of the code's true cost.
class BenchResults {
 public:
  void Add(const std::string& name, double seconds) {
    const auto it = values_.find(name);
    if (it == values_.end() || seconds < it->second) values_[name] = seconds;
  }

  /// Min-merges into the existing file at `path`, adds the `_calibration`
  /// reference timing, writes. No-op on empty path.
  bool WriteJson(const std::string& path) {
    if (path.empty()) return true;
    std::map<std::string, double> merged;
    if (auto existing = FlatJsonLoad(path)) merged = std::move(*existing);
    Add("_calibration", CalibrationSeconds());
    for (const auto& [name, seconds] : values_) {
      const auto it = merged.find(name);
      if (it == merged.end() || seconds < it->second) merged[name] = seconds;
    }
    if (!FlatJsonSave(path, merged)) {
      std::fprintf(stderr, "error: cannot write bench results to %s\n",
                   path.c_str());
      return false;
    }
    std::printf("bench results -> %s (%zu entries)\n", path.c_str(),
                merged.size());
    return true;
  }

 private:
  std::map<std::string, double> values_;
};

/// A dataset bundle whose world outlives the Dataset's pointer to it.
struct BenchData {
  std::unique_ptr<sim::World> world;
  dlinfma::Dataset data;
  dlinfma::SampleSet samples;
};

/// Generates a world and runs the full candidate pipeline + default feature
/// extraction.
inline BenchData MakeBenchData(
    const sim::SimConfig& config,
    const dlinfma::CandidateGeneration::Options& options = {}) {
  BenchData bundle;
  bundle.world = std::make_unique<sim::World>(sim::GenerateWorld(config));
  bundle.data = dlinfma::BuildDataset(*bundle.world, options);
  bundle.samples =
      dlinfma::ExtractSamples(bundle.data, dlinfma::FeatureConfig{});
  return bundle;
}

/// Both paper-like datasets with default options.
inline std::vector<sim::SimConfig> PaperConfigs() {
  return {sim::SynDowBJConfig(), sim::SynSubBJConfig()};
}

}  // namespace bench
}  // namespace dlinf

#endif  // DLINF_BENCH_BENCH_UTIL_H_
