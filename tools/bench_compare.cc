// bench_compare — the CI benchmark-regression gate.
//
//   bench_compare --baseline FILE --pr FILE [--threshold 0.25]
//                 [--min-seconds 0.001] [--summary FILE]
//
// Both files are flat {"name": seconds} JSON produced by the bench binaries'
// --json flag (bench/bench_util.h). Every benchmark present in the baseline
// must be present in the PR results and must not be more than `threshold`
// (default 25%) slower; exit status 1 otherwise. Benchmarks whose baseline
// time is below `min-seconds` (default 1 ms) must still be present but are
// exempt from the ratio check — timer noise dominates a 25% band at
// microsecond scale. A benchmark present only in the PR results is **new**
// (e.g. a freshly added microbench whose key the committed baseline does not
// carry yet): reported informationally, never a failure, so adding keys
// does not require a lockstep baseline regen.
//
// Machine differences: each results file carries a `_calibration` entry —
// the wall time of a fixed CPU-bound workload on the machine that produced
// it. When both files have one, comparisons use calibration-normalized
// times (seconds scaled by baseline_calibration / pr_calibration), so a
// baseline committed from a faster or slower machine than the CI runner
// still gates correctly. Without calibration entries, raw seconds are
// compared.
//
// --summary FILE additionally writes a GitHub-flavored-markdown digest
// (regressions first, then ">NN% faster" improvement lines and new-key
// notes, then the full table) — CI appends it to $GITHUB_STEP_SUMMARY so
// the comparison is readable from the run page without digging through
// logs.
//
// The comparison policy itself lives in src/common/bench_compare.{h,cc}
// (unit-tested in tests/bench_compare_test.cc); this binary is flag
// parsing, file I/O and console rendering.

#include <cstdio>
#include <optional>
#include <string>

#include "common/bench_compare.h"
#include "common/flat_json.h"
#include "common/string_util.h"
#include "io/file.h"

namespace {

struct Options {
  std::string baseline_path;
  std::string pr_path;
  std::string summary_path;
  dlinf::BenchCompareOptions compare;
};

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    bool ok = true;
    if (arg == "--baseline" && has_value) {
      options.baseline_path = argv[++i];
    } else if (arg == "--pr" && has_value) {
      options.pr_path = argv[++i];
    } else if (arg == "--threshold" && has_value) {
      ok = dlinf::ParseNumberFlag(arg, argv[++i], &options.compare.threshold);
    } else if (arg == "--min-seconds" && has_value) {
      ok = dlinf::ParseNumberFlag(arg, argv[++i], &options.compare.min_seconds);
    } else if (arg == "--summary" && has_value) {
      options.summary_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or valueless argument: %s\n", arg.c_str());
      return std::nullopt;
    }
    if (!ok) return std::nullopt;
  }
  if (options.baseline_path.empty() || options.pr_path.empty() ||
      options.compare.threshold <= 0.0) {
    std::fprintf(stderr,
                 "usage: bench_compare --baseline FILE --pr FILE "
                 "[--threshold 0.25]\n");
    return std::nullopt;
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> options = ParseArgs(argc, argv);
  if (!options) return 2;

  auto baseline = dlinf::FlatJsonLoad(options->baseline_path);
  if (!baseline) {
    std::fprintf(stderr, "error: cannot read baseline %s\n",
                 options->baseline_path.c_str());
    return 2;
  }
  auto pr = dlinf::FlatJsonLoad(options->pr_path);
  if (!pr) {
    std::fprintf(stderr, "error: cannot read PR results %s\n",
                 options->pr_path.c_str());
    return 2;
  }

  const dlinf::BenchComparison comparison =
      dlinf::CompareBenchResults(*baseline, *pr, options->compare);
  if (comparison.calibrated) {
    std::printf("calibration: scaling pr times by %.3f\n", comparison.scale);
  } else {
    std::printf("calibration: absent in one side; comparing raw seconds\n");
  }

  std::printf("%-40s %12s %12s %8s\n", "benchmark", "baseline(s)", "pr(s)",
              "ratio");
  for (const std::string& name : comparison.missing) {
    std::printf("%-40s %12s %12s %8s  MISSING\n", name.c_str(), "-", "-",
                "-");
  }
  for (const dlinf::BenchCompareRow& row : comparison.rows) {
    std::printf("%-40s %12.4f %12.4f %8.3f%s\n", row.name.c_str(),
                row.base_seconds, row.pr_seconds, row.ratio,
                row.regressed
                    ? "  REGRESSION"
                    : (row.gated ? "" : "  (below floor, not gated)"));
  }
  for (const auto& [name, seconds] : comparison.new_entries) {
    std::printf("%-40s %12s %12.4f %8s  (new, no baseline)\n", name.c_str(),
                "-", seconds, "-");
  }

  if (!options->summary_path.empty()) {
    std::string error;
    if (!dlinf::io::WriteFileAtomic(
            options->summary_path,
            dlinf::BenchComparisonMarkdown(comparison, options->compare),
            &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
  }

  if (!comparison.ok()) {
    std::fprintf(stderr,
                 "FAIL: %d regression(s) beyond +%.0f%%, %d missing "
                 "benchmark(s)\n",
                 comparison.regressions,
                 options->compare.threshold * 100.0,
                 static_cast<int>(comparison.missing.size()));
    return 1;
  }
  std::printf("OK: all benchmarks within +%.0f%% of baseline\n",
              options->compare.threshold * 100.0);
  return 0;
}
