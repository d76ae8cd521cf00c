#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

/// \file
/// The three workloads. Each builds its inputs from `seed`, sets the program
/// up (timed as setup_s), drives it for `seconds`, checks its outputs and
/// fills a RunResult. With `trace` set it also runs the layer pass and
/// fills the per-layer metrics.

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< Scratch space for bundles and the WAL.
  std::string trace_out;  ///< Chrome trace file of the traced run.
  /// CPUs the program runs on, and the CPU of the load generator. Load
  /// phases keep all of them awake with SpeedProbes. Before a load phase
  /// the workload pins the program's I/O loop thread to program_cpus[0]
  /// and its worker threads to program_cpus[1], so which threads share a
  /// CPU is the same on every run rather than the scheduler's choice.
  std::vector<int> program_cpus;
  std::vector<int> generator_cpus;
};

RunResult RunServe(const RunArgs& args);
RunResult RunIngest(const RunArgs& args);
RunResult RunTrain(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
