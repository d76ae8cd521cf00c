#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

/// \file
/// Shared plumbing of the repository benchmark: clocks, CPU and memory
/// probes, percentile helpers, per-thread CPU by thread name, and the
/// result record every workload fills in.

namespace perfbench {

/// Monotonic seconds (steady_clock).
double Now();

/// CPU seconds of the whole process / of the calling thread.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// Resident-set size of the process in MiB (/proc/self/statm).
double RssMiB();

/// CPU seconds consumed so far by each live thread of this process whose
/// kernel name starts with `prefix`, by name (/proc/self/task/*/comm and
/// schedstat, or stat). The program names its threads (qe.loop, qe.shard.N,
/// ingest.loop, ingest.writer) when they start.
std::map<std::string, double> ThreadCpuByName(const std::string& prefix);

/// q-quantile (0..1) of `values` by linear interpolation; 0 when empty.
/// Sorts its argument.
double Quantile(std::vector<double>* values, double q);
double Median(std::vector<double> values);

/// Deterministic 64-bit generator for everything a workload draws from its
/// --seed (schedules, keys, samples).
using Rng = std::mt19937_64;

/// Stream `stream` of the run's seed: independent, reproducible sequences
/// for each consumer (one per connection, one for the key sample, ...).
Rng SeededRng(uint64_t seed, uint64_t stream);

/// Cumulative CPU time of the whole machine from /proc/stat: what the
/// hypervisor stole and the total, in clock ticks.
struct HostCpuTimes {
  double steal = 0.0;
  double total = 0.0;
};
HostCpuTimes ReadHostCpuTimes();

/// Share of the machine's CPU time the hypervisor stole between two
/// readings. It explains noise: probes on a shared 4-vCPU VM saw 0-35%
/// during load phases, and latency rose with it.
double StealFraction(const HostCpuTimes& before, const HostCpuTimes& after);

/// The last `count` CPUs this process may run on (fewer when it may not
/// run on that many), in ascending order.
std::vector<int> ChooseCpus(int count);

/// Pins the calling thread, and every thread it starts afterwards, to
/// `cpus`. False when the kernel refuses.
bool PinToCpus(const std::vector<int>& cpus);

/// Pins every live thread of this process whose kernel name starts with
/// `prefix` to `cpu`, as `taskset -p` would. Returns how many it pinned.
int PinThreadsByName(const std::string& prefix, int cpu);

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): outcome counts, the end-to-end
/// metrics (always measured) and the per-layer metrics (traced run only).
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Output-check failures, printed before the result line.
  std::vector<std::string> check_failures;
  /// Set when the load generator fell behind its schedule: the run measured
  /// the generator, not the program, and reports no numbers.
  std::string invalid_reason;

  void Fail(const std::string& what);
};

/// Prints "phase <name>: sent=.. succeeded=.. failed=.." (one line).
void PrintPhase(const std::string& name, int64_t sent, int64_t succeeded,
                int64_t failed);

/// A histogram's bucket counts at one moment, so a phase can report the
/// quantiles of only the observations it added (registry deltas).
struct HistogramSnapshot {
  std::vector<int64_t> buckets;
};
HistogramSnapshot SnapshotHistogram(const std::string& name);

/// q-quantile of the observations between two snapshots of one histogram:
/// the upper bound of the bucket holding the q-th ranked delta
/// observation, as obs::Histogram::Quantile reports it. 0 when empty.
double DeltaQuantile(const HistogramSnapshot& before,
                     const HistogramSnapshot& after, double q);

/// Current value of a registry counter.
int64_t CounterValue(const std::string& name);

/// JSON-escapes `s` (quotes, backslashes, control characters).
std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
