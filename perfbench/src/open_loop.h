#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"

/// \file
/// Open-loop HTTP load generator. Every request has a due time fixed before
/// the phase starts (a seeded schedule); one generator thread appends each
/// request to its keep-alive connection when it falls due, whether or not
/// earlier answers came back, and reads the in-order pipelined answers as
/// they arrive. Latency runs from the due time, so a
/// stall also charges the requests queued behind it. Lateness is the
/// generator's own delay in issuing a request past its due time; it says
/// nothing about the program and only decides whether the run is valid.

namespace perfbench {

/// One scheduled request on one connection.
struct ScheduledRequest {
  double due_s = 0.0;  ///< Offset from the phase start.
  std::string bytes;   ///< Complete HTTP/1.1 request on the wire.
};

/// Called on the generator thread for each answer, in request order per
/// connection. Returns whether the answer passes the workload's inline
/// check (status, no shed flag, ...). Must only touch per-connection state.
using ResponseCheck = std::function<bool(
    int connection, size_t index, int status, std::string_view body)>;

struct LoadReport {
  /// Per connection, per scheduled request that was sent: latency in
  /// seconds from due time to the full answer, or -1 when it failed or
  /// never came back.
  std::vector<std::vector<double>> latency_s;
  std::vector<std::vector<double>> due_s;  ///< Parallel to latency_s.
  std::vector<double> late_s;  ///< Issue delay past due, every request.
  int64_t sent = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;        ///< Inline-check failures + transport losses.
  int64_t transport_errors = 0;
  double generator_cpu_s = 0.0;  ///< The generator thread's CPU.
  double poller_cpu_s = 0.0;     ///< The speed probes' CPU (SpeedProbe).
  /// Slowdown of the program's CPUs over the phase against the reference
  /// host (SpeedProbe::Slowdown); the phase's times divide by it.
  double slowdown = 1.0;
  /// The same per kWindowS window of the schedule.
  std::vector<double> window_slowdown;
  double steal_frac = 0.0;       ///< Host steal over the phase.
  double wall_s = 0.0;           ///< Phase start to last answer.

  /// Every successful latency, pooled across connections.
  std::vector<double> AllLatencies() const;
  /// The slowdown of the window holding due time `due_s` (the phase's when
  /// that window has none).
  double SlowdownAt(double due_s) const;
};

/// Runs one phase from one generator thread pinned to `generator_cpus`:
/// `schedules[c]` goes over connection c to 127.0.0.1:`port`. Speed probes
/// hold `program_cpus` and `generator_cpus` awake for the phase, and those
/// on `program_cpus` measure the phase's slowdown. Waits up
/// to `drain_timeout_s` after the last due time for outstanding answers.
/// The program's CPU for the phase is the process's minus generator_cpu_s
/// and poller_cpu_s.
LoadReport RunOpenLoop(int port,
                       const std::vector<std::vector<ScheduledRequest>>& schedules,
                       const ResponseCheck& check, double drain_timeout_s,
                       const std::vector<int>& program_cpus,
                       const std::vector<int>& generator_cpus);

/// A run is valid only while the generator kept to its schedule: the 90th
/// percentile of its issue delay must stay under this.
inline constexpr double kMaxGeneratorLateP90S = 0.001;

/// Length of the schedule windows whose per-window medians are medianed
/// into latency_p50_ms, and the fewest answers a window needs to count.
inline constexpr double kWindowS = 2.0;
inline constexpr size_t kMinWindowSamples = 200;

/// Prints the phase's counts and whole-phase latency percentiles (with the
/// samples beyond each) and the medians over kWindowS windows of each
/// window's p50, p75 and p90; adds to `result` attempted, failed,
/// cpu_us_per_op, loadgen.* and latency_p50_ms (the median of the window
/// medians, each window's divided by that window's slowdown) and
/// cpu_us_per_op (divided by the phase's slowdown); and marks the run
/// invalid when the generator fell behind. `ops` is the work unit
/// cpu_us_per_op divides by; `program_cpu_s` is process CPU minus the
/// generator's and the probes'.
void ReportLoad(const std::string& phase, const LoadReport& report,
                int64_t ops, double program_cpu_s, RunResult* result);

/// Poisson arrival offsets at `rate_per_s` over [0, seconds).
std::vector<double> PoissonArrivals(double rate_per_s, double seconds,
                                    uint64_t seed, uint64_t stream);

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
