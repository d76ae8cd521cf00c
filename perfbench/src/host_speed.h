#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

/// \file
/// How fast the host runs the program's CPUs right now, measured on a fixed
/// unit of the benchmark's own work. On a virtual machine whose host is
/// shared, the same code runs up to ~1.8x slower while a neighbour is busy
/// on the same physical core, and that flips within seconds; every timing
/// of the program moves with it, by 30-40% between runs of identical code.
/// Timing the reference unit on the program's own CPUs, during the phase
/// being measured, and dividing the program's times by the unit's slowdown
/// takes most of that out: a run reports the program's times on a host
/// of reference speed. The raw times are printed beside them.
///
/// The unit is compiled into the benchmark, not the program, so no change
/// to the program changes its work. It is a few microseconds of fused
/// multiply-adds on 64 float lanes (AVX2 where the CPU has it, as the
/// program's GEMM kernels use it), integer hashing and dependent loads
/// that walk a 128 KiB table, so it feels a neighbour on the core's units
/// and on its second-level cache as the program does. A unit that was
/// preempted shows as an outlier and is dropped.

namespace perfbench {

/// Nominal seconds of one reference unit: its mean on an idle 4-vCPU Xeon
/// (Sapphire Rapids) VM. Normalised times are in that host's seconds.
inline constexpr double kReferenceUnitSeconds = 2.5e-6;

/// Runs `work` on the calling thread, pinned to `cpu` meanwhile, and
/// returns its wall seconds divided by the host's slowdown over it: that of
/// a SpeedProbe on `cpu` during the step when it timed enough units (a
/// step of a few hundred milliseconds or more), else that of 2000
/// reference units timed on the thread just before and just after it.
/// Sets `*raw_s` to the undivided seconds when given.
double NormalizedSeconds(const std::function<void()>& work, int cpu,
                         double* raw_s = nullptr);

/// One SCHED_IDLE thread per CPU, pinned there, running reference units
/// until stopped. Any runnable thread of the program preempts a probe at
/// once, so the probes take only the time the program leaves idle, and
/// they sample the speed of exactly the CPUs the program runs on, while it
/// runs. They also keep those CPUs out of their idle halt: a wakeup inside
/// the program then waits on the guest scheduler only, never on the
/// hypervisor rescheduling a halted virtual CPU. Their CPU time is theirs,
/// not the program's: Stop() returns it so callers can subtract it.
class SpeedProbe {
 public:
  /// With `window_s` > 0 the probes also keep each window of `window_s`
  /// seconds from `origin_s` (a Now() reading) apart, for WindowSlowdown.
  explicit SpeedProbe(const std::vector<int>& cpus, double origin_s = 0.0,
                      double window_s = 0.0);
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Stops and joins the probes; returns their total CPU seconds.
  double Stop();

  /// After Stop(): the slowdown over the probed period, the mean over
  /// CPUs of each CPU's mean unit time (leaving out preempted units) over
  /// kReferenceUnitSeconds. CPUs that finished fewer than a few hundred
  /// units are left out; 1 when none did.
  double Slowdown() const;
  /// The same over window `window` only; Slowdown() when the window holds
  /// too few units or the probe keeps no windows.
  double WindowSlowdown(size_t window) const;
  int64_t units() const;

 private:
  struct PerCpu;
  std::atomic<bool> stop_{false};
  double origin_s_ = 0.0;
  double window_s_ = 0.0;
  std::vector<std::unique_ptr<PerCpu>> per_cpu_;
  std::vector<std::thread> threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
