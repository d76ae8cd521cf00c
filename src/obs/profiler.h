#ifndef DLINF_OBS_PROFILER_H_
#define DLINF_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

/// \file
/// In-process sampling CPU profiler (DESIGN.md §15).
///
/// While armed, every registered thread owns a POSIX per-thread CPU-time
/// timer (`timer_create` on the clock from `pthread_getcpuclockid`) that
/// delivers SIGPROF to that thread at the configured rate. The handler —
/// written to the async-signal-safety rules in DESIGN.md §15 — captures a
/// `backtrace()` stack into the thread's pre-allocated lock-free ring
/// buffer. Because the timers count *CPU* time, idle threads (parked
/// workers, the epoll loop in `epoll_wait`) generate no samples and no
/// wakeups: the profile is a picture of where cycles go, not where threads
/// sleep.
///
/// Symbolization is lazy and always off-signal: the exporters resolve
/// program counters through `dladdr` + `abi::__cxa_demangle` (executables
/// link with `ENABLE_EXPORTS` so their own symbols resolve) and aggregate
/// identical stacks. Two export formats:
///  - **Folded** ("collapsed stack"): one line per unique stack,
///    `thread;outer;...;leaf count` — feed directly to flamegraph.pl or
///    speedscope.
///  - **Chrome trace events**: each aggregated stack becomes instant events
///    on a `cpu-profile` process track, mergeable with the TraceLog span
///    timeline (`ExportCombinedChromeJson`) so spans and samples land in one
///    Perfetto view.
///
/// Cost contract (bench-gated by bench/profiler_overhead.cc):
///  - **Disarmed** (the default): no timers exist, no signals fire, and
///    registered threads pay nothing on any hot path. The only residual is
///    ~100 bytes of registry state per thread; sample rings are not even
///    allocated until the first Start().
///  - **Armed at 99 Hz**: each thread takes ~99 signal deliveries per
///    CPU-second; one delivery is a `backtrace()` walk (~1-3 us). The gate
///    holds `pipeline.train.dlinfma` and the serving path within 5%.
///
/// Threading: Start/Stop/exporters serialize on an internal control mutex
/// and may be called from any thread. Stop() quiesces: it disarms, deletes
/// every timer, then waits until no handler is still in flight, so the
/// rings are stable for export when it returns. Threads register via
/// `RegisterCurrentThread` (idempotent; also names the thread for trace
/// exports); threads created before Start are picked up at Start, threads
/// registering while armed are timer-armed immediately.

namespace dlinf {
namespace obs {
namespace prof {

namespace internal {
extern std::atomic<bool> g_profiling_armed;
}  // namespace internal

/// True while CpuProfiler::Global().Start() is in effect. One relaxed load.
inline bool ProfilingArmed() {
  return internal::g_profiling_armed.load(std::memory_order_relaxed);
}

/// Names the calling thread (pthread_setname_np, truncated to the kernel's
/// 15-char limit; full name kept for exports) and registers it for SIGPROF
/// sampling. Idempotent — re-registering renames. Only registered threads
/// are sampled; an unregistered thread contributes no samples. Also
/// attaches the name to the thread's TraceLog ring so Chrome exports label
/// the track (thread_name metadata).
void RegisterCurrentThread(const std::string& name);

/// The process-wide sampling profiler.
class CpuProfiler {
 public:
  struct Options {
    int hz = 99;  ///< Samples per CPU-second per thread, clamped to [1,1000].
  };

  static constexpr int kMaxFrames = 48;       ///< Deepest captured stack.
  static constexpr int kRingCapacity = 4096;  ///< Samples kept per thread.

  static CpuProfiler& Global();

  /// Arms sampling on every registered thread. False (reason in *error)
  /// when already armed or when the signal/timer setup fails. Clears the
  /// previous capture.
  bool Start(const Options& options, std::string* error = nullptr);
  bool Start() { return Start(Options()); }

  /// Disarms, deletes all timers and waits for in-flight handlers to drain.
  /// Captured samples stay exportable until the next Start. Idempotent.
  void Stop();

  bool armed() const { return ProfilingArmed(); }
  int hz() const;

  /// Samples captured in the current (or last) capture, across threads.
  int64_t sample_count() const;

  /// Samples that overwrote an older ring slot (capture longer than the
  /// ring; the export keeps the newest kRingCapacity per thread).
  int64_t dropped_samples() const;

  /// Collapsed-stack text: `thread;outer;...;leaf count\n` per unique
  /// stack, symbolized via dladdr. Safe to call while armed (a sample
  /// being written concurrently may be skipped).
  std::string ExportFolded() const;

  /// Standalone Chrome trace JSON of the samples only.
  std::string ExportChromeJson() const;

  /// Appends the samples as Chrome trace event objects (no envelope) with
  /// timestamps relative to `origin_seconds` — used by
  /// ExportCombinedChromeJson to merge onto the TraceLog span timeline.
  /// Pass a non-positive origin to use the profiler's own capture start.
  void AppendChromeEvents(std::string* out, bool* first,
                          double origin_seconds = 0.0) const;

 private:
  CpuProfiler() = default;
};

/// One JSON timeline holding both the TraceLog spans (pid 1) and the
/// profiler samples (pid 2), on a shared time origin.
std::string ExportCombinedChromeJson();

/// Orchestrates on-demand `/profilez` captures without blocking the HTTP
/// event loop: Begin() spawns a capture thread that arms the profiler,
/// sleeps `seconds` (cancellably), stops, exports, and answers through the
/// supplied callback. One capture at a time per process.
class CaptureManager {
 public:
  /// status / content-type / body, exactly once per Begin.
  using Respond =
      std::function<void(int status, const std::string& content_type,
                         const std::string& body)>;

  static CaptureManager& Global();

  /// Starts an asynchronous capture. `seconds` clamped to [0.1, 60],
  /// `hz` to [1, 1000]. `chrome` selects the Chrome-trace merge export
  /// instead of folded text. False when a capture is already running or the
  /// profiler is armed by someone else (the caller should answer 409);
  /// `respond` is NOT called in that case.
  bool Begin(double seconds, int hz, bool chrome, Respond respond);

  /// Cancels any in-flight capture (it responds early with the samples
  /// gathered so far) and joins the capture thread. Servers call this
  /// before stopping so no capture outlives them. Idempotent.
  void CancelAndJoin();

 private:
  CaptureManager() = default;
};

}  // namespace prof
}  // namespace obs
}  // namespace dlinf

#endif  // DLINF_OBS_PROFILER_H_
