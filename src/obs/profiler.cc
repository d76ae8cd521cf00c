#include "obs/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/trace_log.h"

// SIGEV_THREAD_ID and its sigevent field are Linux-specific; older glibc
// headers spell the field through the union only.
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace dlinf {
namespace obs {
namespace prof {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One captured stack. POD so the signal handler's write is a plain memcpy
/// of pointers — no construction, no allocation.
struct Sample {
  double ts_s = 0.0;
  int32_t depth = 0;
  void* pcs[CpuProfiler::kMaxFrames];
};

/// Per-thread profiler state. The handler touches only `slots` (via the
/// thread-local pointer) and `head`; everything else is control-plane,
/// guarded by ControlMutex().
struct ThreadEntry {
  uint32_t tid = 0;            ///< OS tid (gettid), for SIGEV_THREAD_ID.
  std::string name;            ///< RegisterCurrentThread name ("" = unnamed).
  bool alive = true;           ///< False once the owning thread exited.
  uint64_t generation = 0;     ///< Capture generation the ring belongs to.
  timer_t timer{};             ///< Valid while timer_armed.
  bool timer_armed = false;
  clockid_t cpu_clock{};       ///< pthread_getcpuclockid result.
  bool has_cpu_clock = false;
  std::atomic<uint64_t> head{0};        ///< Samples written this generation.
  std::atomic<Sample*> slots{nullptr};  ///< kRingCapacity once allocated.
};

std::atomic<uint64_t> g_generation{0};
std::atomic<int64_t> g_samples{0};
std::atomic<int64_t> g_dropped{0};
std::atomic<int> g_in_handler{0};
std::atomic<int> g_hz{0};
std::atomic<double> g_origin_seconds{0.0};

thread_local ThreadEntry* t_entry = nullptr;

/// One mutex for the registry and the arm/disarm lifecycle; the signal
/// handler never takes it (it only reads t_entry and atomics).
std::mutex& ControlMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

/// Leaked like the trace rings: a thread may exit while its samples are
/// still exportable, and t_entry must stay valid for the handler until the
/// thread's last instruction.
std::vector<ThreadEntry*>& Entries() {
  static std::vector<ThreadEntry*>* entries = new std::vector<ThreadEntry*>();
  return *entries;
}

void SigprofHandler(int, siginfo_t*, void*);

/// Deletes the timer; pending-but-undelivered signals may still fire after
/// this, which is why the handler re-checks the armed flag before writing.
void DisarmTimerLocked(ThreadEntry* entry) {
  if (!entry->timer_armed) return;
  timer_delete(entry->timer);
  entry->timer_armed = false;
}

/// Creates + arms the per-thread CPU-time timer. Caller holds ControlMutex
/// and has ensured `slots` is allocated.
bool ArmTimerLocked(ThreadEntry* entry, int hz, std::string* error) {
  if (entry->timer_armed || !entry->has_cpu_clock) return true;
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = static_cast<pid_t>(entry->tid);
  timer_t timer{};
  if (timer_create(entry->cpu_clock, &sev, &timer) != 0) {
    // A thread can exit between registration and Start; its CPU clock is
    // then gone. Not an error — it simply contributes no samples.
    if (error != nullptr && errno != EINVAL && errno != ESRCH) {
      *error = std::string("timer_create: ") + strerror(errno);
      return false;
    }
    return true;
  }
  const long interval_ns = 1000000000L / hz;
  itimerspec spec{};
  spec.it_interval.tv_sec = interval_ns / 1000000000L;
  spec.it_interval.tv_nsec = interval_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(timer, 0, &spec, nullptr) != 0) {
    timer_delete(timer);
    if (error != nullptr) {
      *error = std::string("timer_settime: ") + strerror(errno);
    }
    return false;
  }
  entry->timer = timer;
  entry->timer_armed = true;
  return true;
}

void EnsureSlotsLocked(ThreadEntry* entry) {
  if (entry->slots.load(std::memory_order_relaxed) == nullptr) {
    entry->slots.store(new Sample[CpuProfiler::kRingCapacity],
                       std::memory_order_release);
  }
  entry->generation = g_generation.load(std::memory_order_relaxed);
  entry->head.store(0, std::memory_order_relaxed);
}

/// Unregisters on thread exit: the timer must die with the thread (its CPU
/// clock does), but the entry and its samples stay exportable.
struct ThreadExitGuard {
  ~ThreadExitGuard() {
    std::lock_guard<std::mutex> lock(ControlMutex());
    if (t_entry != nullptr) {
      DisarmTimerLocked(t_entry);
      t_entry->alive = false;
      t_entry = nullptr;
    }
  }
};

void SigprofHandler(int, siginfo_t*, void*) {
  // Async-signal-safe: atomics, TLS reads, clock_gettime, backtrace (warmed
  // up off-signal in Start so its lazy libgcc init never runs here).
  const int saved_errno = errno;
  g_in_handler.fetch_add(1, std::memory_order_acquire);
  if (internal::g_profiling_armed.load(std::memory_order_relaxed)) {
    ThreadEntry* entry = t_entry;
    Sample* slots =
        entry != nullptr ? entry->slots.load(std::memory_order_acquire)
                         : nullptr;
    if (slots != nullptr) {
      const uint64_t head = entry->head.load(std::memory_order_relaxed);
      Sample& sample =
          slots[head % static_cast<uint64_t>(CpuProfiler::kRingCapacity)];
      timespec now{};
      clock_gettime(CLOCK_MONOTONIC, &now);
      sample.ts_s = static_cast<double>(now.tv_sec) +
                    1e-9 * static_cast<double>(now.tv_nsec);
      sample.depth = backtrace(sample.pcs, CpuProfiler::kMaxFrames);
      entry->head.store(head + 1, std::memory_order_release);
      g_samples.fetch_add(1, std::memory_order_relaxed);
      if (head >= static_cast<uint64_t>(CpuProfiler::kRingCapacity)) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  g_in_handler.fetch_sub(1, std::memory_order_release);
  errno = saved_errno;
}

/// dladdr + demangle, with the argument list stripped for folded
/// readability. Falls back to the raw address.
std::string SymbolizePc(void* pc) {
  Dl_info info{};
  if (dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    std::string out;
    int status = -1;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      out = demangled;
    } else {
      out = info.dli_sname;
    }
    std::free(demangled);
    const size_t paren = out.find('(');
    if (paren != std::string::npos && paren > 0) out.resize(paren);
    // ';' is the folded-format frame separator; symbols must not smuggle it.
    std::replace(out.begin(), out.end(), ';', ':');
    return out;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%p", pc);
  return buffer;
}

/// Identifies the handler's own frames so exports can trim them: the stack
/// as captured is [SigprofHandler, __restore_rt (signal trampoline),
/// interrupted-leaf, ...].
bool IsHandlerFrame(void* pc) {
  Dl_info info{};
  if (dladdr(pc, &info) == 0) return false;
  if (info.dli_saddr == reinterpret_cast<void*>(&SigprofHandler)) return true;
  return info.dli_sname != nullptr &&
         std::strcmp(info.dli_sname, "__restore_rt") == 0;
}

/// Copies out every sample of the current generation. Caller holds
/// ControlMutex; safe while armed (a slot being overwritten concurrently
/// yields one bogus stack at worst, and exports normally run after Stop).
struct ThreadSamples {
  uint32_t tid = 0;
  std::string name;
  std::vector<Sample> samples;
};

std::vector<ThreadSamples> CollectLocked() {
  std::vector<ThreadSamples> out;
  const uint64_t generation = g_generation.load(std::memory_order_relaxed);
  for (ThreadEntry* entry : Entries()) {
    if (entry->generation != generation) continue;
    Sample* slots = entry->slots.load(std::memory_order_acquire);
    if (slots == nullptr) continue;
    const uint64_t capacity =
        static_cast<uint64_t>(CpuProfiler::kRingCapacity);
    const uint64_t head = entry->head.load(std::memory_order_acquire);
    const uint64_t count = std::min(head, capacity);
    if (count == 0) continue;
    ThreadSamples thread;
    thread.tid = entry->tid;
    thread.name = entry->name.empty()
                      ? "thread-" + std::to_string(entry->tid)
                      : entry->name;
    thread.samples.reserve(count);
    const uint64_t begin = head - count;
    for (uint64_t i = 0; i < count; ++i) {
      const Sample& sample = slots[(begin + i) % capacity];
      if (sample.depth <= 0 ||
          sample.depth > CpuProfiler::kMaxFrames) {
        continue;  // Torn concurrent write; drop defensively.
      }
      thread.samples.push_back(sample);
    }
    out.push_back(std::move(thread));
  }
  return out;
}

/// Leading handler/trampoline frames to skip for `sample`.
int TrimFrames(const Sample& sample) {
  int start = 0;
  const int scan = std::min<int>(sample.depth, 4);
  for (int i = 0; i < scan; ++i) {
    if (IsHandlerFrame(sample.pcs[i])) start = i + 1;
  }
  return start;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back('?');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Memoized symbolization across one export: profiles repeat the same hot
/// frames thousands of times.
class SymbolCache {
 public:
  const std::string& Name(void* pc) {
    auto it = cache_.find(pc);
    if (it == cache_.end()) {
      it = cache_.emplace(pc, SymbolizePc(pc)).first;
    }
    return it->second;
  }

 private:
  std::unordered_map<void*, std::string> cache_;
};

}  // namespace

namespace internal {
std::atomic<bool> g_profiling_armed{false};
}  // namespace internal

void RegisterCurrentThread(const std::string& name) {
  // Names the thread everywhere at once: the kernel (top/gdb), the trace
  // ring (Chrome thread_name metadata), and the profiler registry.
  SetCurrentThreadName(name);
  thread_local ThreadExitGuard exit_guard;
  (void)exit_guard;
  std::lock_guard<std::mutex> lock(ControlMutex());
  ThreadEntry* entry = t_entry;
  if (entry == nullptr) {
    entry = new ThreadEntry();
    entry->tid = static_cast<uint32_t>(syscall(SYS_gettid));
    entry->has_cpu_clock =
        pthread_getcpuclockid(pthread_self(), &entry->cpu_clock) == 0;
    Entries().push_back(entry);
    t_entry = entry;
  }
  entry->name = name;
  if (internal::g_profiling_armed.load(std::memory_order_relaxed)) {
    // Late joiner while a capture runs: sample it from now on.
    EnsureSlotsLocked(entry);
    ArmTimerLocked(entry, g_hz.load(std::memory_order_relaxed), nullptr);
  }
}

CpuProfiler& CpuProfiler::Global() {
  static CpuProfiler* profiler = new CpuProfiler();
  return *profiler;
}

bool CpuProfiler::Start(const Options& options, std::string* error) {
  std::lock_guard<std::mutex> lock(ControlMutex());
  if (internal::g_profiling_armed.load(std::memory_order_relaxed)) {
    if (error != nullptr) *error = "profiler already armed";
    return false;
  }
  const int hz = std::clamp(options.hz, 1, 1000);

  struct sigaction action{};
  action.sa_sigaction = &SigprofHandler;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) {
    if (error != nullptr) {
      *error = std::string("sigaction: ") + strerror(errno);
    }
    return false;
  }
  // backtrace() lazily dlopens libgcc (which allocates) on its first call —
  // force that here, off-signal, so the handler never hits it.
  void* warmup[4];
  backtrace(warmup, 4);

  g_generation.fetch_add(1, std::memory_order_relaxed);
  g_samples.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_hz.store(hz, std::memory_order_relaxed);
  g_origin_seconds.store(NowSeconds(), std::memory_order_relaxed);
  internal::g_profiling_armed.store(true, std::memory_order_release);
  for (ThreadEntry* entry : Entries()) {
    if (!entry->alive) continue;
    EnsureSlotsLocked(entry);
    if (!ArmTimerLocked(entry, hz, error)) {
      // Roll back to disarmed rather than half-armed.
      for (ThreadEntry* armed : Entries()) DisarmTimerLocked(armed);
      internal::g_profiling_armed.store(false, std::memory_order_release);
      return false;
    }
  }
  return true;
}

void CpuProfiler::Stop() {
  std::lock_guard<std::mutex> lock(ControlMutex());
  if (!internal::g_profiling_armed.exchange(false,
                                            std::memory_order_acq_rel)) {
    return;
  }
  for (ThreadEntry* entry : Entries()) DisarmTimerLocked(entry);
  // Quiesce: a signal already delivered may still be mid-handler; once
  // g_in_handler drains, no handler will write again (the armed re-check
  // rejects late deliveries of pending signals).
  while (g_in_handler.load(std::memory_order_acquire) > 0) {
    std::this_thread::yield();
  }
}

int CpuProfiler::hz() const { return g_hz.load(std::memory_order_relaxed); }

int64_t CpuProfiler::sample_count() const {
  return g_samples.load(std::memory_order_relaxed);
}

int64_t CpuProfiler::dropped_samples() const {
  return g_dropped.load(std::memory_order_relaxed);
}

std::string CpuProfiler::ExportFolded() const {
  std::lock_guard<std::mutex> lock(ControlMutex());
  const std::vector<ThreadSamples> threads = CollectLocked();
  SymbolCache symbols;
  std::string out;
  for (const ThreadSamples& thread : threads) {
    // Aggregate identical stacks: key on the raw pc sequence, symbolize
    // each unique stack once.
    std::map<std::vector<void*>, int64_t> stacks;
    for (const Sample& sample : thread.samples) {
      const int start = TrimFrames(sample);
      std::vector<void*> key(sample.pcs + start, sample.pcs + sample.depth);
      if (key.empty()) continue;
      ++stacks[key];
    }
    for (const auto& [pcs, count] : stacks) {
      std::string line = thread.name;
      // backtrace() is leaf-first; folded format wants root-first.
      for (auto it = pcs.rbegin(); it != pcs.rend(); ++it) {
        line += ';';
        // Non-leaf frames hold return addresses: step back one byte so the
        // call site's symbol resolves, not the instruction after it.
        void* pc = *it;
        const bool leaf = (it + 1 == pcs.rend());
        if (!leaf) pc = static_cast<char*>(pc) - 1;
        line += symbols.Name(pc);
      }
      line += ' ';
      line += std::to_string(count);
      line += '\n';
      out += line;
    }
  }
  return out;
}

void CpuProfiler::AppendChromeEvents(std::string* out, bool* first,
                                     double origin_seconds) const {
  std::lock_guard<std::mutex> lock(ControlMutex());
  const std::vector<ThreadSamples> threads = CollectLocked();
  const double origin =
      origin_seconds > 0.0 ? origin_seconds
                           : g_origin_seconds.load(std::memory_order_relaxed);
  SymbolCache symbols;
  char buffer[128];
  // pid 2 is the synthetic "cpu-profile" process; pid 1 is the span
  // timeline. Metadata names the process and each sampled thread.
  if (!threads.empty()) {
    if (!*first) *out += ",\n";
    *first = false;
    *out +=
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
        "\"args\":{\"name\":\"cpu-profile\"}}";
  }
  for (const ThreadSamples& thread : threads) {
    *out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":" +
            std::to_string(thread.tid) + ",\"args\":{\"name\":\"" +
            JsonEscape(thread.name) + "\"}}";
    for (const Sample& sample : thread.samples) {
      const int start = TrimFrames(sample);
      if (start >= sample.depth) continue;
      std::string stack;
      for (int i = sample.depth - 1; i >= start; --i) {
        void* pc = sample.pcs[i];
        if (i != start) pc = static_cast<char*>(pc) - 1;
        if (!stack.empty()) stack += ';';
        stack += symbols.Name(pc);
      }
      const std::string& leaf = symbols.Name(sample.pcs[start]);
      *out += ",\n{\"name\":\"" + JsonEscape(leaf) +
              "\",\"ph\":\"i\",\"s\":\"t\",";
      std::snprintf(buffer, sizeof(buffer), "\"ts\":%.3f,\"pid\":2,\"tid\":%u,",
                    (sample.ts_s - origin) * 1e6, thread.tid);
      *out += buffer;
      *out += "\"args\":{\"stack\":\"" + JsonEscape(stack) + "\"}}";
    }
  }
}

std::string CpuProfiler::ExportChromeJson() const {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  AppendChromeEvents(&out, &first);
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string ExportCombinedChromeJson() {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  TraceLog::Global().AppendChromeEvents(&out, &first);
  // Align the sample clock with the span clock when a trace recording
  // established an origin; otherwise fall back to the capture start.
  CpuProfiler::Global().AppendChromeEvents(
      &out, &first, TraceLog::Global().origin_seconds());
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

// --- CaptureManager ---------------------------------------------------------

namespace {

struct CaptureState {
  std::mutex mu;
  std::condition_variable cv;
  std::thread worker;
  bool running = false;
  bool cancel = false;
};

CaptureState& State() {
  static CaptureState* state = new CaptureState();
  return *state;
}

}  // namespace

CaptureManager& CaptureManager::Global() {
  static CaptureManager* manager = new CaptureManager();
  return *manager;
}

bool CaptureManager::Begin(double seconds, int hz, bool chrome,
                           Respond respond) {
  seconds = std::clamp(seconds, 0.1, 60.0);
  hz = std::clamp(hz, 1, 1000);
  CaptureState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.running) return false;
  // A --profile-out style capture owns the profiler for the whole run;
  // /profilez yields to it rather than stealing its samples.
  if (ProfilingArmed()) return false;
  // The previous capture (if any) has finished its lambda body; joining
  // here cannot deadlock because it no longer needs state.mu.
  if (state.worker.joinable()) state.worker.join();
  state.running = true;
  state.cancel = false;
  state.worker = std::thread([seconds, hz, chrome,
                              respond = std::move(respond), &state] {
    std::string error;
    CpuProfiler::Options options;
    options.hz = hz;
    if (!CpuProfiler::Global().Start(options, &error)) {
      respond(503, "text/plain", "profiler start failed: " + error + "\n");
    } else {
      {
        std::unique_lock<std::mutex> wait_lock(state.mu);
        state.cv.wait_for(wait_lock,
                          std::chrono::duration<double>(seconds),
                          [&state] { return state.cancel; });
      }
      CpuProfiler::Global().Stop();
      if (chrome) {
        respond(200, "application/json", ExportCombinedChromeJson());
      } else {
        respond(200, "text/plain", CpuProfiler::Global().ExportFolded());
      }
    }
    std::lock_guard<std::mutex> done_lock(state.mu);
    state.running = false;
  });
  return true;
}

void CaptureManager::CancelAndJoin() {
  CaptureState& state = State();
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.cancel = true;
    if (state.worker.joinable()) worker = std::move(state.worker);
  }
  state.cv.notify_all();
  if (worker.joinable()) worker.join();
}

}  // namespace prof
}  // namespace obs
}  // namespace dlinf
