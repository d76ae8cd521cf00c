#include "host_speed.h"

#include <sched.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common.h"

namespace perfbench {

namespace {

constexpr int kLanes = 64;          ///< Float lanes of the multiply-add chains.
constexpr int kFloatRounds = 96;    ///< Multiply-add rounds per unit.
constexpr int kHashRounds = 256;    ///< Dependent integer hash rounds.
constexpr int kChaseSteps = 256;    ///< Dependent loads in a 128 KiB table.
constexpr int kTableSlots = 1 << 15;
constexpr int kBracketUnits = 2000;  ///< Units timed on each side of a step.
constexpr int64_t kMinUnitsPerCpu = 200;
/// Units slower than this multiple of the median were preempted or
/// interrupted: their time is the program's, not the unit's.
constexpr double kPreemptedFactor = 2.5;

volatile uint64_t g_seed = 0x2545f4914f6cdd1dull;
volatile uint64_t g_sink = 0;

/// The chase table: a single cycle through every slot.
const uint32_t* ChaseTable() {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> order(kTableSlots);
    for (uint32_t i = 0; i < kTableSlots; ++i) order[i] = i;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (uint32_t i = kTableSlots - 1; i > 0; --i) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    std::vector<uint32_t> next(kTableSlots);
    for (uint32_t i = 0; i < kTableSlots; ++i) next[order[i]] = order[(i + 1) % kTableSlots];
    return next;
  }();
  return table.data();
}

/// The float part of a unit: kLanes independent multiply-add chains, as
/// a GEMM microkernel keeps them. With AVX2 and FMA, as the program's
/// kernels use them when the CPU has them.
#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) void MultiplyAddAvx2(float* lanes) {
  __m256 acc[kLanes / 8];
  for (int v = 0; v < kLanes / 8; ++v) acc[v] = _mm256_loadu_ps(lanes + 8 * v);
  const __m256 scale = _mm256_set1_ps(0.999f);
  const __m256 bias = _mm256_set1_ps(0.5f);
  for (int r = 0; r < kFloatRounds; ++r) {
    for (int v = 0; v < kLanes / 8; ++v) acc[v] = _mm256_fmadd_ps(acc[v], scale, bias);
  }
  for (int v = 0; v < kLanes / 8; ++v) _mm256_storeu_ps(lanes + 8 * v, acc[v]);
}

bool HasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return has;
}
#endif

void MultiplyAdd(float* lanes) {
#if defined(__x86_64__)
  if (HasAvx2()) {
    MultiplyAddAvx2(lanes);
    return;
  }
#endif
  for (int r = 0; r < kFloatRounds; ++r) {
    for (int j = 0; j < kLanes; ++j) lanes[j] = lanes[j] * 0.999f + 0.5f;
  }
}

/// One reference unit: a few microseconds of the same work on every call.
void RunUnit(const uint32_t* table) {
  const uint64_t seed = g_seed;
  float lanes[kLanes];
  for (int j = 0; j < kLanes; ++j) lanes[j] = static_cast<float>((seed >> (j % 60)) & 7);
  MultiplyAdd(lanes);
  uint64_t h = seed;
  for (int r = 0; r < kHashRounds; ++r) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
  }
  // The walk goes on where the thread's last unit stopped, so successive
  // units cover the whole table.
  thread_local uint32_t slot = static_cast<uint32_t>(seed % kTableSlots);
  for (int r = 0; r < kChaseSteps; ++r) slot = table[slot];
  float sum = 0.0f;
  for (int j = 0; j < kLanes; ++j) sum += lanes[j];
  g_sink = g_sink + h + slot + static_cast<uint64_t>(sum);
}

/// Unit times in log-spaced bins (1% apart), so a probe can run for a
/// whole phase without allocating.
class UnitHistogram {
 public:
  void Add(double seconds) {
    const double bin = std::log(std::max(seconds, kLow) / kLow) / std::log(kRatio);
    ++counts_[std::min<size_t>(kBins - 1, static_cast<size_t>(bin))];
    ++total_;
  }
  void Merge(const UnitHistogram& other) {
    for (size_t i = 0; i < kBins; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  int64_t total() const { return total_; }

  /// Mean unit time over the units within kPreemptedFactor of the median.
  double TrimmedMean() const {
    if (total_ == 0) return 0.0;
    int64_t seen = 0;
    size_t median_bin = 0;
    for (; median_bin < kBins; ++median_bin) {
      seen += counts_[median_bin];
      if (2 * seen >= total_) break;
    }
    const double limit = kPreemptedFactor * Center(median_bin);
    double sum = 0.0;
    int64_t kept = 0;
    for (size_t i = 0; i < kBins && Center(i) <= limit; ++i) {
      sum += Center(i) * static_cast<double>(counts_[i]);
      kept += counts_[i];
    }
    return kept > 0 ? sum / static_cast<double>(kept) : 0.0;
  }

 private:
  static constexpr double kLow = 1e-7;
  static constexpr double kRatio = 1.01;
  static constexpr size_t kBins = 1400;  ///< Up to ~0.1 s.
  static double Center(size_t bin) {
    return kLow * std::pow(kRatio, static_cast<double>(bin) + 0.5);
  }
  std::vector<int64_t> counts_ = std::vector<int64_t>(kBins, 0);
  int64_t total_ = 0;
};

/// Times `units` units back to back into `histogram`, or until `stop`.
/// With `windows`, each unit also goes to the window of `window_s` seconds
/// from `origin_s` it ended in.
void TimeUnits(int64_t units, const std::atomic<bool>* stop,
               UnitHistogram* histogram,
               std::vector<UnitHistogram>* windows = nullptr,
               double origin_s = 0.0, double window_s = 0.0) {
  const uint32_t* table = ChaseTable();
  double last = Now();
  for (int64_t i = 0; i < units; ++i) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
    RunUnit(table);
    const double now = Now();
    histogram->Add(now - last);
    if (windows != nullptr && now > origin_s) {
      const size_t window = static_cast<size_t>((now - origin_s) / window_s);
      if (windows->size() <= window) windows->resize(window + 1);
      (*windows)[window].Add(now - last);
    }
    last = now;
  }
}

double SlowdownOf(const UnitHistogram& histogram) {
  return histogram.TrimmedMean() / kReferenceUnitSeconds;
}

/// Runs `units` units back to back on the calling thread: the host's
/// slowdown right now, above 1 when it runs slower than the reference.
double MeasureSlowdown(int units) {
  UnitHistogram histogram;
  TimeUnits(units, nullptr, &histogram);
  return SlowdownOf(histogram);
}

}  // namespace

double NormalizedSeconds(const std::function<void()>& work, int cpu,
                         double* raw_s) {
  cpu_set_t affinity;
  const bool restore = sched_getaffinity(0, sizeof(affinity), &affinity) == 0;
  PinToCpus({cpu});
  const double before = MeasureSlowdown(kBracketUnits);
  SpeedProbe probe({cpu});
  const double start = Now();
  work();
  const double seconds = Now() - start;
  probe.Stop();
  const double after = MeasureSlowdown(kBracketUnits);
  if (restore) sched_setaffinity(0, sizeof(affinity), &affinity);
  if (raw_s != nullptr) *raw_s = seconds;
  const double slowdown = probe.units() >= kMinUnitsPerCpu
                              ? probe.Slowdown()
                              : 0.5 * (before + after);
  return seconds / slowdown;
}

struct SpeedProbe::PerCpu {
  UnitHistogram units;
  std::vector<UnitHistogram> windows;
  double cpu_s = 0.0;
};

SpeedProbe::SpeedProbe(const std::vector<int>& cpus, double origin_s,
                       double window_s)
    : origin_s_(origin_s), window_s_(window_s) {
  ChaseTable();  // Built before any probe times a unit.
  for (const int cpu : cpus) {
    per_cpu_.push_back(std::make_unique<PerCpu>());
    PerCpu* slot = per_cpu_.back().get();
    threads_.emplace_back([this, cpu, slot] {
      PinToCpus({cpu});
      sched_param param{};
      sched_setscheduler(0, SCHED_IDLE, &param);
      const double start = ThreadCpuSeconds();
      TimeUnits(std::numeric_limits<int64_t>::max(), &stop_, &slot->units,
                window_s_ > 0.0 ? &slot->windows : nullptr, origin_s_, window_s_);
      slot->cpu_s = ThreadCpuSeconds() - start;
    });
  }
}

SpeedProbe::~SpeedProbe() { Stop(); }

double SpeedProbe::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  double cpu_s = 0.0;
  for (const auto& slot : per_cpu_) cpu_s += slot->cpu_s;
  return cpu_s;
}

double SpeedProbe::Slowdown() const {
  double sum = 0.0;
  int counted = 0;
  for (const auto& slot : per_cpu_) {
    if (slot->units.total() < kMinUnitsPerCpu) continue;
    sum += SlowdownOf(slot->units);
    ++counted;
  }
  return counted > 0 ? sum / counted : 1.0;
}

double SpeedProbe::WindowSlowdown(size_t window) const {
  double sum = 0.0;
  int counted = 0;
  for (const auto& slot : per_cpu_) {
    if (window >= slot->windows.size() ||
        slot->windows[window].total() < kMinUnitsPerCpu) {
      continue;
    }
    sum += SlowdownOf(slot->windows[window]);
    ++counted;
  }
  return counted > 0 ? sum / counted : Slowdown();
}

int64_t SpeedProbe::units() const {
  int64_t units = 0;
  for (const auto& slot : per_cpu_) units += slot->units.total();
  return units;
}

}  // namespace perfbench
