#include "layer_trace.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>
#include <deque>

#include "common.h"
#include "obs/trace_log.h"

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::map<std::string, LayerStat> g_stats;  // Guarded by g_mu.
thread_local LayerSpan* t_current = nullptr;

/// The matching obs::TraceSpan of each open LayerSpan on this thread,
/// innermost last. A TraceSpan can be neither copied nor moved, so it
/// cannot live in a LayerSpan that is itself built conditionally.
std::deque<std::optional<dlinf::obs::TraceSpan>>& TraceSpans() {
  thread_local std::deque<std::optional<dlinf::obs::TraceSpan>> spans;
  return spans;
}

}  // namespace

void EnableLayerTrace(double sample_rate) {
  {
    std::lock_guard<std::mutex> lock(g_mu);
    g_stats.clear();
  }
  dlinf::obs::TraceLog::Global().Start(sample_rate);
  g_enabled.store(true, std::memory_order_release);
}

void DisableLayerTrace() {
  g_enabled.store(false, std::memory_order_release);
  dlinf::obs::TraceLog::Global().Stop();
}

bool LayerTraceEnabled() { return g_enabled.load(std::memory_order_acquire); }

std::map<std::string, LayerStat> LayerStats() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_stats;
}

bool ExportLayerTrace(const std::string& path) {
  return dlinf::obs::TraceLog::Global().ExportChromeJson(path);
}

void PrintLayerTable() {
  std::printf("%-36s %8s %10s %10s %10s %12s\n", "span", "spans", "calls",
              "total_s", "self_s", "per_call_us");
  for (const auto& [name, stat] : LayerStats()) {
    std::printf("%-36s %8lld %10lld %10.4f %10.4f %12.3f\n", name.c_str(),
                static_cast<long long>(stat.spans),
                static_cast<long long>(stat.calls), stat.total_s, stat.self_s,
                1e6 * stat.PerCall());
  }
}

LayerSpan::LayerSpan(const char* name, int64_t calls)
    : name_(name), calls_(calls), active_(LayerTraceEnabled()) {
  if (!active_) return;
  parent_ = t_current;
  t_current = this;
  TraceSpans().emplace_back(std::in_place, name);
  start_s_ = Now();
}

LayerSpan::~LayerSpan() {
  if (!active_) return;
  const double duration = Now() - start_s_;
  TraceSpans().pop_back();
  t_current = parent_;
  if (parent_ != nullptr) parent_->child_s_ += duration;
  std::lock_guard<std::mutex> lock(g_mu);
  LayerStat& stat = g_stats[name_];
  ++stat.spans;
  stat.calls += calls_;
  stat.total_s += duration;
  stat.self_s += duration - child_s_;
}

}  // namespace perfbench
