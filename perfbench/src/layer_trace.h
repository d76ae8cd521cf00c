#ifndef PERFBENCH_LAYER_TRACE_H_
#define PERFBENCH_LAYER_TRACE_H_

#include <cstdint>
#include <map>
#include <string>

/// \file
/// Spans the benchmark records around its calls into each layer's public
/// functions during the traced run. Every span goes two ways: into the
/// program's own trace recorder (obs::TraceLog, exported as Chrome JSON at
/// the end of the run) and into an in-memory table keyed by span name that
/// keeps count, total time and self time. Self time is the span's duration
/// minus the time of the spans nested directly inside it on the same
/// thread, so a parent span never counts its children twice.
///
/// Disabled (the untraced run), a LayerSpan reads one flag and does nothing
/// else.

namespace perfbench {

struct LayerStat {
  int64_t spans = 0;    ///< Spans closed under this name.
  int64_t calls = 0;    ///< Calls they covered (a span may time a loop).
  double total_s = 0.0;
  double self_s = 0.0;

  double PerCall() const { return calls > 0 ? total_s / calls : 0.0; }
};

/// Turns span recording on (arms obs::TraceLog at `sample_rate` for the
/// program's own per-request spans) or off.
void EnableLayerTrace(double sample_rate);
void DisableLayerTrace();
bool LayerTraceEnabled();

/// Snapshot of every span name's stats so far.
std::map<std::string, LayerStat> LayerStats();

/// Writes the recorded timeline as Chrome trace-event JSON (Perfetto).
bool ExportLayerTrace(const std::string& path);

/// Prints one line per span name: spans, calls, total, self, per call.
void PrintLayerTable();

/// RAII span. `name` must be a string literal. `calls` is how many calls
/// into the layer the span covers (for loops over many small calls).
class LayerSpan {
 public:
  explicit LayerSpan(const char* name, int64_t calls = 1);
  ~LayerSpan();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

  /// Adjusts the covered call count after the fact (e.g. a loop that ran
  /// until a deadline).
  void set_calls(int64_t calls) { calls_ = calls; }

 private:
  const char* name_;
  int64_t calls_;
  bool active_;
  double start_s_ = 0.0;
  double child_s_ = 0.0;
  LayerSpan* parent_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_TRACE_H_
