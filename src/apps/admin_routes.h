#ifndef DLINF_APPS_ADMIN_ROUTES_H_
#define DLINF_APPS_ADMIN_ROUTES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apps/http_conn.h"

/// \file
/// The one admin surface (DESIGN.md §10), mounted by every HTTP server in
/// the repo — the query engine, the ingest server and the standalone
/// telemetry server. A server answers its own paths first and hands
/// everything else to `AdminRoutes::Handle`, which serves:
///
///   GET /metrics  Prometheus text exposition (format 0.0.4) of the global
///                 MetricsRegistry: counters, gauges, histograms with
///                 cumulative `_bucket{le=...}` series plus `_sum`/`_count`,
///                 and span aggregates as labeled series.
///   GET /healthz  {"status":"ok"|"degraded","generation":N,"detail":"..."}
///                 plus a "shards" list when the provider fills one. 200
///                 while healthy, 503 while the health provider reports
///                 degradation (e.g. a rolled-back bundle push, until the
///                 next clean swap).
///   GET /varz     MetricsRegistry::SnapshotJson() (the same JSON the
///                 --metrics flag dumps).
///   GET /tracez   TraceLog::ExportChromeJson() — recent sampled trace
///                 events, loadable in Perfetto / chrome://tracing.
///   GET /profilez On-demand CPU-profile capture (DESIGN.md §15):
///                 `?seconds=N&hz=H` arms the sampling profiler, captures
///                 for N seconds (default 2, 99 Hz) on a dedicated thread —
///                 the event loop keeps answering other requests meanwhile —
///                 and returns collapsed-stack text ready for
///                 flamegraph.pl. `&format=chrome` returns the samples
///                 merged with the TraceLog spans as one Chrome-trace
///                 timeline. 409 while another capture is running.
///
/// Every handler is a fast thread-safe snapshot call answered inline on the
/// loop thread, so a stalled client can never delay a health scrape.

namespace dlinf {
namespace apps {

class BundleManager;

/// Health snapshot rendered by /healthz.
struct HealthStatus {
  struct Shard {
    uint64_t generation = 0;
    bool degraded = false;
  };

  bool ok = true;
  uint64_t generation = 0;
  std::string detail;  ///< Short human-readable reason when !ok.
  std::vector<Shard> shards;  ///< Per-shard view; empty when unsharded.
};

using HealthProvider = std::function<HealthStatus()>;

class AdminRoutes {
 public:
  /// `health` is called per /healthz request; empty means always ok,
  /// generation 0.
  explicit AdminRoutes(HealthProvider health = nullptr)
      : health_(std::move(health)) {}

  /// Answers `request` when its path is an admin route. False, with
  /// `handle` untouched, for any other path.
  bool Handle(const HttpRequest& request,
              const HttpServer::ResponseHandle& handle) const;

  /// Stops a server that mounts these routes. An in-flight /profilez
  /// capture answers through the server's event loop, so it is cancelled
  /// (and its thread joined) before the loop goes away.
  static void StopServer(HttpServer* server);

 private:
  HealthProvider health_;
};

/// Health provider wired to a BundleManager: not-ok while
/// `reload_degraded()` (a push was rolled back and the service runs on the
/// previous generation). `manager` must outlive the server.
HealthProvider BundleManagerHealth(const BundleManager* manager);

/// Escapes `"`, `\` and newlines for a JSON string; other control
/// characters become '?'.
std::string JsonEscape(const std::string& s);

}  // namespace apps
}  // namespace dlinf

#endif  // DLINF_APPS_ADMIN_ROUTES_H_
