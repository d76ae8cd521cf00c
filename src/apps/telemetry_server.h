#ifndef DLINF_APPS_TELEMETRY_SERVER_H_
#define DLINF_APPS_TELEMETRY_SERVER_H_

#include <string>

#include "apps/admin_routes.h"
#include "apps/http_conn.h"

/// \file
/// Standalone telemetry endpoint (DESIGN.md §10): the admin routes of
/// admin_routes.h on their own loopback port, for processes that run no
/// other server — `dlinf_cli stream --world --telemetry-port` and the chaos
/// drills. Anything but /metrics, /healthz, /varz, /tracez and /profilez is
/// 404.
///
/// The endpoints run on the epoll event loop of http_conn.h: a half-sent
/// request or an unread response parks on its own connection while other
/// scrapes are answered immediately, and the loop's idle sweep evicts
/// slow-loris connections. The server adds no mutable state of its own
/// beyond the `telemetry.http.requests` counter.

namespace dlinf {
namespace apps {

class TelemetryServer {
 public:
  struct Options {
    /// TCP port to listen on (loopback only). 0 picks an ephemeral port —
    /// the bound port is available from `port()` after Start.
    int port = 0;

    /// Called per /healthz request. Default: always ok, generation 0.
    HealthProvider health;

    /// Connections with no progress for this long are evicted (the
    /// slow-loris guard of the underlying event loop).
    double idle_timeout_s = 10.0;
  };

  TelemetryServer() = default;
  ~TelemetryServer();
  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Binds 127.0.0.1:`options.port`, starts the event loop. False (with
  /// the reason in `error`) when the bind/listen fails, e.g. port in use.
  bool Start(const Options& options, std::string* error = nullptr);

  /// Stops the event loop and joins it. Idempotent.
  void Stop();

  /// The bound port (valid after a successful Start).
  int port() const { return server_.port(); }

  bool running() const { return server_.running(); }

 private:
  AdminRoutes admin_;
  HttpServer server_;
};

}  // namespace apps
}  // namespace dlinf

#endif  // DLINF_APPS_TELEMETRY_SERVER_H_
