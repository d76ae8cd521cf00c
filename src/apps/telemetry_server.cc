#include "apps/telemetry_server.h"

#include <utility>

#include "obs/metrics.h"

namespace dlinf {
namespace apps {

TelemetryServer::~TelemetryServer() { Stop(); }

bool TelemetryServer::Start(const Options& options, std::string* error) {
  if (running()) {
    if (error != nullptr) *error = "telemetry server already running";
    return false;
  }
  admin_ = AdminRoutes(options.health);

  HttpServer::Options server_options;
  server_options.port = options.port;
  server_options.idle_timeout_s = options.idle_timeout_s;
  server_options.thread_name = "telemetry.loop";
  obs::Counter* requests =
      obs::MetricsRegistry::Global().GetCounter("telemetry.http.requests");
  auto handler = [this, requests](const HttpRequest& request,
                                  HttpServer::ResponseHandle handle) {
    requests->Add(1);
    if (!admin_.Handle(request, handle)) {
      handle.Respond(404, "text/plain", "not found\n");
    }
  };
  return server_.Start(server_options, std::move(handler), error);
}

void TelemetryServer::Stop() { AdminRoutes::StopServer(&server_); }

}  // namespace apps
}  // namespace dlinf
