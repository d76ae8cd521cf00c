#include "apps/admin_routes.h"

#include <cstdlib>

#include "apps/bundle_manager.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace_log.h"

namespace dlinf {
namespace apps {

namespace {

std::string HealthzJson(const HealthStatus& health) {
  std::string body = "{\"status\":\"";
  body += health.ok ? "ok" : "degraded";
  body += "\",\"generation\":" + std::to_string(health.generation);
  body += ",\"detail\":\"" + JsonEscape(health.detail) + "\"";
  if (!health.shards.empty()) {
    body += ",\"shards\":[";
    for (size_t i = 0; i < health.shards.size(); ++i) {
      if (i > 0) body += ',';
      body += "{\"shard\":" + std::to_string(i);
      body += ",\"generation\":" + std::to_string(health.shards[i].generation);
      body += ",\"degraded\":";
      body += health.shards[i].degraded ? "true" : "false";
      body += "}";
    }
    body += "]";
  }
  body += "}\n";
  return body;
}

/// Parses `seconds`/`hz`/`format`, starts an asynchronous capture through
/// obs::prof::CaptureManager and answers via `handle` when it completes
/// (409 inline when a capture is already running).
void HandleProfilez(const HttpRequest& request,
                    const HttpServer::ResponseHandle& handle) {
  double seconds = 2.0;
  int hz = 99;
  bool chrome = false;
  std::string value;
  if (request.QueryParam("seconds", &value) && !value.empty()) {
    seconds = std::strtod(value.c_str(), nullptr);
  }
  if (request.QueryParam("hz", &value) && !value.empty()) {
    hz = static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
  }
  if (request.QueryParam("format", &value)) chrome = value == "chrome";
  // The capture runs on its own thread and answers through the handle when
  // it finishes — the event loop keeps serving /metrics etc. meanwhile.
  const bool started = obs::prof::CaptureManager::Global().Begin(
      seconds, hz, chrome,
      [handle](int status, const std::string& content_type,
               const std::string& body) {
        handle.Respond(status, content_type, body);
      });
  if (!started) {
    handle.Respond(409, "text/plain",
                   "a profile capture is already running\n");
  }
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrPrintf("\\u%04x", static_cast<unsigned char>(c));
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

bool AdminRoutes::Handle(const HttpRequest& request,
                         const HttpServer::ResponseHandle& handle) const {
  if (request.path == "/metrics") {
    handle.Respond(200, "text/plain; version=0.0.4",
                   obs::MetricsRegistry::Global().SnapshotPrometheus());
  } else if (request.path == "/healthz") {
    const HealthStatus health = health_ ? health_() : HealthStatus{};
    handle.Respond(health.ok ? 200 : 503, "application/json",
                   HealthzJson(health));
  } else if (request.path == "/varz") {
    handle.Respond(200, "application/json",
                   obs::MetricsRegistry::Global().SnapshotJson());
  } else if (request.path == "/tracez") {
    handle.Respond(200, "application/json",
                   obs::TraceLog::Global().ExportChromeJson());
  } else if (request.path == "/profilez") {
    HandleProfilez(request, handle);
  } else {
    return false;
  }
  return true;
}

void AdminRoutes::StopServer(HttpServer* server) {
  if (server->running()) obs::prof::CaptureManager::Global().CancelAndJoin();
  server->Stop();
}

HealthProvider BundleManagerHealth(const BundleManager* manager) {
  return [manager] {
    HealthStatus health;
    health.generation = manager->generation();
    if (manager->reload_degraded()) {
      health.ok = false;
      health.detail = "last bundle push rolled back; serving generation " +
                      std::to_string(health.generation);
    }
    return health;
  };
}

}  // namespace apps
}  // namespace dlinf
