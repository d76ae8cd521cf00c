// Telemetry endpoint tests (DESIGN.md §10): ephemeral-port startup, the
// four endpoint contracts (/metrics, /healthz, /varz, /tracez), 404
// handling, degraded-health flipping, stop/restart, and concurrent scrapes
// racing live metric updates (the case the TSan CI job cares about).

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "apps/telemetry_server.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace_log.h"

namespace dlinf {
namespace apps {
namespace {

TEST(TelemetryServerTest, StartsOnEphemeralPortAndServesMetrics) {
  obs::MetricsRegistry::Global()
      .GetCounter("telemetry_test.requests")
      ->Add(3);
  obs::MetricsRegistry::Global()
      .GetHistogram("telemetry_test.latency")
      ->Observe(0.01);

  TelemetryServer server;
  std::string error;
  ASSERT_TRUE(server.Start({}, &error)) << error;
  ASSERT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(server.port(), "/metrics", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("# TYPE telemetry_test_requests counter"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE telemetry_test_latency histogram"),
            std::string::npos);
  EXPECT_NE(body.find("telemetry_test_latency_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(body.find("telemetry_test_latency_count"), std::string::npos);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(TelemetryServerTest, HealthzRendersProviderVerdict) {
  std::atomic<bool> healthy{true};
  TelemetryServer::Options options;
  options.health = [&healthy] {
    HealthStatus health;
    health.ok = healthy.load();
    health.generation = 7;
    if (!health.ok) health.detail = "rolled back";
    return health;
  };
  TelemetryServer server;
  ASSERT_TRUE(server.Start(options));

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"generation\":7"), std::string::npos);

  healthy.store(false);
  ASSERT_TRUE(HttpGetOnce(server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(body.find("rolled back"), std::string::npos);

  healthy.store(true);
  ASSERT_TRUE(HttpGetOnce(server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  server.Stop();
}

TEST(TelemetryServerTest, VarzAndTracezAreServed) {
  obs::TraceLog::Global().Start(1.0);
  obs::TraceInstant("telemetry_test.mark");
  TelemetryServer server;
  ASSERT_TRUE(server.Start({}));

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(server.port(), "/varz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"counters\""), std::string::npos);

  ASSERT_TRUE(HttpGetOnce(server.port(), "/tracez", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("telemetry_test.mark"), std::string::npos);
  server.Stop();
  obs::TraceLog::Global().Stop();
}

TEST(TelemetryServerTest, UnknownPathIs404) {
  TelemetryServer server;
  ASSERT_TRUE(server.Start({}));
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(server.port(), "/nope", &status, &body));
  EXPECT_EQ(status, 404);
  server.Stop();
}

TEST(TelemetryServerTest, StopIsIdempotentAndAllowsRestart) {
  TelemetryServer server;
  ASSERT_TRUE(server.Start({}));
  const int first_port = server.port();
  server.Stop();
  server.Stop();  // Idempotent.
  EXPECT_FALSE(server.running());
  int status = 0;
  std::string body;
  EXPECT_FALSE(HttpGetOnce(first_port, "/healthz", &status, &body));

  ASSERT_TRUE(server.Start({}));
  ASSERT_TRUE(HttpGetOnce(server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  server.Stop();
}

TEST(TelemetryServerTest, PortInUseFailsWithError) {
  TelemetryServer first;
  ASSERT_TRUE(first.Start({}));
  TelemetryServer second;
  TelemetryServer::Options options;
  options.port = first.port();
  std::string error;
  EXPECT_FALSE(second.Start(options, &error));
  EXPECT_FALSE(error.empty());
  first.Stop();
}

TEST(TelemetryServerTest, ConcurrentScrapesRaceLiveUpdates) {
  // Several scraper threads hammer every endpoint while a writer thread
  // mutates the registry and trace ring — the serve-under-load shape the
  // sanitizer CI jobs run. Every request must complete with a 200.
  obs::TraceLog::Global().Start(1.0);
  TelemetryServer server;
  ASSERT_TRUE(server.Start({}));
  const int port = server.port();

  constexpr int kScrapers = 4;
  constexpr int kRequestsPerScraper = 25;
  std::atomic<int> failures{0};
  std::atomic<bool> stop_writer{false};
  std::thread writer([&stop_writer] {
    obs::Histogram* histogram =
        obs::MetricsRegistry::Global().GetHistogram("telemetry_test.race");
    int i = 0;
    while (!stop_writer.load()) {
      histogram->Observe(1e-4 * (i % 100));
      obs::TraceInstant("race.mark");
      ++i;
    }
  });
  {
    ThreadPool pool(kScrapers);
    const char* paths[] = {"/metrics", "/healthz", "/varz", "/tracez"};
    for (int t = 0; t < kScrapers; ++t) {
      pool.Submit([port, t, &paths, &failures] {
        for (int i = 0; i < kRequestsPerScraper; ++i) {
          int status = 0;
          std::string body;
          if (!HttpGetOnce(port, paths[(t + i) % 4], &status, &body) ||
              status != 200 || body.empty()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    pool.Wait();
  }
  stop_writer.store(true);
  writer.join();
  server.Stop();
  obs::TraceLog::Global().Stop();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace apps
}  // namespace dlinf
