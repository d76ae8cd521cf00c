// The admin contract (src/apps/admin_routes.h, DESIGN.md §10), checked
// with one table against every server that mounts the shared routes: the
// sharded QueryEngine, the WAL-backed IngestServer and the bare routes on
// their own HttpServer (AdminRoutes::Serve). Each must answer /healthz with
// the unified JSON body, /varz with the registry's JSON snapshot, /tracez
// with a Chrome trace, refuse a second concurrent /profilez with 409, and
// 404 unknown paths. The bare server's own cases follow: ephemeral-port
// startup, the endpoint contracts, degraded-health flipping, stop/restart,
// and concurrent scrapes racing live metric updates (the case the TSan CI
// job cares about).

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/admin_routes.h"
#include "apps/query_engine.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "dlinfma/dlinfma_method.h"
#include "gtest/gtest.h"
#include "io/bundle.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace_log.h"
#include "sim/generator.h"
#include "stream/ingest_server.h"

namespace dlinf {
namespace apps {
namespace {

/// A running server and its bound port; dropping `server` stops it.
struct Surface {
  int port = 0;
  std::shared_ptr<void> server;
};

std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "admin_routes_test." +
                          std::to_string(::getpid()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

sim::World SmallWorld() {
  sim::SimConfig config = sim::SynDowBJConfig();
  config.num_days = 2;
  config.num_communities = 3;
  return sim::GenerateWorld(config);
}

Surface StartQueryEngine() {
  const sim::World world = SmallWorld();
  const dlinfma::Dataset data = dlinfma::BuildDataset(world, {});
  const dlinfma::SampleSet samples = dlinfma::ExtractSamples(data, {});
  dlinfma::TrainConfig train_config;
  train_config.max_epochs = 1;
  dlinfma::DlInfMaMethod method("DLInfMA", dlinfma::LocMatcherConfig{},
                                train_config);
  method.Fit(data, samples);
  QueryEngine::Options options;
  options.bundle_dir = ScratchDir("bundle");
  options.num_shards = 2;
  std::string error;
  CHECK(io::SaveBundle(options.bundle_dir, world, data, samples, method,
                       &error))
      << error;
  std::shared_ptr<QueryEngine> engine = QueryEngine::Create(options, &error);
  CHECK(engine != nullptr) << error;
  return {engine->port(), engine};
}

Surface StartIngestServer() {
  stream::IngestServer::Options options;
  options.wal.dir = ScratchDir("wal");
  options.city = SmallWorld();
  options.city.trips.clear();
  auto server = std::make_shared<stream::IngestServer>(std::move(options));
  std::string error;
  CHECK(server->Start(&error)) << error;
  return {server->port(), server};
}

/// The admin routes alone on their own HttpServer, stopped on destruction.
struct AdminServer {
  explicit AdminServer(HealthProvider health = nullptr)
      : admin(std::move(health)) {}
  ~AdminServer() { AdminRoutes::StopServer(&http); }

  bool Start(int port = 0, std::string* error = nullptr) {
    HttpServer::Options options;
    options.port = port;
    return admin.Serve(&http, options, error);
  }

  AdminRoutes admin;
  HttpServer http;
};

Surface StartAdminServer() {
  auto server = std::make_shared<AdminServer>();
  std::string error;
  CHECK(server->Start(0, &error)) << error;
  return {server->http.port(), server};
}

struct Server {
  const char* name;
  Surface (*start)();
};

void PrintTo(const Server& server, std::ostream* os) { *os << server.name; }

class AdminContractTest : public ::testing::TestWithParam<Server> {};

TEST_P(AdminContractTest, ServesTheSharedAdminRoutes) {
  const Surface surface = GetParam().start();

  struct Check {
    const char* path;
    int status;
    const char* needle;  ///< Must occur in the body.
  };
  const Check kChecks[] = {
      {"/healthz", 200, "{\"status\":\"ok\",\"generation\":0,\"detail\":\""},
      {"/varz", 200, "\"counters\""},
      {"/tracez", 200, "\"traceEvents\""},
      {"/metrics", 200, "# TYPE "},
      {"/no/such/path", 404, ""},
  };
  for (const Check& check : kChecks) {
    int status = 0;
    std::string body;
    ASSERT_TRUE(HttpGetOnce(surface.port, check.path, &status, &body))
        << check.path;
    EXPECT_EQ(status, check.status) << check.path << ": " << body;
    EXPECT_NE(body.find(check.needle), std::string::npos)
        << check.path << ": " << body;
  }

  // /profilez is single-flight: while one capture runs, a second is
  // refused with 409 rather than queued.
  std::thread first([&surface] {
    int status = 0;
    std::string body;
    ASSERT_TRUE(HttpGetOnce(surface.port, "/profilez?seconds=0.5&hz=50",
                            &status, &body));
    EXPECT_EQ(status, 200);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!obs::prof::ProfilingArmed() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  int status = 0;
  std::string body;
  EXPECT_TRUE(HttpGetOnce(surface.port, "/profilez", &status, &body));
  EXPECT_EQ(status, 409) << body;
  first.join();
}

INSTANTIATE_TEST_SUITE_P(
    EveryServer, AdminContractTest,
    ::testing::Values(Server{"QueryEngine", &StartQueryEngine},
                      Server{"IngestServer", &StartIngestServer},
                      Server{"TelemetryServer", &StartAdminServer}),
    [](const ::testing::TestParamInfo<Server>& info) {
      return std::string(info.param.name);
    });

// --- The bare admin server -------------------------------------------------
// These cases keep the suite name of the standalone server class they were
// written for, so their test IDs stay stable.

TEST(TelemetryServerTest, StartsOnEphemeralPortAndServesMetrics) {
  obs::MetricsRegistry::Global()
      .GetCounter("telemetry_test.requests")
      ->Add(3);
  obs::MetricsRegistry::Global()
      .GetHistogram("telemetry_test.latency")
      ->Observe(0.01);

  AdminServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;
  ASSERT_GT(server.http.port(), 0);
  EXPECT_TRUE(server.http.running());

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(server.http.port(), "/metrics", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("# TYPE telemetry_test_requests counter"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE telemetry_test_latency histogram"),
            std::string::npos);
  EXPECT_NE(body.find("telemetry_test_latency_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(body.find("telemetry_test_latency_count"), std::string::npos);
  AdminRoutes::StopServer(&server.http);
  EXPECT_FALSE(server.http.running());
}

TEST(TelemetryServerTest, HealthzRendersProviderVerdict) {
  std::atomic<bool> healthy{true};
  AdminServer server([&healthy] {
    HealthStatus health;
    health.ok = healthy.load();
    health.generation = 7;
    if (!health.ok) health.detail = "rolled back";
    return health;
  });
  ASSERT_TRUE(server.Start());

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(server.http.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"generation\":7"), std::string::npos);

  healthy.store(false);
  ASSERT_TRUE(HttpGetOnce(server.http.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(body.find("rolled back"), std::string::npos);

  healthy.store(true);
  ASSERT_TRUE(HttpGetOnce(server.http.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  AdminRoutes::StopServer(&server.http);
}

TEST(TelemetryServerTest, VarzAndTracezAreServed) {
  obs::TraceLog::Global().Start(1.0);
  obs::TraceInstant("telemetry_test.mark");
  AdminServer server;
  ASSERT_TRUE(server.Start());

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(server.http.port(), "/varz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"counters\""), std::string::npos);

  ASSERT_TRUE(HttpGetOnce(server.http.port(), "/tracez", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("telemetry_test.mark"), std::string::npos);
  AdminRoutes::StopServer(&server.http);
  obs::TraceLog::Global().Stop();
}

TEST(TelemetryServerTest, UnknownPathIs404) {
  AdminServer server;
  ASSERT_TRUE(server.Start());
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(server.http.port(), "/nope", &status, &body));
  EXPECT_EQ(status, 404);
  AdminRoutes::StopServer(&server.http);
}

TEST(TelemetryServerTest, StopIsIdempotentAndAllowsRestart) {
  AdminServer server;
  ASSERT_TRUE(server.Start());
  const int first_port = server.http.port();
  AdminRoutes::StopServer(&server.http);
  AdminRoutes::StopServer(&server.http);  // Idempotent.
  EXPECT_FALSE(server.http.running());
  int status = 0;
  std::string body;
  EXPECT_FALSE(HttpGetOnce(first_port, "/healthz", &status, &body));

  ASSERT_TRUE(server.Start());
  ASSERT_TRUE(HttpGetOnce(server.http.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  AdminRoutes::StopServer(&server.http);
}

TEST(TelemetryServerTest, PortInUseFailsWithError) {
  AdminServer first;
  ASSERT_TRUE(first.Start());
  AdminServer second;
  std::string error;
  EXPECT_FALSE(second.Start(first.http.port(), &error));
  EXPECT_FALSE(error.empty());
}

TEST(TelemetryServerTest, ConcurrentScrapesRaceLiveUpdates) {
  // Several scraper threads hammer every endpoint while a writer thread
  // mutates the registry and trace ring — the serve-under-load shape the
  // sanitizer CI jobs run. Every request must complete with a 200.
  obs::TraceLog::Global().Start(1.0);
  AdminServer server;
  ASSERT_TRUE(server.Start());
  const int port = server.http.port();

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
  AdminRoutes::StopServer(&server.http);
  obs::TraceLog::Global().Stop();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace apps
}  // namespace dlinf
