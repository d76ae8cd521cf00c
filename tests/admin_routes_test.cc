// The admin contract (src/apps/admin_routes.h, DESIGN.md §10), checked
// with one table against every server that mounts the shared routes: the
// sharded QueryEngine, the WAL-backed IngestServer and the standalone
// TelemetryServer. Each must answer /healthz with the unified JSON body,
// /varz with the registry's JSON snapshot, /tracez with a Chrome trace,
// refuse a second concurrent /profilez with 409, and 404 unknown paths.

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <utility>

#include "apps/query_engine.h"
#include "apps/telemetry_server.h"
#include "common/check.h"
#include "dlinfma/dlinfma_method.h"
#include "gtest/gtest.h"
#include "io/bundle.h"
#include "obs/profiler.h"
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

Surface StartTelemetryServer() {
  auto server = std::make_shared<TelemetryServer>();
  std::string error;
  CHECK(server->Start({}, &error)) << error;
  return {server->port(), server};
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
                      Server{"TelemetryServer", &StartTelemetryServer}),
    [](const ::testing::TestParamInfo<Server>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace apps
}  // namespace dlinf
