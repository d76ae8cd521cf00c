// Deterministic concurrency tests for the sharded query engine
// (src/apps/query_engine.h, DESIGN.md §11). The harness drives the real
// epoll server over loopback with N client threads issuing pipelined
// keep-alive requests against a fixed-seed bundle, and asserts:
//  - bit-identical answers vs a direct DeliveryLocationService::Query on
//    the same bundle (the engine adds transport, never drift);
//  - shard-routing stability: the same key maps to the same shard across
//    router instances and full engine restarts;
//  - exact service.shard.* counter cross-checks (hits + shed == queries
//    issued, per-shard hits == keys routed there);
//  - the shedding contract (overload answers degraded, never drops);
//  - one staged reload per push for every shard, and rollback → /healthz
//    degradation → recovery;
//  - the slow-loris fix: a stalled connection cannot delay /healthz.
// The whole file runs under TSan in CI.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/bundle_manager.h"
#include "apps/query_engine.h"
#include "apps/shard_router.h"
#include "common/check.h"
#include "dlinfma/dlinfma_method.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "io/bundle.h"
#include "io/file.h"
#include "obs/metrics.h"
#include "sim/generator.h"

namespace dlinf {
namespace apps {
namespace {

using ::testing::TempDir;

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

/// One small trained pipeline saved as an on-disk bundle (fixed seed via
/// SynDowBJConfig), shared by every test in this binary.
struct EngineFixture {
  EngineFixture() {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 3;
    config.num_communities = 5;
    world = sim::GenerateWorld(config);
    data = dlinfma::BuildDataset(world, {});
    samples = dlinfma::ExtractSamples(data, {});
    dlinfma::TrainConfig train_config;
    train_config.max_epochs = 2;
    train_config.early_stop_patience = 2;
    method = std::make_unique<dlinfma::DlInfMaMethod>(
        "DLInfMA", dlinfma::LocMatcherConfig{}, train_config);
    method->Fit(data, samples);
    // Pid suffix keeps concurrent `ctest -j` test processes (one per gtest
    // case) from writing the same bundle directory at the same time.
    dir = TempDir() + "query_engine_bundle." + std::to_string(::getpid());
    std::string error;
    CHECK(io::SaveBundle(dir, world, data, samples, *method, &error)) << error;

    // The reference oracle: a standalone manager over the same bundle. The
    // engine must reproduce these answers byte-for-byte over HTTP.
    BundleManager::Config manager_config;
    manager_config.dir = dir;
    reference = BundleManager::Create(manager_config, &error);
    CHECK(reference != nullptr) << error;
  }

  sim::World world;
  dlinfma::Dataset data;
  dlinfma::SampleSet samples;
  std::unique_ptr<dlinfma::DlInfMaMethod> method;
  std::string dir;
  std::unique_ptr<BundleManager> reference;
};

EngineFixture& Fixture() {
  static EngineFixture* fixture = new EngineFixture();
  return *fixture;
}

std::unique_ptr<QueryEngine> MakeEngine(int num_shards = 4,
                                        int max_queue = 512) {
  QueryEngine::Options options;
  options.bundle_dir = Fixture().dir;
  options.num_shards = num_shards;
  options.max_queue_per_shard = max_queue;
  std::string error;
  std::unique_ptr<QueryEngine> engine = QueryEngine::Create(options, &error);
  EXPECT_NE(engine, nullptr) << error;
  return engine;
}

/// The byte-exact /query body the engine must serve for `id` on the healthy
/// (non-shed) path, derived from the reference oracle.
std::string ExpectedBody(const QueryEngine& engine, int64_t id) {
  const DeliveryLocationService::Answer answer =
      Fixture().reference->state()->service->Query(id);
  return QueryEngine::FormatAnswerJson(id, answer,
                                       engine.router().ShardOf(id),
                                       /*shed=*/false);
}

TEST(ShardRouterTest, DeterministicAcrossInstances) {
  const ShardRouter a(4);
  const ShardRouter b(4);
  for (int64_t key = 0; key < 5000; ++key) {
    ASSERT_EQ(a.ShardOf(key), b.ShardOf(key)) << key;
  }
}

TEST(ShardRouterTest, CoversAllShardsRoughlyEvenly) {
  const ShardRouter router(4);
  std::vector<int> load(4, 0);
  constexpr int kKeys = 20000;
  for (int64_t key = 0; key < kKeys; ++key) ++load[router.ShardOf(key)];
  for (int shard = 0; shard < 4; ++shard) {
    // Uniform would be 5000/shard; consistent hashing with 64 vnodes keeps
    // skew well inside 2x.
    EXPECT_GT(load[shard], kKeys / 8) << "shard " << shard << " starved";
    EXPECT_LT(load[shard], kKeys / 2) << "shard " << shard << " overloaded";
  }
}

TEST(ShardRouterTest, ReshardingMovesBoundedKeyFraction) {
  const ShardRouter four(4);
  const ShardRouter five(5);
  constexpr int kKeys = 20000;
  int moved = 0;
  for (int64_t key = 0; key < kKeys; ++key) {
    if (four.ShardOf(key) != five.ShardOf(key)) ++moved;
  }
  // Consistent hashing: growing 4 -> 5 shards should move ~1/5 of keys;
  // naive modulo would move ~4/5. Assert the consistency property holds
  // with margin.
  EXPECT_LT(moved, kKeys * 2 / 5);
  EXPECT_GT(moved, 0);
}

TEST(QueryEngineTest, SingleQueryMatchesDirectServiceBitExact) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);

  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));
  for (const int64_t id : {int64_t{0}, int64_t{1}, int64_t{17}}) {
    ASSERT_TRUE(client.SendGet("/query?address_id=" + std::to_string(id)));
    int status = 0;
    std::string body;
    ASSERT_TRUE(client.ReadResponse(&status, &body));
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, ExpectedBody(*engine, id));
  }
}

TEST(QueryEngineTest, RejectsUnknownAndMalformedIds) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);
  const int64_t count =
      static_cast<int64_t>(Fixture().world.addresses.size());

  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));
  int status = 0;
  std::string body;

  ASSERT_TRUE(client.SendGet("/query?address_id=" + std::to_string(count)));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 404);

  ASSERT_TRUE(client.SendGet("/query?address_id=-1"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 404);

  ASSERT_TRUE(client.SendGet("/query?address_id=abc"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 400);

  ASSERT_TRUE(client.SendGet("/query"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 400);

  ASSERT_TRUE(client.SendGet("/no_such_endpoint"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 404);
}

/// The tentpole harness: N threads × pipelined keep-alive batches, every
/// response byte-compared against the oracle, counters cross-checked
/// exactly.
TEST(QueryEngineTest, ConcurrentPipelinedClientsDeterministic) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);

  const int64_t address_count =
      static_cast<int64_t>(Fixture().world.addresses.size());
  ASSERT_GT(address_count, 0);

  constexpr int kThreads = 4;
  constexpr int kBatchesPerThread = 8;
  constexpr int kPipelineDepth = 16;

  const int64_t hits_before = CounterValue("service.shard.hits");
  const int64_t shed_before = CounterValue("service.shard.shed");
  std::vector<int64_t> per_shard_before(
      static_cast<size_t>(engine->num_shards()));
  for (int shard = 0; shard < engine->num_shards(); ++shard) {
    per_shard_before[static_cast<size_t>(shard)] = CounterValue(
        "service.shard.hits#shard=" + std::to_string(shard));
  }

  // Deterministic per-thread key streams (disjoint strides over the
  // inventory), so per-shard expected counts are computable exactly.
  std::vector<std::vector<int64_t>> streams(kThreads);
  for (int thread = 0; thread < kThreads; ++thread) {
    for (int i = 0; i < kBatchesPerThread * kPipelineDepth; ++i) {
      streams[static_cast<size_t>(thread)].push_back(
          (thread * 7919 + i * 13) % address_count);
    }
  }

  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> clients;
  for (int thread = 0; thread < kThreads; ++thread) {
    clients.emplace_back([&, thread] {
      HttpClient client;
      if (!client.Connect(engine->port())) {
        failures[static_cast<size_t>(thread)] = "connect failed";
        return;
      }
      const std::vector<int64_t>& stream =
          streams[static_cast<size_t>(thread)];
      for (int batch = 0; batch < kBatchesPerThread; ++batch) {
        // Write the whole pipelined burst, then read responses in order.
        std::string burst;
        for (int i = 0; i < kPipelineDepth; ++i) {
          const int64_t id =
              stream[static_cast<size_t>(batch * kPipelineDepth + i)];
          burst += "GET /query?address_id=" + std::to_string(id) +
                   " HTTP/1.1\r\nHost: h\r\n\r\n";
        }
        if (!client.SendRaw(burst)) {
          failures[static_cast<size_t>(thread)] = "send failed";
          return;
        }
        for (int i = 0; i < kPipelineDepth; ++i) {
          const int64_t id =
              stream[static_cast<size_t>(batch * kPipelineDepth + i)];
          int status = 0;
          std::string body;
          std::string error;
          if (!client.ReadResponse(&status, &body, &error)) {
            failures[static_cast<size_t>(thread)] = "read: " + error;
            return;
          }
          if (status != 200) {
            failures[static_cast<size_t>(thread)] =
                "status " + std::to_string(status);
            return;
          }
          const std::string expected = ExpectedBody(*engine, id);
          if (body != expected) {
            failures[static_cast<size_t>(thread)] =
                "answer drift for id " + std::to_string(id) + ": got " +
                body + " want " + expected;
            return;
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (int thread = 0; thread < kThreads; ++thread) {
    EXPECT_EQ(failures[static_cast<size_t>(thread)], "")
        << "thread " << thread;
  }

  // Exact counter cross-checks. No fault plan armed and deep queues, so
  // nothing may shed: every issued query is a shard hit.
  constexpr int64_t kTotal =
      int64_t{kThreads} * kBatchesPerThread * kPipelineDepth;
  EXPECT_EQ(CounterValue("service.shard.hits") - hits_before, kTotal);
  EXPECT_EQ(CounterValue("service.shard.shed") - shed_before, 0);

  // Per-shard hits must equal the router's placement of the issued keys.
  std::vector<int64_t> expected_per_shard(
      static_cast<size_t>(engine->num_shards()));
  for (const auto& stream : streams) {
    for (const int64_t id : stream) {
      ++expected_per_shard[static_cast<size_t>(engine->router().ShardOf(id))];
    }
  }
  int64_t sum = 0;
  for (int shard = 0; shard < engine->num_shards(); ++shard) {
    const int64_t delta =
        CounterValue("service.shard.hits#shard=" + std::to_string(shard)) -
        per_shard_before[static_cast<size_t>(shard)];
    EXPECT_EQ(delta, expected_per_shard[static_cast<size_t>(shard)])
        << "shard " << shard;
    sum += delta;
  }
  EXPECT_EQ(sum, kTotal);
}

TEST(QueryEngineTest, BatchMatchesSequentialAnswers) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);
  const int64_t address_count =
      static_cast<int64_t>(Fixture().world.addresses.size());

  std::vector<int64_t> ids;
  std::string payload = "{\"address_ids\":[";
  for (int i = 0; i < 40; ++i) {
    const int64_t id = (i * 31) % address_count;
    ids.push_back(id);
    if (i > 0) payload += ",";
    payload += std::to_string(id);
  }
  payload += "]}";

  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));
  ASSERT_TRUE(client.SendPost("/query_batch", payload));
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  ASSERT_EQ(status, 200);

  // Positionally aligned, each element byte-identical to the single-query
  // answer.
  std::string expected = "{\"answers\":[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) expected += ",";
    expected += ExpectedBody(*engine, ids[i]);
  }
  expected += "]}";
  EXPECT_EQ(body, expected);

  // Empty batch and malformed body.
  ASSERT_TRUE(client.SendPost("/query_batch", "{\"address_ids\":[]}"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "{\"answers\":[]}");

  ASSERT_TRUE(client.SendPost("/query_batch", "{\"address_ids\":[1,zap]}"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 400);

  ASSERT_TRUE(client.SendGet("/query_batch"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 405);
}

TEST(QueryEngineTest, ShardAssignmentsStableAcrossEngineRestart) {
  std::vector<int64_t> probe_ids;
  for (int64_t id = 0; id < 64; ++id) probe_ids.push_back(id);

  auto shard_of = [&](QueryEngine& engine, int64_t id) {
    HttpClient client;
    EXPECT_TRUE(client.Connect(engine.port()));
    EXPECT_TRUE(client.SendGet("/query?address_id=" + std::to_string(id)));
    int status = 0;
    std::string body;
    EXPECT_TRUE(client.ReadResponse(&status, &body));
    EXPECT_EQ(status, 200);
    const size_t pos = body.find("\"shard\":");
    EXPECT_NE(pos, std::string::npos) << body;
    return std::stoi(body.substr(pos + 8));
  };

  std::vector<int> first_run;
  {
    std::unique_ptr<QueryEngine> engine = MakeEngine();
    ASSERT_NE(engine, nullptr);
    for (const int64_t id : probe_ids) {
      first_run.push_back(shard_of(*engine, id));
      // The served shard must agree with the router's pure function.
      ASSERT_EQ(first_run.back(), engine->router().ShardOf(id));
    }
    engine->Stop();
  }
  {
    std::unique_ptr<QueryEngine> engine = MakeEngine();
    ASSERT_NE(engine, nullptr);
    for (size_t i = 0; i < probe_ids.size(); ++i) {
      ASSERT_EQ(shard_of(*engine, probe_ids[i]),
                first_run[i])
          << "key " << probe_ids[i] << " migrated across restart";
    }
  }
}

TEST(QueryEngineTest, OverloadShedsToDegradedTierNeverDrops) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);

  const int64_t shed_before = CounterValue("service.shard.shed");
  const int64_t hits_before = CounterValue("service.shard.hits");

  fault::FaultPlan plan;
  plan.FailAlways("service.shard.overload");
  fault::ScopedFaultPlan armed(plan, 20240809);

  constexpr int kQueries = 25;
  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));
  for (int i = 0; i < kQueries; ++i) {
    const int64_t id = i % 16;
    ASSERT_TRUE(client.SendGet("/query?address_id=" + std::to_string(id)));
    int status = 0;
    std::string body;
    ASSERT_TRUE(client.ReadResponse(&status, &body));
    // The shedding contract: still HTTP 200, answered from the geocode
    // tier with degraded+shed flags, never a drop or 5xx.
    ASSERT_EQ(status, 200);
    EXPECT_NE(body.find("\"shed\":true"), std::string::npos) << body;
    EXPECT_NE(body.find("\"degraded\":true"), std::string::npos) << body;
    EXPECT_NE(body.find("\"source\":\"geocode\""), std::string::npos) << body;

    // Byte-exact shed answer: the world's geocoded location for the id.
    DeliveryLocationService::Answer expected;
    expected.location = Fixture().world.address(id).geocoded_location;
    expected.source = DeliveryLocationService::Source::kGeocode;
    expected.degraded = true;
    EXPECT_EQ(body,
              QueryEngine::FormatAnswerJson(
                  id, expected, engine->router().ShardOf(id), /*shed=*/true));
  }

  EXPECT_EQ(CounterValue("service.shard.shed") - shed_before, kQueries);
  EXPECT_EQ(CounterValue("service.shard.hits") - hits_before, 0);
  EXPECT_EQ(fault::FireCount("service.shard.overload"), kQueries);
}

TEST(QueryEngineTest, PerShardRollbackDegradesHealthzThenRecovers) {
  std::unique_ptr<QueryEngine> engine = MakeEngine(2);
  ASSERT_NE(engine, nullptr);

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(engine->port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;

  const int64_t rollbacks_before = CounterValue("service.reload.rollbacks");
  {
    fault::FaultPlan plan;
    plan.FailAlways("service.reload.corrupt");
    fault::ScopedFaultPlan armed(plan, 20240809);
    const QueryEngine::ReloadSummary summary = engine->ReloadShardsNow();
    EXPECT_EQ(summary.rolled_back, 2);
    EXPECT_EQ(summary.swapped, 0);
  }
  EXPECT_TRUE(engine->AnyShardDegraded());
  // One push is one staged reload, whatever the shard count.
  EXPECT_EQ(CounterValue("service.reload.rollbacks") - rollbacks_before, 1);

  ASSERT_TRUE(HttpGetOnce(engine->port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"degraded\":true"), std::string::npos) << body;

  // Queries keep answering correctly from the previous generation while
  // health is degraded.
  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));
  ASSERT_TRUE(client.SendGet("/query?address_id=3"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, ExpectedBody(*engine, 3));

  // A clean push (same healthy bundle, no fault) recovers every shard.
  const QueryEngine::ReloadSummary recovered = engine->ReloadShardsNow();
  EXPECT_EQ(recovered.swapped, 2);
  EXPECT_FALSE(engine->AnyShardDegraded());
  ASSERT_TRUE(HttpGetOnce(engine->port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
}

TEST(QueryEngineTest, OnePushStagesOnceForEveryShard) {
  constexpr int kShards = 4;
  std::unique_ptr<QueryEngine> engine = MakeEngine(kShards);
  ASSERT_NE(engine, nullptr);

  const int64_t attempts_before = CounterValue("service.reload.attempts");
  std::string error;
  const QueryEngine::ReloadSummary summary = engine->ReloadShardsNow(&error);
  EXPECT_EQ(summary.swapped, kShards) << error;
  EXPECT_EQ(summary.rolled_back, 0);
  // The push was staged and validated once, not once per shard...
  EXPECT_EQ(CounterValue("service.reload.attempts") - attempts_before, 1);
  // ...and every shard serves the very same state.
  const BundleManager::ServingState* live =
      engine->shard_manager(0)->state().get();
  EXPECT_EQ(live->generation, 1u);
  for (int shard = 1; shard < kShards; ++shard) {
    EXPECT_EQ(engine->shard_manager(shard)->state().get(), live) << shard;
  }

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(engine->port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  for (int shard = 0; shard < kShards; ++shard) {
    EXPECT_NE(body.find("{\"shard\":" + std::to_string(shard) +
                        ",\"generation\":1,"),
              std::string::npos)
        << body;
  }
}

TEST(QueryEngineTest, CreateRejectsShardCountOutOfRange) {
  auto threads = [] {
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return std::distance(begin(tasks), end(tasks));
  };
  for (const int num_shards : {0, QueryEngine::kMaxShards + 1}) {
    QueryEngine::Options options;
    options.bundle_dir = Fixture().dir;
    options.num_shards = num_shards;
    const auto threads_before = threads();
    std::string error;
    EXPECT_EQ(QueryEngine::Create(options, &error), nullptr) << num_shards;
    EXPECT_NE(error.find("num_shards " + std::to_string(num_shards)),
              std::string::npos)
        << error;
    // Refused before the loop or any shard worker started.
    EXPECT_EQ(threads(), threads_before) << num_shards;
  }
}

TEST(QueryEngineTest, CorruptHeaderSizePushRollsBackAndKeepsServing) {
  std::unique_ptr<QueryEngine> engine = MakeEngine(2);
  ASSERT_NE(engine, nullptr);

  // Push a model artifact whose payload-size field claims 64 TiB. The CRC
  // does not cover the header, so only the size check stands between this
  // push and an allocation failure that would take the server down.
  const std::string model_path = Fixture().dir + "/model.art";
  std::string valid;
  ASSERT_TRUE(io::ReadFile(model_path, &valid));
  std::string corrupt = valid;
  const uint64_t huge = uint64_t{1} << 46;
  std::memcpy(&corrupt[12], &huge, sizeof(huge));
  ASSERT_TRUE(io::WriteFileAtomic(model_path, corrupt));
  const QueryEngine::ReloadSummary summary = engine->ReloadShardsNow();
  ASSERT_TRUE(io::WriteFileAtomic(model_path, valid));
  EXPECT_EQ(summary.rolled_back, 2);
  EXPECT_EQ(summary.swapped, 0);
  EXPECT_TRUE(engine->AnyShardDegraded());

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(engine->port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos) << body;

  // Still serving the previous generation.
  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));
  ASSERT_TRUE(client.SendGet("/query?address_id=3"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, ExpectedBody(*engine, 3));
}

TEST(QueryEngineTest, SlowLorisCannotDelayHealthz) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);

  // A stalled client: opens a connection, dribbles half a request line,
  // then goes silent while holding the socket.
  HttpClient loris;
  ASSERT_TRUE(loris.Connect(engine->port()));
  ASSERT_TRUE(loris.SendRaw("GET /heal"));

  // Health scrapes on other connections must complete promptly — with the
  // old sequential-accept design this blocked until the loris timed out.
  const auto start = std::chrono::steady_clock::now();
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(engine->port(), "/healthz", &status, &body));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(status, 200);
  EXPECT_LT(elapsed, 1.0) << "healthz stalled behind a slow-loris client";

  // And /metrics too, through the same loop.
  ASSERT_TRUE(HttpGetOnce(engine->port(), "/metrics", &status, &body));
  EXPECT_EQ(status, 200);
}

TEST(QueryEngineTest, IdleSweepEvictsStalledConnectionWith408) {
  QueryEngine::Options options;
  options.bundle_dir = Fixture().dir;
  options.num_shards = 1;
  options.idle_timeout_s = 0.5;
  std::string error;
  std::unique_ptr<QueryEngine> engine = QueryEngine::Create(options, &error);
  ASSERT_NE(engine, nullptr) << error;

  HttpClient loris;
  ASSERT_TRUE(loris.Connect(engine->port()));
  ASSERT_TRUE(loris.SendRaw("GET /partial-request-that-never-finishes"));

  // The sweep sends a typed 408 farewell and closes the connection.
  int status = 0;
  std::string body;
  ASSERT_TRUE(loris.ReadResponse(&status, &body));
  EXPECT_EQ(status, 408);
}

TEST(QueryEngineTest, MetricsExposePerShardLabeledSeries) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);

  // Touch every shard at least probabilistically.
  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));
  for (int64_t id = 0; id < 32; ++id) {
    ASSERT_TRUE(client.SendGet("/query?address_id=" + std::to_string(id)));
    int status = 0;
    std::string body;
    ASSERT_TRUE(client.ReadResponse(&status, &body));
    ASSERT_EQ(status, 200);
  }

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(engine->port(), "/metrics", &status, &body));
  ASSERT_EQ(status, 200);
  EXPECT_NE(body.find("service_shard_hits{shard=\"0\"}"), std::string::npos);
  EXPECT_NE(body.find("service_shard_hits{shard=\"3\"}"), std::string::npos);
  // Exactly one TYPE line for the whole family (base + labeled variants).
  const size_t first = body.find("# TYPE service_shard_hits counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(body.find("# TYPE service_shard_hits counter", first + 1),
            std::string::npos);

  // /inventory serves the load-generator's keyspace discovery.
  ASSERT_TRUE(HttpGetOnce(engine->port(), "/inventory", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"count\":" + std::to_string(
                          Fixture().world.addresses.size())),
            std::string::npos)
      << body;
}

/// Reads one response and returns the echoed x-request-id header ("" when
/// absent). Header names come back lowercased from ReadResponse.
std::string ReadRequestIdEcho(HttpClient* client, int* status,
                              std::string* body) {
  std::vector<std::pair<std::string, std::string>> headers;
  if (!client->ReadResponse(status, &headers, body)) return "";
  for (const auto& [name, value] : headers) {
    if (name == "x-request-id") return value;
  }
  return "";
}

TEST(QueryEngineTest, RequestIdIsEchoedAndGenerated) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);

  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));
  int status = 0;
  std::string body;

  // A caller-supplied id echoes back verbatim, body unchanged.
  ASSERT_TRUE(client.SendRaw(
      "GET /query?address_id=1 HTTP/1.1\r\nHost: localhost\r\n"
      "X-Request-Id: req-abc-123\r\n\r\n"));
  EXPECT_EQ(ReadRequestIdEcho(&client, &status, &body), "req-abc-123");
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, ExpectedBody(*engine, 1));

  // A numeric id is adopted as the trace id and still echoes verbatim.
  ASSERT_TRUE(client.SendRaw(
      "GET /query?address_id=2 HTTP/1.1\r\nHost: localhost\r\n"
      "X-Request-Id: 0xdeadbeef\r\n\r\n"));
  EXPECT_EQ(ReadRequestIdEcho(&client, &status, &body), "0xdeadbeef");
  EXPECT_EQ(status, 200);

  // No id supplied: the engine generates a 16-hex one.
  ASSERT_TRUE(client.SendGet("/query?address_id=3"));
  const std::string generated = ReadRequestIdEcho(&client, &status, &body);
  EXPECT_EQ(status, 200);
  ASSERT_EQ(generated.size(), 16u) << generated;
  EXPECT_EQ(generated.find_first_not_of("0123456789abcdef"),
            std::string::npos);

  // Two generated ids differ (they seed from a global counter).
  ASSERT_TRUE(client.SendGet("/query?address_id=3"));
  EXPECT_NE(ReadRequestIdEcho(&client, &status, &body), generated);

  // The batch path echoes too (response assembled across shard slices).
  const std::string batch_body = "{\"address_ids\":[1,2,3]}";
  ASSERT_TRUE(client.SendRaw(
      "POST /query_batch HTTP/1.1\r\nHost: localhost\r\n"
      "X-Request-Id: batch-7\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(batch_body.size()) + "\r\n\r\n" + batch_body));
  EXPECT_EQ(ReadRequestIdEcho(&client, &status, &body), "batch-7");
  EXPECT_EQ(status, 200);
}

}  // namespace
}  // namespace apps
}  // namespace dlinf
