// BundleManager hot-reload tests (src/apps/bundle_manager.h, DESIGN.md §9):
// boot, the watch->stage->validate->swap state machine, every rollback
// trigger (injected corruption, real on-disk corruption, shadow-validation
// veto, agreement threshold), RCU semantics for pinned generations, and the
// reload counters + degraded-health flag.

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "apps/bundle_manager.h"
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

/// One small trained pipeline saved as an on-disk bundle, shared by every
/// test; tests that mutate bundle files restore them afterwards.
struct BundleFixture {
  BundleFixture() {
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
    // Suffix with the pid: under `ctest -j` each test case is a separate
    // process, and several of them mutate or corrupt bundle files — a shared
    // fixed path makes concurrent cases clobber each other's bundles.
    dir = TempDir() + "manager_bundle." + std::to_string(::getpid());
    std::string error;
    CHECK(io::SaveBundle(dir, world, data, samples, *method, &error)) << error;
  }

  sim::World world;
  dlinfma::Dataset data;
  dlinfma::SampleSet samples;
  std::unique_ptr<dlinfma::DlInfMaMethod> method;
  std::string dir;
};

BundleFixture& Fixture() {
  static BundleFixture* fixture = new BundleFixture();
  return *fixture;
}

std::unique_ptr<BundleManager> MakeManager(BundleManager::Config config = {}) {
  config.dir = Fixture().dir;
  std::string error;
  std::unique_ptr<BundleManager> manager =
      BundleManager::Create(config, &error);
  EXPECT_NE(manager, nullptr) << error;
  return manager;
}

TEST(BundleManagerTest, BootsAndServes) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  EXPECT_EQ(manager->generation(), 0u);
  EXPECT_FALSE(manager->reload_degraded());

  const std::shared_ptr<const BundleManager::ServingState> state =
      manager->state();
  ASSERT_NE(state, nullptr);
  ASSERT_FALSE(state->samples.empty());
  const DeliveryLocationService::Answer answer =
      state->service->Query(state->samples.front().address_id);
  EXPECT_TRUE(std::isfinite(answer.location.x));
  EXPECT_TRUE(std::isfinite(answer.location.y));
}

TEST(BundleManagerTest, BootFailureReturnsNullWithReason) {
  BundleManager::Config config;
  config.dir = TempDir() + "no_such_bundle_dir";
  std::string error;
  EXPECT_EQ(BundleManager::Create(config, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(BundleManagerTest, PollWithoutPushIsUnchanged) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  const int64_t attempts_before = CounterValue("service.reload.attempts");
  EXPECT_EQ(manager->Poll(), BundleManager::ReloadOutcome::kUnchanged);
  EXPECT_EQ(manager->Poll(), BundleManager::ReloadOutcome::kUnchanged);
  // Unchanged polls never enter the reload machinery.
  EXPECT_EQ(CounterValue("service.reload.attempts"), attempts_before);
}

TEST(BundleManagerTest, PollDetectsFreshPushAndSwaps) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  // A push bumps the manifest mtime; set it explicitly rather than relying
  // on filesystem timestamp granularity.
  const std::filesystem::path manifest =
      std::filesystem::path(Fixture().dir) / "manifest.art";
  std::filesystem::last_write_time(
      manifest, std::filesystem::last_write_time(manifest) +
                    std::chrono::seconds(2));
  std::string error;
  EXPECT_EQ(manager->Poll(&error), BundleManager::ReloadOutcome::kSwapped)
      << error;
  EXPECT_EQ(manager->generation(), 1u);
  // The same stamp again: nothing new.
  EXPECT_EQ(manager->Poll(), BundleManager::ReloadOutcome::kUnchanged);
}

TEST(BundleManagerTest, PollDuringMidPushManifestGapIsUnchanged) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  // A pusher writes the manifest last; while it is absent the directory is
  // mid-push and must be left alone.
  const std::filesystem::path manifest =
      std::filesystem::path(Fixture().dir) / "manifest.art";
  std::string bytes;
  ASSERT_TRUE(io::ReadFile(manifest.string(), &bytes));
  std::filesystem::remove(manifest);
  EXPECT_EQ(manager->Poll(), BundleManager::ReloadOutcome::kUnchanged);
  EXPECT_EQ(manager->generation(), 0u);
  ASSERT_TRUE(io::WriteFileAtomic(manifest.string(), bytes));
}

TEST(BundleManagerTest, InjectedCorruptPushRollsBack) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  const int64_t rollbacks_before = CounterValue("service.reload.rollbacks");
  const std::shared_ptr<const BundleManager::ServingState> before =
      manager->state();

  fault::ScopedFaultPlan armed(
      fault::FaultPlan().FailAlways("service.reload.corrupt"), /*seed=*/1);
  std::string error;
  EXPECT_EQ(manager->ReloadNow(&error),
            BundleManager::ReloadOutcome::kRolledBack);
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(manager->reload_degraded());
  EXPECT_EQ(manager->state(), before);  // Same generation object, untouched.
  EXPECT_EQ(CounterValue("service.reload.rollbacks") - rollbacks_before, 1);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetGauge("service.reload.degraded")
                ->value(),
            1.0);
}

TEST(BundleManagerTest, RealOnDiskCorruptionRollsBack) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  const std::string model_path = Fixture().dir + "/model.art";
  std::string valid;
  ASSERT_TRUE(io::ReadFile(model_path, &valid));
  ASSERT_GT(valid.size(), 64u);
  std::string mutated = valid;
  mutated[mutated.size() / 2] ^= 0x01;
  ASSERT_TRUE(io::WriteFileAtomic(model_path, mutated));

  std::string error;
  EXPECT_EQ(manager->ReloadNow(&error),
            BundleManager::ReloadOutcome::kRolledBack);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(manager->generation(), 0u);
  ASSERT_TRUE(io::WriteFileAtomic(model_path, valid));
}

TEST(BundleManagerTest, ValidationVetoRollsBackThenHealthySwapRecovers) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailAlways("service.reload.validation_fail"),
        /*seed=*/1);
    std::string error;
    EXPECT_EQ(manager->ReloadNow(&error),
              BundleManager::ReloadOutcome::kRolledBack);
    EXPECT_TRUE(manager->reload_degraded());
  }
  // The next (healthy) push swaps and clears the degraded flag.
  const int64_t success_before = CounterValue("service.reload.success");
  std::string error;
  EXPECT_EQ(manager->ReloadNow(&error),
            BundleManager::ReloadOutcome::kSwapped)
      << error;
  EXPECT_EQ(manager->generation(), 1u);
  EXPECT_FALSE(manager->reload_degraded());
  EXPECT_EQ(CounterValue("service.reload.success") - success_before, 1);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetGauge("service.reload.degraded")
                ->value(),
            0.0);
}

TEST(BundleManagerTest, AgreementThresholdRejectsDivergentCandidate) {
  // An impossible agreement tolerance makes every probe "disagree": the
  // same bundle pushed back at itself must now fail shadow validation.
  BundleManager::Config config;
  config.agree_tolerance_m = -1.0;
  std::unique_ptr<BundleManager> manager = MakeManager(config);
  ASSERT_NE(manager, nullptr);
  std::string error;
  EXPECT_EQ(manager->ReloadNow(&error),
            BundleManager::ReloadOutcome::kRolledBack);
  EXPECT_NE(error.find("agree"), std::string::npos) << error;
}

TEST(BundleManagerTest, PinnedGenerationSurvivesSwap) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  const std::shared_ptr<const BundleManager::ServingState> pinned =
      manager->state();
  ASSERT_FALSE(pinned->samples.empty());
  const int64_t probe_id = pinned->samples.front().address_id;
  const DeliveryLocationService::Answer before =
      pinned->service->Query(probe_id);

  std::string error;
  ASSERT_EQ(manager->ReloadNow(&error),
            BundleManager::ReloadOutcome::kSwapped)
      << error;
  EXPECT_EQ(manager->generation(), 1u);
  EXPECT_EQ(pinned->generation, 0u);

  // The old generation, still pinned by an "in-flight query", keeps
  // answering exactly as before the swap.
  const DeliveryLocationService::Answer after =
      pinned->service->Query(probe_id);
  EXPECT_EQ(after.location.x, before.location.x);
  EXPECT_EQ(after.location.y, before.location.y);
}

}  // namespace
}  // namespace apps
}  // namespace dlinf
