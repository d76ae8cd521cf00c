// CKPT artifact codec tests (src/io/checkpoint.h, DESIGN.md §9): exact
// round-trips (including a byte-identical save->load->save cycle), typed
// failures for every corruption class, the injected write-fail fault, and
// the golden resume contract — a training run killed at a checkpoint
// boundary and resumed through the on-disk artifact finishes bit-identical
// to an uninterrupted run.

#include <cstring>
#include <filesystem>
#include <unistd.h>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "dlinfma/dlinfma_method.h"
#include "dlinfma/trainer.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "io/artifact.h"
#include "io/checkpoint.h"
#include "io/file.h"
#include "sim/generator.h"

namespace dlinf {
namespace io {
namespace {

using ::testing::TempDir;

// Pid-suffixed scratch dir: parallel ctest invocations of this binary must
// not clobber each other's fixture files.
std::string CkptPath(const std::string& name) {
  static const std::string dir = [] {
    const std::string d =
        TempDir() + "checkpoint_test." + std::to_string(::getpid());
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir + "/" + name;
}

/// A representative checkpoint with every field populated and nontrivial.
dlinfma::TrainCheckpoint MakeCheckpoint() {
  dlinfma::TrainCheckpoint ck;
  ck.next_epoch = 12;
  ck.seed = 0x1234567890abcdefull;
  ck.learning_rate = 5e-4f;
  ck.schedule_epoch = 12;
  ck.adam_step = 731;
  std::mt19937_64 engine(42);
  engine.discard(1000);
  std::ostringstream rng_text;
  rng_text << engine;
  ck.rng_state = rng_text.str();
  ck.best_val_loss = 0.731;
  ck.epochs_without_improvement = 3;
  ck.final_train_loss = 0.642;
  ck.sample_order = {4, 0, 3, 1, 2};
  ck.params = {{1.5f, -2.25f, 0.0f}, {3.75f}};
  ck.adam_m = {{0.1f, 0.2f, -0.3f}, {0.4f}};
  ck.adam_v = {{0.01f, 0.02f, 0.03f}, {0.04f}};
  ck.best_params = {{1.0f, -2.0f, 0.5f}, {3.5f}};
  return ck;
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void ExpectCheckpointsEqual(const dlinfma::TrainCheckpoint& got,
                            const dlinfma::TrainCheckpoint& want) {
  EXPECT_EQ(got.next_epoch, want.next_epoch);
  EXPECT_EQ(got.seed, want.seed);
  EXPECT_EQ(got.learning_rate, want.learning_rate);
  EXPECT_EQ(got.schedule_epoch, want.schedule_epoch);
  EXPECT_EQ(got.adam_step, want.adam_step);
  EXPECT_EQ(got.rng_state, want.rng_state);
  EXPECT_EQ(got.best_val_loss, want.best_val_loss);
  EXPECT_EQ(got.epochs_without_improvement, want.epochs_without_improvement);
  EXPECT_EQ(got.final_train_loss, want.final_train_loss);
  EXPECT_EQ(got.sample_order, want.sample_order);
  ASSERT_EQ(got.params.size(), want.params.size());
  ASSERT_EQ(got.adam_m.size(), want.adam_m.size());
  ASSERT_EQ(got.adam_v.size(), want.adam_v.size());
  ASSERT_EQ(got.best_params.size(), want.best_params.size());
  for (size_t i = 0; i < want.params.size(); ++i) {
    EXPECT_TRUE(BitEqual(got.params[i], want.params[i])) << "params " << i;
    EXPECT_TRUE(BitEqual(got.adam_m[i], want.adam_m[i])) << "adam_m " << i;
    EXPECT_TRUE(BitEqual(got.adam_v[i], want.adam_v[i])) << "adam_v " << i;
  }
  for (size_t i = 0; i < want.best_params.size(); ++i) {
    EXPECT_TRUE(BitEqual(got.best_params[i], want.best_params[i]))
        << "best_params " << i;
  }
}

TEST(CheckpointCodecTest, RoundTripsEveryField) {
  const std::string path = CkptPath("ckpt_roundtrip.art");
  const dlinfma::TrainCheckpoint original = MakeCheckpoint();
  ASSERT_TRUE(SaveCheckpointArtifact(original, path));

  std::string error;
  const std::optional<dlinfma::TrainCheckpoint> loaded =
      LoadCheckpointArtifact(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ExpectCheckpointsEqual(*loaded, original);
}

TEST(CheckpointCodecTest, SaveLoadSaveIsByteIdentical) {
  const std::string first = CkptPath("ckpt_bytes_1.art");
  const std::string second = CkptPath("ckpt_bytes_2.art");
  const dlinfma::TrainCheckpoint original = MakeCheckpoint();
  ASSERT_TRUE(SaveCheckpointArtifact(original, first));

  std::string error;
  const std::optional<dlinfma::TrainCheckpoint> loaded =
      LoadCheckpointArtifact(first, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_TRUE(SaveCheckpointArtifact(*loaded, second));
  std::string first_bytes, second_bytes;
  ASSERT_TRUE(ReadFile(first, &first_bytes));
  ASSERT_TRUE(ReadFile(second, &second_bytes));
  EXPECT_EQ(first_bytes, second_bytes);
}

TEST(CheckpointCodecTest, EmptyBestParamsRoundTrips) {
  // No epoch improved yet: best_params is legitimately empty.
  const std::string path = CkptPath("ckpt_no_best.art");
  dlinfma::TrainCheckpoint original = MakeCheckpoint();
  original.best_params.clear();
  ASSERT_TRUE(SaveCheckpointArtifact(original, path));

  std::string error;
  const std::optional<dlinfma::TrainCheckpoint> loaded =
      LoadCheckpointArtifact(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->best_params.empty());
}

TEST(CheckpointCodecTest, CorruptionFailsWithTypedError) {
  const std::string valid_path = CkptPath("ckpt_valid.art");
  ASSERT_TRUE(SaveCheckpointArtifact(MakeCheckpoint(), valid_path));
  std::string valid;
  ASSERT_TRUE(ReadFile(valid_path, &valid));
  const std::string path = CkptPath("ckpt_corrupt.art");

  auto expect_load_fails = [&](const std::string& label) {
    std::string error;
    EXPECT_FALSE(LoadCheckpointArtifact(path, &error).has_value()) << label;
    EXPECT_FALSE(error.empty()) << label;
  };

  std::string bytes = valid;
  bytes[0] ^= 0x5a;  // Bad magic.
  ASSERT_TRUE(WriteFileAtomic(path, bytes));
  expect_load_fails("bad magic");

  bytes = valid;
  bytes[20 + (bytes.size() - 24) / 2] ^= 0x01;  // Payload bit rot.
  ASSERT_TRUE(WriteFileAtomic(path, bytes));
  expect_load_fails("payload bit flip");

  // Truncation.
  ASSERT_TRUE(WriteFileAtomic(path, valid.substr(0, valid.size() / 2)));
  expect_load_fails("truncation");

  std::string missing_error;
  EXPECT_FALSE(LoadCheckpointArtifact(CkptPath("ckpt_nonexistent.art"),
                                      &missing_error)
                   .has_value());
  EXPECT_FALSE(missing_error.empty());
}

TEST(CheckpointCodecTest, RejectsWrongArtifactKind) {
  // A structurally valid artifact of a different kind must be refused by
  // the envelope's kind check, not half-decoded.
  const std::string path = CkptPath("ckpt_wrong_kind.art");
  {
    ArtifactWriter writer(ArtifactKind::kWorld);
    writer.WriteI32(7);
    ASSERT_TRUE(writer.Finish(path));
  }
  std::string error;
  EXPECT_FALSE(LoadCheckpointArtifact(path, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointCodecTest, RejectsStructurallyUnsoundPayload) {
  // Well-formed envelope, malformed content: adam moments whose shapes do
  // not match the parameters.
  const std::string path = CkptPath("ckpt_unsound.art");
  dlinfma::TrainCheckpoint bad = MakeCheckpoint();
  bad.adam_m.pop_back();
  ASSERT_TRUE(SaveCheckpointArtifact(bad, path));
  std::string error;
  EXPECT_FALSE(LoadCheckpointArtifact(path, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointCodecTest, InjectedWriteFailureLeavesNoFile) {
  const std::string path = CkptPath("ckpt_write_fail.art");
  std::filesystem::remove(path);
  fault::ScopedFaultPlan armed(
      fault::FaultPlan().FailAlways("train.checkpoint.write_fail"),
      /*seed=*/1);
  EXPECT_FALSE(SaveCheckpointArtifact(MakeCheckpoint(), path));
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(fault::FireCount("train.checkpoint.write_fail"), 1);
}

TEST(CheckpointCodecTest, FailedOverwriteKeepsPreviousCheckpoint) {
  // The atomic temp+rename contract: a failed write must not clobber the
  // checkpoint already on disk.
  const std::string path = CkptPath("ckpt_keep_previous.art");
  const dlinfma::TrainCheckpoint original = MakeCheckpoint();
  ASSERT_TRUE(SaveCheckpointArtifact(original, path));
  std::string before;
  ASSERT_TRUE(ReadFile(path, &before));

  {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailAlways("train.checkpoint.write_fail"),
        /*seed=*/1);
    dlinfma::TrainCheckpoint newer = MakeCheckpoint();
    newer.next_epoch = 99;
    EXPECT_FALSE(SaveCheckpointArtifact(newer, path));
  }
  std::string after;
  ASSERT_TRUE(ReadFile(path, &after));
  EXPECT_EQ(after, before);
  std::string error;
  const std::optional<dlinfma::TrainCheckpoint> loaded =
      LoadCheckpointArtifact(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->next_epoch, original.next_epoch);
}

// --- Golden resume: kill at a boundary, resume, finish bit-identical ------

struct TrainFixture {
  TrainFixture() {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 3;
    config.num_communities = 5;
    world = sim::GenerateWorld(config);
    data = dlinfma::BuildDataset(world, {});
    samples = dlinfma::ExtractSamples(data, {});
  }

  sim::World world;
  dlinfma::Dataset data;
  dlinfma::SampleSet samples;
};

TrainFixture& Fixture() {
  static TrainFixture* fixture = new TrainFixture();
  return *fixture;
}

std::vector<std::vector<float>> Snapshot(const dlinfma::LocMatcher& model) {
  std::vector<std::vector<float>> out;
  for (const nn::Tensor& t : model.Parameters()) out.push_back(t.data());
  return out;
}

TEST(CheckpointResumeTest, ResumedRunIsBitIdenticalToUninterrupted) {
  TrainFixture& fx = Fixture();
  dlinfma::TrainConfig base;
  base.max_epochs = 6;
  base.early_stop_patience = 6;
  base.lr_halve_epochs = 2;  // Halvings land on both sides of the boundary.
  base.seed = 11;

  auto fresh_model = [&] {
    Rng rng(base.seed);
    return std::make_unique<dlinfma::LocMatcher>(dlinfma::LocMatcherConfig{},
                                                 &rng);
  };

  // Golden run, capturing the epoch-3 boundary checkpoint.
  std::optional<dlinfma::TrainCheckpoint> at_kill;
  std::vector<std::vector<float>> golden;
  {
    dlinfma::TrainConfig config = base;
    config.checkpoint_every_epochs = 3;
    config.checkpoint_sink = [&](const dlinfma::TrainCheckpoint& ck) {
      if (ck.next_epoch == 3) at_kill = ck;
      return true;
    };
    auto model = fresh_model();
    dlinfma::TrainLocMatcher(model.get(), fx.samples.train, fx.samples.val,
                             config);
    golden = Snapshot(*model);
  }
  ASSERT_TRUE(at_kill.has_value());

  // Kill -> restart through the on-disk artifact.
  const std::string path = CkptPath("ckpt_resume.art");
  ASSERT_TRUE(SaveCheckpointArtifact(*at_kill, path));
  std::string error;
  const std::optional<dlinfma::TrainCheckpoint> restored =
      LoadCheckpointArtifact(path, &error);
  ASSERT_TRUE(restored.has_value()) << error;

  dlinfma::TrainConfig config = base;
  config.resume = &*restored;
  auto model = fresh_model();
  const dlinfma::TrainResult result = dlinfma::TrainLocMatcher(
      model.get(), fx.samples.train, fx.samples.val, config);
  EXPECT_EQ(result.epochs_run, base.max_epochs);

  const std::vector<std::vector<float>> resumed = Snapshot(*model);
  ASSERT_EQ(resumed.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_TRUE(BitEqual(resumed[i], golden[i]))
        << "parameter tensor " << i << " diverged after resume";
  }
}

TEST(CheckpointResumeTest, TerminalCheckpointResumesToSameModel) {
  // Resuming the checkpoint a *finished* run leaves behind must run zero
  // epochs and reproduce the same final parameters.
  TrainFixture& fx = Fixture();
  dlinfma::TrainConfig base;
  base.max_epochs = 4;
  base.early_stop_patience = 4;
  base.seed = 12;

  auto fresh_model = [&] {
    Rng rng(base.seed);
    return std::make_unique<dlinfma::LocMatcher>(dlinfma::LocMatcherConfig{},
                                                 &rng);
  };

  std::optional<dlinfma::TrainCheckpoint> terminal;
  std::vector<std::vector<float>> golden;
  {
    dlinfma::TrainConfig config = base;
    config.checkpoint_every_epochs = 10;  // Only the terminal emission fires.
    config.checkpoint_sink = [&](const dlinfma::TrainCheckpoint& ck) {
      terminal = ck;
      return true;
    };
    auto model = fresh_model();
    dlinfma::TrainLocMatcher(model.get(), fx.samples.train, fx.samples.val,
                             config);
    golden = Snapshot(*model);
  }
  ASSERT_TRUE(terminal.has_value());
  EXPECT_EQ(terminal->next_epoch, base.max_epochs);

  dlinfma::TrainConfig config = base;
  config.resume = &*terminal;
  auto model = fresh_model();
  const dlinfma::TrainResult result = dlinfma::TrainLocMatcher(
      model.get(), fx.samples.train, fx.samples.val, config);
  EXPECT_EQ(result.epochs_run, base.max_epochs);

  const std::vector<std::vector<float>> resumed = Snapshot(*model);
  ASSERT_EQ(resumed.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_TRUE(BitEqual(resumed[i], golden[i])) << "tensor " << i;
  }
}

}  // namespace
}  // namespace io
}  // namespace dlinf
