#include "stream/wal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "io/file.h"
#include "io/wal_frame.h"

namespace dlinf {
namespace {

using io::DecodeWalFrame;
using io::DecodeWalSegmentHeader;
using io::WalFrame;
using io::WalStatus;
using stream::ReplayWal;
using stream::WalOptions;
using stream::WalReplayStats;
using stream::WalWriter;
using ::testing::TempDir;

constexpr size_t kMaxPayload = 1 << 20;

// Pid-suffixed scratch root: parallel ctest shards must not collide.
std::string ScratchDir(const std::string& name) {
  const std::string dir = TempDir() + "/wal_test." +
                          std::to_string(::getpid()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string SegmentPath(const WalOptions& options, uint64_t index) {
  return options.dir + "/" + io::WalSegmentFileName(index);
}

/// A reference segment: header + `payloads.size()` frames (type = index).
std::string BuildSegment(uint64_t index,
                         const std::vector<std::string>& payloads) {
  std::string bytes;
  io::AppendWalSegmentHeader(index, &bytes);
  for (size_t i = 0; i < payloads.size(); ++i) {
    io::AppendWalFrame(static_cast<uint32_t>(i), payloads[i], &bytes);
  }
  return bytes;
}

/// Decodes all frames from raw segment bytes; returns the decoded payloads
/// and the status that ended the walk.
WalStatus DecodeAll(const std::string& bytes,
                    std::vector<std::string>* payloads) {
  size_t offset = 0;
  uint64_t segment_index = 0;
  WalStatus status = DecodeWalSegmentHeader(bytes, &offset, &segment_index);
  if (status != WalStatus::kOk) return status;
  WalFrame frame;
  for (;;) {
    status = DecodeWalFrame(bytes, &offset, kMaxPayload, &frame);
    if (status != WalStatus::kOk) return status;
    payloads->push_back(frame.payload);
  }
}

// --- Frame codec ------------------------------------------------------------

TEST(WalFrameTest, RoundTripsFramesInOrder) {
  const std::vector<std::string> payloads = {"alpha", "", "gamma delta",
                                             std::string(1000, 'x')};
  const std::string bytes = BuildSegment(7, payloads);

  size_t offset = 0;
  uint64_t segment_index = 0;
  ASSERT_EQ(DecodeWalSegmentHeader(bytes, &offset, &segment_index),
            WalStatus::kOk);
  EXPECT_EQ(segment_index, 7u);

  WalFrame frame;
  for (size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_EQ(DecodeWalFrame(bytes, &offset, kMaxPayload, &frame),
              WalStatus::kOk);
    EXPECT_EQ(frame.type, static_cast<uint32_t>(i));
    EXPECT_EQ(frame.payload, payloads[i]);
  }
  EXPECT_EQ(DecodeWalFrame(bytes, &offset, kMaxPayload, &frame),
            WalStatus::kEof);
  EXPECT_EQ(offset, bytes.size());
}

TEST(WalFrameTest, SegmentFileNamesRoundTrip) {
  uint64_t index = 123;
  ASSERT_TRUE(io::ParseWalSegmentFileName(io::WalSegmentFileName(42), &index));
  EXPECT_EQ(index, 42u);
  EXPECT_FALSE(io::ParseWalSegmentFileName("wal-0000000x.log", &index));
  EXPECT_FALSE(io::ParseWalSegmentFileName("snapshot.dlab", &index));
  EXPECT_FALSE(io::ParseWalSegmentFileName("wal-.log", &index));
}

// Truncation at *every* byte boundary: decoding a prefix must never abort,
// must deliver exactly the frames wholly inside the prefix, and must end
// with a typed status.
TEST(WalFrameTest, TruncationAtEveryBoundaryIsTyped) {
  const std::vector<std::string> payloads = {"first", "second record",
                                             "third"};
  const std::string bytes = BuildSegment(0, payloads);

  // Frame end offsets, to know how many full frames each prefix holds.
  std::vector<size_t> frame_ends;
  {
    size_t offset = 0;
    uint64_t idx;
    ASSERT_EQ(DecodeWalSegmentHeader(bytes, &offset, &idx), WalStatus::kOk);
    WalFrame frame;
    while (DecodeWalFrame(bytes, &offset, kMaxPayload, &frame) ==
           WalStatus::kOk) {
      frame_ends.push_back(offset);
    }
  }

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::string prefix = bytes.substr(0, cut);
    std::vector<std::string> decoded;
    const WalStatus status = DecodeAll(prefix, &decoded);

    size_t expect_frames = 0;
    for (size_t end : frame_ends) {
      if (end <= cut) ++expect_frames;
    }
    if (cut < io::kWalSegmentHeaderSize) {
      EXPECT_EQ(status, WalStatus::kTruncated) << "cut=" << cut;
      continue;
    }
    ASSERT_EQ(decoded.size(), expect_frames) << "cut=" << cut;
    for (size_t i = 0; i < decoded.size(); ++i) {
      EXPECT_EQ(decoded[i], payloads[i]);
    }
    // Exactly at a frame boundary the prefix is a clean shorter log (kEof);
    // anywhere else it is a torn tail (kTruncated).
    const bool at_boundary =
        cut == io::kWalSegmentHeaderSize ||
        (expect_frames > 0 && cut == frame_ends[expect_frames - 1]);
    EXPECT_EQ(status, at_boundary ? WalStatus::kEof : WalStatus::kTruncated)
        << "cut=" << cut << " status=" << io::WalStatusName(status);
  }
}

TEST(WalFrameTest, StaleVersionIsTyped) {
  std::string bytes = BuildSegment(3, {"payload"});
  bytes[4] = 99;  // Version field.
  std::vector<std::string> decoded;
  EXPECT_EQ(DecodeAll(bytes, &decoded), WalStatus::kBadVersion);
  EXPECT_TRUE(decoded.empty());
}

TEST(WalFrameTest, OversizedDeclaredPayloadIsTyped) {
  std::string bytes = BuildSegment(0, {"abc"});
  // Blow up the declared size field of the first frame.
  const size_t size_offset = io::kWalSegmentHeaderSize + 4;
  const uint32_t huge = 0x40000000u;
  std::memcpy(bytes.data() + size_offset, &huge, sizeof(huge));
  size_t offset = 0;
  uint64_t idx;
  ASSERT_EQ(DecodeWalSegmentHeader(bytes, &offset, &idx), WalStatus::kOk);
  WalFrame frame;
  EXPECT_EQ(DecodeWalFrame(bytes, &offset, kMaxPayload, &frame),
            WalStatus::kOversized);
}

// Mutation fuzz: single-bit flips at every byte, plus random multi-bit
// mutations. Decode must never abort; delivered frames must always be an
// exact prefix of the originals (a flip can only truncate, never corrupt a
// delivered payload or conjure a record).
TEST(WalFrameTest, MutationFuzzYieldsPrefixAndTypedErrors) {
  const std::vector<std::string> payloads = {"stay point a", "b",
                                             std::string(64, 'q'), "tail"};
  const std::string golden = BuildSegment(0, payloads);

  auto check_mutant = [&](const std::string& mutant) {
    std::vector<std::string> decoded;
    const WalStatus status = DecodeAll(mutant, &decoded);
    ASSERT_LE(decoded.size(), payloads.size());
    for (size_t i = 0; i < decoded.size(); ++i) {
      ASSERT_EQ(decoded[i], payloads[i]);
    }
    // Every terminal status must be a defined enumerator.
    ASSERT_STRNE(io::WalStatusName(status), "unknown");
  };

  // Exhaustive single-bit flips.
  for (size_t byte = 0; byte < golden.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = golden;
      mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << bit));
      check_mutant(mutant);
    }
  }

  // Random multi-mutation: flips, truncations and appended garbage.
  std::mt19937 rng(20260809);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutant = golden;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int i = 0; i < flips; ++i) {
      mutant[rng() % mutant.size()] ^= static_cast<char>(1 << (rng() % 8));
    }
    if (rng() % 3 == 0) mutant.resize(rng() % (mutant.size() + 1));
    if (rng() % 4 == 0) mutant.append(1 + rng() % 32, static_cast<char>(rng()));
    std::vector<std::string> decoded;
    const WalStatus status = DecodeAll(mutant, &decoded);
    // Bit flips can corrupt payload bytes only if the CRC also collides —
    // astronomically unlikely; we still only assert no-crash + bounded
    // count here, and exact prefix for pure truncations.
    ASSERT_LE(decoded.size(), payloads.size());
    ASSERT_STRNE(io::WalStatusName(status), "unknown");
  }
}

// --- Writer + replay --------------------------------------------------------

TEST(WalWriterTest, AppendReplayRoundTripAcrossRotations) {
  WalOptions options;
  options.dir = ScratchDir("rotate");
  options.segment_bytes = 256;  // Force frequent rotation.

  std::vector<std::string> want;
  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.has_value());
    for (int i = 0; i < 50; ++i) {
      const std::string payload = "record-" + std::to_string(i);
      want.push_back(payload);
      std::string error;
      ASSERT_TRUE(writer->Append(7, payload, &error)) << error;
    }
    EXPECT_GT(writer->current_segment(), 0u);
    writer->Close();
  }

  std::vector<std::string> got;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(
      options,
      [&](uint64_t, uint32_t type, const std::string& payload) {
        EXPECT_EQ(type, 7u);
        got.push_back(payload);
      },
      &stats));
  EXPECT_EQ(got, want);
  EXPECT_EQ(stats.tail_status, WalStatus::kEof);
  EXPECT_GT(stats.segments, 1u);
  EXPECT_EQ(stats.frames, want.size());
}

TEST(WalWriterTest, ReopenResumesAppendingWhereReplayStopped) {
  WalOptions options;
  options.dir = ScratchDir("reopen");

  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.has_value());
    ASSERT_TRUE(writer->Append(1, "one"));
    ASSERT_TRUE(writer->Append(1, "two"));
    writer->Close();
  }
  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.has_value());
    ASSERT_TRUE(writer->Append(1, "three"));
    writer->Close();
  }

  std::vector<std::string> got;
  ASSERT_TRUE(ReplayWal(
      options,
      [&](uint64_t, uint32_t, const std::string& payload) {
        got.push_back(payload);
      },
      nullptr));
  EXPECT_EQ(got, (std::vector<std::string>{"one", "two", "three"}));
}

TEST(WalWriterTest, TornTailIsTruncatedOnReopenAndServingContinues) {
  WalOptions options;
  options.dir = ScratchDir("torn");

  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.has_value());
    ASSERT_TRUE(writer->Append(1, "keep-a"));
    ASSERT_TRUE(writer->Append(1, "keep-b"));
    writer->Close();
  }
  // Simulate a torn write: half a frame lands at the tail.
  {
    std::string frame;
    io::AppendWalFrame(1, "lost-to-the-crash", &frame);
    std::string bytes;
    ASSERT_TRUE(io::ReadFile(SegmentPath(options, 0), &bytes));
    bytes.append(frame, 0, frame.size() / 2);
    ASSERT_TRUE(io::WriteFileAtomic(SegmentPath(options, 0), bytes));
  }

  // Replay stops at the torn frame with a typed status.
  std::vector<std::string> got;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(
      options,
      [&](uint64_t, uint32_t, const std::string& payload) {
        got.push_back(payload);
      },
      &stats));
  EXPECT_EQ(got, (std::vector<std::string>{"keep-a", "keep-b"}));
  EXPECT_EQ(stats.tail_status, WalStatus::kTruncated);
  EXPECT_GT(stats.truncated_bytes, 0u);

  // Reopen truncates the torn bytes and appends cleanly after them.
  const uint64_t valid_bytes = stats.stop_offset;
  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.has_value());
    EXPECT_EQ(writer->current_segment_bytes(), valid_bytes);
    ASSERT_TRUE(writer->Append(1, "after-recovery"));
    writer->Close();
  }
  got.clear();
  ASSERT_TRUE(ReplayWal(
      options,
      [&](uint64_t, uint32_t, const std::string& payload) {
        got.push_back(payload);
      },
      &stats));
  EXPECT_EQ(got,
            (std::vector<std::string>{"keep-a", "keep-b", "after-recovery"}));
  EXPECT_EQ(stats.tail_status, WalStatus::kEof);
}

TEST(WalWriterTest, CorruptMidLogStopsReplayAtFirstBadFrame) {
  WalOptions options;
  options.dir = ScratchDir("midlog");

  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.has_value());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(writer->Append(1, "rec-" + std::to_string(i)));
    }
    writer->Close();
  }
  // Flip one payload bit in the middle of the segment (third frame).
  {
    const std::string path = SegmentPath(options, 0);
    std::string bytes;
    ASSERT_TRUE(io::ReadFile(path, &bytes));
    size_t offset = 0;
    uint64_t idx;
    ASSERT_EQ(DecodeWalSegmentHeader(bytes, &offset, &idx), WalStatus::kOk);
    WalFrame frame;
    ASSERT_EQ(DecodeWalFrame(bytes, &offset, kMaxPayload, &frame),
              WalStatus::kOk);
    ASSERT_EQ(DecodeWalFrame(bytes, &offset, kMaxPayload, &frame),
              WalStatus::kOk);
    bytes[offset + io::kWalFrameHeaderSize] ^= 0x01;
    ASSERT_TRUE(io::WriteFileAtomic(path, bytes));
  }

  std::vector<std::string> got;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(
      options,
      [&](uint64_t, uint32_t, const std::string& payload) {
        got.push_back(payload);
      },
      &stats));
  EXPECT_EQ(got, (std::vector<std::string>{"rec-0", "rec-1"}));
  EXPECT_EQ(stats.tail_status, WalStatus::kBadCrc);

  // Reopen resumes at the truncate point; the tail records are gone (they
  // were never replayable) but appends work again.
  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.has_value());
  ASSERT_TRUE(writer->Append(1, "fresh"));
  writer->Close();
  got.clear();
  ASSERT_TRUE(ReplayWal(
      options,
      [&](uint64_t, uint32_t, const std::string& payload) {
        got.push_back(payload);
      },
      &stats));
  EXPECT_EQ(got, (std::vector<std::string>{"rec-0", "rec-1", "fresh"}));
}

TEST(WalWriterTest, RetentionDeletesOnlyCoveredSegments) {
  WalOptions options;
  options.dir = ScratchDir("retention");
  options.segment_bytes = 128;

  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.has_value());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(writer->Append(1, "payload-" + std::to_string(i)));
  }
  const uint64_t current = writer->current_segment();
  ASSERT_GT(current, 2u);
  const int deleted = writer->DeleteSegmentsThrough(current - 1);
  EXPECT_EQ(deleted, static_cast<int>(current));  // Segments 0..current-1.

  // Replay starts from the surviving segment; the writer keeps appending.
  ASSERT_TRUE(writer->Append(1, "post-retention"));
  writer->Close();
  std::vector<std::string> got;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(
      options,
      [&](uint64_t segment, uint32_t, const std::string& payload) {
        EXPECT_GE(segment, current);
        got.push_back(payload);
      },
      &stats));
  EXPECT_EQ(stats.tail_status, WalStatus::kEof);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.back(), "post-retention");
}

TEST(WalWriterTest, InjectedWriteFailuresAreTypedAndLeaveWholeFrames) {
  WalOptions options;
  options.dir = ScratchDir("faults");

  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.has_value());
  ASSERT_TRUE(writer->Append(1, "before"));

  {
    fault::ScopedFaultPlan plan(
        fault::FaultPlan().FailFirst("wal.write_fail", 1), /*seed=*/1);
    std::string error;
    EXPECT_FALSE(writer->Append(1, "failed", &error));
    EXPECT_NE(error.find("write"), std::string::npos);
    EXPECT_TRUE(writer->Append(1, "after-write-fail", &error)) << error;
  }
  {
    fault::ScopedFaultPlan plan(
        fault::FaultPlan().FailFirst("wal.disk_full", 1), /*seed=*/1);
    std::string error;
    EXPECT_FALSE(writer->Append(1, "failed", &error));
    EXPECT_NE(error.find("disk-full"), std::string::npos);
    EXPECT_TRUE(writer->Append(1, "after-disk-full", &error)) << error;
  }
  {
    fault::ScopedFaultPlan plan(
        fault::FaultPlan().FailFirst("wal.fsync_fail", 1), /*seed=*/1);
    std::string error;
    EXPECT_FALSE(writer->Sync(&error));
    EXPECT_NE(error.find("fsync"), std::string::npos);
    EXPECT_TRUE(writer->Sync(&error)) << error;
  }

  // Torn write: the writer dies; reopening recovers the valid prefix.
  {
    fault::ScopedFaultPlan plan(
        fault::FaultPlan().FailFirst("wal.torn_write", 1), /*seed=*/1);
    std::string error;
    EXPECT_FALSE(writer->Append(1, "torn-away", &error));
    EXPECT_TRUE(writer->dead());
    EXPECT_FALSE(writer->Append(1, "while-dead", &error));
    EXPECT_NE(error.find("dead"), std::string::npos);
  }
  writer->AbandonForCrashTest();

  std::vector<std::string> got;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(
      options,
      [&](uint64_t, uint32_t, const std::string& payload) {
        got.push_back(payload);
      },
      &stats));
  EXPECT_EQ(got, (std::vector<std::string>{"before", "after-write-fail",
                                           "after-disk-full"}));
  EXPECT_EQ(stats.tail_status, WalStatus::kTruncated);

  auto reopened = WalWriter::Open(options);
  ASSERT_TRUE(reopened.has_value());
  ASSERT_TRUE(reopened->Append(1, "recovered"));
  reopened->Close();
}

TEST(WalWriterTest, OversizedRecordIsRejectedTyped) {
  WalOptions options;
  options.dir = ScratchDir("oversize");
  options.max_record_bytes = 64;
  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.has_value());
  std::string error;
  EXPECT_FALSE(writer->Append(1, std::string(1000, 'x'), &error));
  EXPECT_NE(error.find("max_record_bytes"), std::string::npos);
  EXPECT_TRUE(writer->Append(1, "small", &error)) << error;
  writer->Close();
}

TEST(WalWriterTest, OversizedFrameInsideBatchIsRejectedBeforeAnyWrite) {
  WalOptions options;
  options.dir = ScratchDir("oversize-batch");
  options.max_record_bytes = 64;
  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.has_value());
  ASSERT_TRUE(writer->Append(1, "kept"));

  // A multi-frame batch whose *middle* frame is oversized: the whole batch
  // must bounce typed, with nothing written — an acked oversized frame
  // would become recovery's truncation point and drop later acked frames.
  std::string batch;
  io::AppendWalFrame(1, "ok-1", &batch);
  io::AppendWalFrame(1, std::string(1000, 'x'), &batch);
  io::AppendWalFrame(1, "ok-2", &batch);
  std::string error;
  EXPECT_FALSE(writer->AppendFrames(batch, 3, &error));
  EXPECT_NE(error.find("max_record_bytes"), std::string::npos);

  // A mis-framed batch (frame count lies) is also refused.
  std::string good;
  io::AppendWalFrame(1, "solo", &good);
  EXPECT_FALSE(writer->AppendFrames(good, 2, &error));
  EXPECT_NE(error.find("malformed frame batch"), std::string::npos);

  ASSERT_TRUE(writer->Append(1, "after"));
  writer->Close();

  std::vector<std::string> got;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(
      options,
      [&](uint64_t, uint32_t, const std::string& payload) {
        got.push_back(payload);
      },
      &stats));
  EXPECT_EQ(got, (std::vector<std::string>{"kept", "after"}));
  EXPECT_EQ(stats.tail_status, WalStatus::kEof);
}

TEST(WalWriterTest, OpenRefusesToTruncateVersionSkew) {
  WalOptions options;
  options.dir = ScratchDir("version-skew");
  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.has_value());
    ASSERT_TRUE(writer->Append(1, "from-the-future"));
    writer->Close();
  }

  // Bump the segment header's version field, as if a newer binary wrote it.
  const std::string path = SegmentPath(options, 0);
  std::string bytes;
  ASSERT_TRUE(io::ReadFile(path, &bytes));
  ASSERT_GE(bytes.size(), io::kWalSegmentHeaderSize);
  const uint32_t newer = io::kWalVersion + 1;
  std::memcpy(&bytes[4], &newer, sizeof(newer));
  ASSERT_TRUE(io::WriteFileAtomic(path, bytes));

  std::string error;
  auto reopened = WalWriter::Open(options, &error);
  EXPECT_FALSE(reopened.has_value());
  EXPECT_NE(error.find("bad_version"), std::string::npos) << error;
  // Refusal is non-destructive: the segment is byte-identical.
  std::string after;
  ASSERT_TRUE(io::ReadFile(path, &after));
  EXPECT_EQ(after, bytes);

  // Restoring the version makes the same directory open cleanly again.
  const uint32_t current = io::kWalVersion;
  std::memcpy(&bytes[4], &current, sizeof(current));
  ASSERT_TRUE(io::WriteFileAtomic(path, bytes));
  auto healed = WalWriter::Open(options, &error);
  ASSERT_TRUE(healed.has_value()) << error;
  ASSERT_TRUE(healed->Append(1, "appended"));
  healed->Close();

  std::vector<std::string> got;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(
      options,
      [&](uint64_t, uint32_t, const std::string& payload) {
        got.push_back(payload);
      },
      &stats));
  EXPECT_EQ(got, (std::vector<std::string>{"from-the-future", "appended"}));
}

TEST(WalWriterTest, OpenRefusesToTruncateOversizedTail) {
  WalOptions options;
  options.dir = ScratchDir("oversize-tail");
  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.has_value());
    ASSERT_TRUE(writer->Append(1, std::string(100, 'y')));
    writer->Close();
  }

  // The same directory read with a smaller record limit: the 100-byte frame
  // decodes as kOversized — a config mismatch, not a torn tail, so Open
  // must refuse rather than destroy a frame the writer's config could read.
  WalOptions shrunk = options;
  shrunk.max_record_bytes = 16;
  std::string error;
  auto reopened = WalWriter::Open(shrunk, &error);
  EXPECT_FALSE(reopened.has_value());
  EXPECT_NE(error.find("oversized"), std::string::npos) << error;

  auto original = WalWriter::Open(options, &error);
  ASSERT_TRUE(original.has_value()) << error;
  EXPECT_EQ(original->appends(), 0);  // Appends counts this writer only.
  original->Close();

  std::vector<std::string> got;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(
      options,
      [&](uint64_t, uint32_t, const std::string& payload) {
        got.push_back(payload);
      },
      &stats));
  EXPECT_EQ(got, (std::vector<std::string>{std::string(100, 'y')}));
}

}  // namespace
}  // namespace dlinf
