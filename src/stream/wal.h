#ifndef DLINF_STREAM_WAL_H_
#define DLINF_STREAM_WAL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "io/wal_frame.h"

/// \file
/// Segmented write-ahead log for the ingest server (DESIGN.md §14).
///
/// The durability contract: a record handed to WalWriter::Append (or
/// AppendFrames) has been passed to write(2) on the active segment before
/// the call returns true. The ingest server only acks after that point, so
/// a SIGKILL'd process loses no acked record — the kernel page cache
/// survives the process. fsync policy (`every-n` appends and/or an
/// interval) additionally bounds loss on whole-machine crashes.
///
/// Failure semantics of Append:
///  - A failed append never leaves partial bytes behind: on a short or
///    failed write the writer truncates the segment back to its pre-append
///    size, so the log only ever grows by whole frames (except when a torn
///    write is injected to *simulate* a crash, which marks the writer dead).
///  - A failed fsync (in Sync, in the fsync policy, or before a rotation)
///    also marks the writer dead: the kernel may have dropped the unsynced
///    pages, so a later fsync that succeeds would prove nothing.
///  - After a dead-marking failure every later Append and Sync fails fast
///    with a typed "dead" error; the owner is expected to reopen
///    (crash-restart path).
///
/// Fault points (DESIGN.md §8): `wal.write_fail` (transient write error),
/// `wal.disk_full` (ENOSPC-style error, segment restored), `wal.torn_write`
/// (prefix of the frame reaches disk, writer dies — models power cut
/// mid-write; `param` = bytes kept, default half), `wal.fsync_fail`
/// (fsync reports failure after the write; the writer dies).
///
/// Counters: `wal.appends`, `wal.append_bytes`, `wal.fsyncs`,
/// `wal.rotations`, `wal.truncated_bytes` (recovery truncation),
/// `wal.errors#kind=<write|disk_full|torn|fsync|open>`.

namespace dlinf {
namespace stream {

struct WalOptions {
  std::string dir;                      ///< Segment directory (created).
  uint64_t segment_bytes = 4 << 20;     ///< Rotate past this size.
  int64_t fsync_every_n = 0;            ///< fsync every n appends (0: off).
  double fsync_interval_s = 0.0;        ///< fsync at most this stale (0: off).
  uint64_t max_record_bytes = 1 << 20;  ///< Reject larger payloads.
};

/// Where a replay pass stopped and what it saw on the way.
struct WalReplayStats {
  uint64_t segments = 0;         ///< Segment files visited.
  uint64_t frames = 0;           ///< Valid frames delivered.
  uint64_t bytes = 0;            ///< Bytes of valid frames (with headers).
  uint64_t truncated_bytes = 0;  ///< Bytes past the stop point, all files.
  io::WalStatus tail_status = io::WalStatus::kEof;  ///< Why replay stopped.
  uint64_t stop_segment = 0;     ///< Segment holding the stop point.
  uint64_t stop_offset = 0;      ///< Byte offset of the stop point.
  bool any_segment = false;      ///< False when the directory was empty.
};

/// Visits every valid frame in WAL order: segments ascending from the
/// lowest index present, frames in file order, stopping at the first frame
/// that fails to decode (torn tail, bit rot, version skew) or at a gap in
/// the segment numbering. Read-only — truncation happens in WalWriter::Open.
using WalReplayFn =
    std::function<void(uint64_t segment, uint32_t type,
                       const std::string& payload)>;

/// Returns false only on environmental I/O errors (unreadable file); a
/// corrupt or torn log is a normal outcome reported through `stats`.
bool ReplayWal(const WalOptions& options, const WalReplayFn& fn,
               WalReplayStats* stats, std::string* error = nullptr);

/// Append-side of the log. Open() re-runs the replay scan to find the valid
/// prefix, truncates the tail segment there, deletes any post-corruption
/// segments, and resumes appending — so Open after ReplayWal continues the
/// exact log the replay delivered. Truncation only happens for torn-tail
/// statuses (kBadCrc/kTruncated/kBadMagic); when the scan stops on
/// kBadVersion or kOversized — data a compatible reader could still decode
/// — Open refuses with a typed error and leaves every file untouched.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  static std::optional<WalWriter> Open(const WalOptions& options,
                                       std::string* error = nullptr);

  /// Frames `payload` under `type` and appends it. True only once the bytes
  /// reached write(2) (ack-safe against SIGKILL).
  bool Append(uint32_t type, const std::string& payload,
              std::string* error = nullptr);

  /// Appends `frame_count` pre-encoded frames (AppendWalFrame output,
  /// concatenated) in a single write(2), so a batch commits all-or-nothing
  /// with respect to injected write failures. Every frame in the batch is
  /// validated against max_record_bytes before any byte is written — a
  /// frame recovery would refuse to decode must never be acked.
  bool AppendFrames(const std::string& encoded, uint64_t frame_count,
                    std::string* error = nullptr);

  /// Explicit durability barrier (also honours wal.fsync_fail). A failure
  /// leaves the writer dead.
  bool Sync(std::string* error = nullptr);

  /// Seals the current segment (fsync + open the next one). No-op when the
  /// segment holds no frames yet. Snapshotters call this so their covered
  /// range ends exactly on a segment boundary.
  bool Rotate(std::string* error = nullptr);

  /// Deletes every segment with index <= `segment`, except the active one.
  /// Callers must only retire segments whose contents are covered by a
  /// persisted snapshot (ingest_server.h). Returns segments deleted.
  int DeleteSegmentsThrough(uint64_t segment);

  /// fsyncs and closes the active segment.
  void Close();

  /// Drops the file descriptor without truncating or fsyncing — simulates
  /// the writer process dying mid-stream for crash tests. The writer is
  /// dead afterwards.
  void AbandonForCrashTest();

  uint64_t current_segment() const { return segment_index_; }
  uint64_t current_segment_bytes() const { return segment_size_; }
  uint64_t appends() const { return appends_; }
  bool dead() const { return dead_; }

 private:
  bool OpenSegment(uint64_t index, bool truncate_to, uint64_t size,
                   std::string* error);
  bool RotateIfNeeded(uint64_t incoming_bytes, std::string* error);
  bool MaybeFsync(std::string* error);

  WalOptions options_;
  int fd_ = -1;
  uint64_t segment_index_ = 0;
  uint64_t segment_size_ = 0;
  int64_t appends_ = 0;
  int64_t appends_since_fsync_ = 0;
  double last_fsync_monotonic_s_ = 0.0;
  bool dead_ = true;
};

}  // namespace stream
}  // namespace dlinf

#endif  // DLINF_STREAM_WAL_H_
