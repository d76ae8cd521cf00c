#include "stream/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <utility>

#include "common/string_util.h"
#include "fault/fault.h"
#include "io/file.h"
#include "obs/metrics.h"

namespace dlinf {
namespace stream {
namespace {

namespace fs = std::filesystem;

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CountError(const char* kind) {
  obs::MetricsRegistry::Global()
      .GetCounter(std::string("wal.errors#kind=") + kind)
      ->Add(1);
}

bool SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

/// Sorted (index -> path, size) map of the segment files in `dir`.
std::map<uint64_t, std::pair<std::string, uint64_t>> ListSegments(
    const std::string& dir) {
  std::map<uint64_t, std::pair<std::string, uint64_t>> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t index = 0;
    const std::string name = entry.path().filename().string();
    if (!io::ParseWalSegmentFileName(name, &index)) continue;
    std::error_code size_ec;
    const uint64_t size = entry.is_regular_file()
                              ? static_cast<uint64_t>(entry.file_size(size_ec))
                              : 0;
    segments[index] = {entry.path().string(), size};
  }
  return segments;
}

}  // namespace

bool ReplayWal(const WalOptions& options, const WalReplayFn& fn,
               WalReplayStats* stats, std::string* error) {
  WalReplayStats local;
  WalReplayStats* out = stats != nullptr ? stats : &local;
  *out = WalReplayStats();

  const auto segments = ListSegments(options.dir);
  if (segments.empty()) return true;
  out->any_segment = true;

  // Walk ascending from the lowest index present (retention may have
  // deleted a prefix); a numbering gap ends the replayable log.
  uint64_t expected = segments.begin()->first;
  bool stopped = false;
  for (const auto& [index, file] : segments) {
    if (stopped || index != expected) {
      out->truncated_bytes += file.second;
      stopped = true;
      continue;
    }
    ++expected;

    std::string bytes;
    if (!io::ReadFile(file.first, &bytes, error)) return false;
    ++out->segments;
    out->stop_segment = index;
    out->stop_offset = 0;

    size_t offset = 0;
    uint64_t header_index = 0;
    io::WalStatus status =
        io::DecodeWalSegmentHeader(bytes, &offset, &header_index);
    if (status == io::WalStatus::kOk && header_index != index) {
      status = io::WalStatus::kBadMagic;  // Header belongs to another file.
    }
    if (status != io::WalStatus::kOk) {
      out->tail_status = status;
      out->truncated_bytes += bytes.size();
      stopped = true;
      continue;
    }

    io::WalFrame frame;
    for (;;) {
      status = io::DecodeWalFrame(bytes, &offset, options.max_record_bytes,
                                  &frame);
      if (status != io::WalStatus::kOk) break;
      ++out->frames;
      if (fn) fn(index, frame.type, frame.payload);
    }
    out->stop_offset = offset;
    out->bytes += offset;
    out->tail_status = status;
    if (status != io::WalStatus::kEof) {
      // Torn or corrupt tail: everything past the stop point — in this
      // segment and in any later one — is unreachable.
      out->truncated_bytes += bytes.size() - offset;
      stopped = true;
    }
  }
  return true;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) Close();
}

WalWriter::WalWriter(WalWriter&& other) noexcept { *this = std::move(other); }

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this == &other) return *this;
  if (fd_ >= 0) Close();
  options_ = std::move(other.options_);
  fd_ = other.fd_;
  segment_index_ = other.segment_index_;
  segment_size_ = other.segment_size_;
  appends_ = other.appends_;
  appends_since_fsync_ = other.appends_since_fsync_;
  last_fsync_monotonic_s_ = other.last_fsync_monotonic_s_;
  dead_ = other.dead_;
  other.fd_ = -1;
  other.dead_ = true;
  return *this;
}

std::optional<WalWriter> WalWriter::Open(const WalOptions& options,
                                         std::string* error) {
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    SetError(error, "cannot create WAL dir " + options.dir + ": " +
                        ec.message());
    return std::nullopt;
  }

  // Find the valid prefix with the same scan replay uses, so appends resume
  // exactly where a recovery replay stopped delivering records.
  WalReplayStats stats;
  if (!ReplayWal(options, nullptr, &stats, error)) return std::nullopt;

  // Only torn-tail statuses (kBadCrc/kTruncated/kBadMagic) are recoverable
  // by truncation (wal_frame.h). kBadVersion means a compatible reader —
  // e.g. the newer binary that wrote the segment — could still decode
  // everything past the stop point; kOversized likewise can mean a writer
  // configured with a larger max_record_bytes. Truncating would destroy
  // that data, so refuse and leave the files untouched for the operator.
  if (stats.tail_status == io::WalStatus::kBadVersion ||
      stats.tail_status == io::WalStatus::kOversized) {
    CountError("open");
    SetError(error,
             StrPrintf("refusing to open WAL: segment %llu stops with "
                       "status '%s' at offset %llu, which truncation cannot "
                       "recover (version skew or max_record_bytes mismatch?)",
                       static_cast<unsigned long long>(stats.stop_segment),
                       io::WalStatusName(stats.tail_status),
                       static_cast<unsigned long long>(stats.stop_offset)));
    return std::nullopt;
  }

  WalWriter writer;
  writer.options_ = options;
  writer.last_fsync_monotonic_s_ = MonotonicSeconds();

  if (!stats.any_segment) {
    if (!writer.OpenSegment(0, false, 0, error)) return std::nullopt;
    writer.dead_ = false;
    return writer;
  }

  // Drop post-corruption segments: replay never delivered their records.
  const auto segments = ListSegments(options.dir);
  for (const auto& [index, file] : segments) {
    if (index > stats.stop_segment) fs::remove(file.first, ec);
  }

  if (stats.truncated_bytes > 0) {
    obs::MetricsRegistry::Global()
        .GetCounter("wal.truncated_bytes")
        ->Add(static_cast<int64_t>(stats.truncated_bytes));
  }

  if (stats.stop_offset < io::kWalSegmentHeaderSize) {
    // The tail segment's own header is unusable — rebuild it in place.
    if (!writer.OpenSegment(stats.stop_segment, true, 0, error)) {
      return std::nullopt;
    }
  } else if (!writer.OpenSegment(stats.stop_segment, true, stats.stop_offset,
                                 error)) {
    return std::nullopt;
  }
  writer.dead_ = false;
  return writer;
}

bool WalWriter::OpenSegment(uint64_t index, bool truncate_to, uint64_t size,
                            std::string* error) {
  const std::string path =
      options_.dir + "/" + io::WalSegmentFileName(index);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return SetError(error,
                    "cannot open " + path + ": " + std::strerror(errno));
  }
  if (truncate_to && ::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    const int err = errno;
    ::close(fd);
    return SetError(error,
                    "cannot truncate " + path + ": " + std::strerror(err));
  }
  if (fd_ >= 0) {
    // Plain close, not Close(): rotation retires the old segment fd without
    // killing the writer (the pre-rotation fsync already ran).
    ::close(fd_);
  }
  fd_ = fd;
  segment_index_ = index;
  segment_size_ = size;
  if (size == 0) {
    std::string header;
    io::AppendWalSegmentHeader(index, &header);
    if (!io::WriteAll(fd_, header.data(), header.size())) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      return SetError(error, "cannot write segment header to " + path + ": " +
                                 std::strerror(err));
    }
    // Records fsynced into this segment survive a power cut only if its
    // directory entry does too.
    if (!io::SyncDir(options_.dir, error)) {
      CountError("fsync");
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    segment_size_ = header.size();
  } else if (::lseek(fd_, static_cast<off_t>(size), SEEK_SET) < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    return SetError(error,
                    "cannot seek in " + path + ": " + std::strerror(err));
  }
  return true;
}

bool WalWriter::RotateIfNeeded(uint64_t incoming_bytes, std::string* error) {
  if (segment_size_ <= io::kWalSegmentHeaderSize) return true;
  if (segment_size_ + incoming_bytes <= options_.segment_bytes) return true;
  return Rotate(error);
}

bool WalWriter::Rotate(std::string* error) {
  if (dead_) return SetError(error, "wal writer is dead (crashed or closed)");
  if (segment_size_ <= io::kWalSegmentHeaderSize) return true;
  if (::fsync(fd_) != 0) {
    const int err = errno;
    dead_ = true;  // See Sync: a failed fsync is never retried.
    CountError("fsync");
    return SetError(error, std::string("fsync before rotation failed: ") +
                               std::strerror(err) + " (writer dead)");
  }
  if (!OpenSegment(segment_index_ + 1, false, 0, error)) {
    dead_ = true;
    return false;
  }
  appends_since_fsync_ = 0;
  last_fsync_monotonic_s_ = MonotonicSeconds();
  obs::MetricsRegistry::Global().GetCounter("wal.rotations")->Add(1);
  return true;
}

bool WalWriter::Append(uint32_t type, const std::string& payload,
                       std::string* error) {
  std::string encoded;
  io::AppendWalFrame(type, payload, &encoded);
  return AppendFrames(encoded, 1, error);
}

bool WalWriter::AppendFrames(const std::string& encoded, uint64_t frame_count,
                             std::string* error) {
  if (dead_) return SetError(error, "wal writer is dead (crashed or closed)");
  // Every frame must individually honour max_record_bytes: recovery decodes
  // with the same limit, and a frame it refuses to read would become the
  // truncation point, silently discarding every acked frame after it.
  size_t offset = 0;
  uint64_t frames_seen = 0;
  while (encoded.size() - offset >= io::kWalFrameHeaderSize) {
    uint32_t payload_size = 0;
    std::memcpy(&payload_size, encoded.data() + offset + 4,
                sizeof(payload_size));
    if (payload_size > options_.max_record_bytes) {
      CountError("write");
      return SetError(
          error,
          StrPrintf("frame %llu payload of %u bytes exceeds max_record_bytes "
                    "%llu",
                    static_cast<unsigned long long>(frames_seen), payload_size,
                    static_cast<unsigned long long>(
                        options_.max_record_bytes)));
    }
    if (payload_size > encoded.size() - offset - io::kWalFrameHeaderSize) {
      break;  // Payload overruns the buffer; the check below reports it.
    }
    offset += io::kWalFrameHeaderSize + payload_size;
    ++frames_seen;
  }
  if (offset != encoded.size() || frames_seen != frame_count) {
    CountError("write");
    return SetError(error,
                    StrPrintf("malformed frame batch: %llu frames spanning "
                              "%zu of %zu bytes (caller claimed %llu frames)",
                              static_cast<unsigned long long>(frames_seen),
                              offset, encoded.size(),
                              static_cast<unsigned long long>(frame_count)));
  }
  if (!RotateIfNeeded(encoded.size(), error)) return false;

  if (fault::Hit("wal.write_fail")) {
    CountError("write");
    return SetError(error, "injected WAL write failure");
  }
  if (fault::Hit("wal.disk_full")) {
    CountError("disk_full");
    return SetError(error, "injected WAL disk-full");
  }
  if (auto fire = fault::Hit("wal.torn_write")) {
    // Simulated power cut mid-write: a prefix of the frame reaches the
    // disk and the writer never runs again. The caller must reopen.
    const size_t keep = fire->param > 0
                            ? std::min<size_t>(fire->param, encoded.size())
                            : encoded.size() / 2;
    io::WriteAll(fd_, encoded.data(), keep);
    dead_ = true;
    CountError("torn");
    return SetError(error, "injected torn WAL write (writer dead)");
  }

  if (!io::WriteAll(fd_, encoded.data(), encoded.size())) {
    const int err = errno;
    // Restore the whole-frames-only invariant before reporting failure.
    if (::ftruncate(fd_, static_cast<off_t>(segment_size_)) != 0 ||
        ::lseek(fd_, static_cast<off_t>(segment_size_), SEEK_SET) < 0) {
      dead_ = true;
    }
    CountError("write");
    return SetError(error,
                    std::string("WAL write failed: ") + std::strerror(err));
  }
  segment_size_ += encoded.size();
  appends_ += static_cast<int64_t>(frame_count);
  appends_since_fsync_ += static_cast<int64_t>(frame_count);
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("wal.appends")->Add(static_cast<int64_t>(frame_count));
  metrics.GetCounter("wal.append_bytes")
      ->Add(static_cast<int64_t>(encoded.size()));
  return MaybeFsync(error);
}

bool WalWriter::MaybeFsync(std::string* error) {
  bool due = false;
  if (options_.fsync_every_n > 0 &&
      appends_since_fsync_ >= options_.fsync_every_n) {
    due = true;
  }
  if (options_.fsync_interval_s > 0.0 &&
      MonotonicSeconds() - last_fsync_monotonic_s_ >=
          options_.fsync_interval_s) {
    due = true;
  }
  if (!due) return true;
  return Sync(error);
}

bool WalWriter::Sync(std::string* error) {
  if (dead_) return SetError(error, "wal writer is dead (crashed or closed)");
  // After a failed fsync the kernel may already have dropped the dirty
  // pages and cleared the error, so a later fsync can "succeed" over lost
  // data (fsyncgate). The writer dies instead: nothing is acked again until
  // a restart reopens and re-verifies the log.
  if (fault::Hit("wal.fsync_fail")) {
    dead_ = true;
    CountError("fsync");
    return SetError(error, "injected fsync failure (writer dead)");
  }
  if (::fsync(fd_) != 0) {
    const int err = errno;
    dead_ = true;
    CountError("fsync");
    return SetError(error, std::string("fsync failed: ") +
                               std::strerror(err) + " (writer dead)");
  }
  appends_since_fsync_ = 0;
  last_fsync_monotonic_s_ = MonotonicSeconds();
  obs::MetricsRegistry::Global().GetCounter("wal.fsyncs")->Add(1);
  return true;
}

int WalWriter::DeleteSegmentsThrough(uint64_t segment) {
  int deleted = 0;
  std::error_code ec;
  for (const auto& [index, file] : ListSegments(options_.dir)) {
    if (index > segment || index == segment_index_) continue;
    if (fs::remove(file.first, ec) && !ec) ++deleted;
  }
  if (deleted > 0) {
    obs::MetricsRegistry::Global()
        .GetCounter("wal.segments_retired")
        ->Add(deleted);
  }
  return deleted;
}

void WalWriter::Close() {
  if (fd_ >= 0) {
    if (!dead_) ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  dead_ = true;
}

void WalWriter::AbandonForCrashTest() {
  // Deliberately skip fsync and truncation: bytes already handed to
  // write(2) stay visible (page cache), exactly as after SIGKILL.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  dead_ = true;
}

}  // namespace stream
}  // namespace dlinf
