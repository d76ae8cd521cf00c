#include "io/artifact.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/check.h"
#include "common/string_util.h"
#include "fault/fault.h"
#include "io/file.h"

namespace dlinf {
namespace io {
namespace {

/// The envelope is defined as little-endian on disk; all supported targets
/// are little-endian, which this guards (a big-endian port would add
/// byte-swapping in Take/WriteBytes, not a new format).
bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  unsigned char byte0;
  std::memcpy(&byte0, &probe, 1);
  return byte0 == 1;
}

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

struct Header {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t kind = 0;
  uint64_t payload_size = 0;
};

constexpr size_t kCrcSize = 4;

}  // namespace

const char* ArtifactKindName(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kWorld:
      return "world";
    case ArtifactKind::kStayPoints:
      return "stay_points";
    case ArtifactKind::kCandidates:
      return "candidates";
    case ArtifactKind::kSamples:
      return "samples";
    case ArtifactKind::kModel:
      return "model";
    case ArtifactKind::kManifest:
      return "manifest";
    case ArtifactKind::kCheckpoint:
      return "checkpoint";
    case ArtifactKind::kIngestState:
      return "ingest_state";
  }
  return "unknown";
}

uint32_t Crc32Update(uint32_t seed, const void* data, size_t size) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Update(0, data, size);
}

ArtifactWriter::ArtifactWriter(ArtifactKind kind) : kind_(kind) {
  CHECK(HostIsLittleEndian()) << "artifact format requires little-endian host";
  // Grown from empty rather than constructed at exactly 20 bytes: doubling
  // from 15 puts multi-MiB payloads on capacities glibc maps and unmaps,
  // where the 20 * 2^k sequence left ~7 MiB of freed ingest snapshots
  // resident in its arenas.
  file_.resize(kArtifactHeaderSize);
}

void ArtifactWriter::WriteBytes(const void* data, size_t size) {
  file_.append(static_cast<const char*>(data), size);
}

void ArtifactWriter::WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
void ArtifactWriter::WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }
void ArtifactWriter::WriteI32(int32_t v) { WriteBytes(&v, sizeof(v)); }
void ArtifactWriter::WriteI64(int64_t v) { WriteBytes(&v, sizeof(v)); }
void ArtifactWriter::WriteFloat(float v) { WriteBytes(&v, sizeof(v)); }
void ArtifactWriter::WriteDouble(double v) { WriteBytes(&v, sizeof(v)); }
void ArtifactWriter::WriteBool(bool v) {
  const uint8_t byte = v ? 1 : 0;
  WriteBytes(&byte, 1);
}

void ArtifactWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  WriteBytes(s.data(), s.size());
}

void ArtifactWriter::WriteFloats(const std::vector<float>& v) {
  WriteU64(v.size());
  WriteBytes(v.data(), v.size() * sizeof(float));
}

void ArtifactWriter::WriteDoubles(const std::vector<double>& v) {
  WriteU64(v.size());
  WriteBytes(v.data(), v.size() * sizeof(double));
}

void ArtifactWriter::WriteI64s(const std::vector<int64_t>& v) {
  WriteU64(v.size());
  WriteBytes(v.data(), v.size() * sizeof(int64_t));
}

bool ArtifactWriter::Finish(const std::string& path, std::string* error) {
  CHECK(!finished_) << "ArtifactWriter::Finish called twice";
  finished_ = true;
  // Injected write failure: the disk filled up / the volume went away.
  if (fault::Hit("io.artifact.write_fail")) {
    if (error != nullptr) *error = "injected write failure for " + path;
    return false;
  }
  // The header slot at the front is filled in place, so the file goes to
  // disk from this one buffer without copying the payload.
  const Header header{kArtifactMagic, kArtifactVersion,
                      static_cast<uint32_t>(kind_), payload_size()};
  const uint32_t crc =
      Crc32(file_.data() + kArtifactHeaderSize, payload_size());
  std::memcpy(&file_[0], &header.magic, 4);
  std::memcpy(&file_[4], &header.version, 4);
  std::memcpy(&file_[8], &header.kind, 4);
  std::memcpy(&file_[12], &header.payload_size, 8);
  WriteU32(crc);
  return WriteFileAtomic(path, file_, error);
}

std::optional<ArtifactReader> ArtifactReader::Open(const std::string& path,
                                                  ArtifactKind expected,
                                                  std::string* error) {
  auto fail = [error](std::string reason) -> std::optional<ArtifactReader> {
    if (error != nullptr) *error = std::move(reason);
    return std::nullopt;
  };
  if (!HostIsLittleEndian()) return fail("big-endian host unsupported");

  ArtifactReader reader;
  std::string read_error;
  if (!ReadFile(path, &reader.file_, &read_error)) return fail(read_error);
  const std::string& file = reader.file_;
  if (file.size() < kArtifactHeaderSize + kCrcSize) {
    return fail("truncated envelope in " + path);
  }
  Header header;
  std::memcpy(&header.magic, &file[0], 4);
  std::memcpy(&header.version, &file[4], 4);
  std::memcpy(&header.kind, &file[8], 4);
  std::memcpy(&header.payload_size, &file[12], 8);
  if (header.magic != kArtifactMagic) {
    return fail("bad magic in " + path + " (not a DLInfMA artifact)");
  }
  // Injected stale version: a reader from before a format bump opening a
  // file written after it. Exercises the exact rejection branch below.
  if (fault::Hit("io.artifact.stale_version")) {
    header.version = kArtifactVersion + 1;
  }
  if (header.version != kArtifactVersion) {
    return fail(StrPrintf("format version %u in %s, expected %u",
                          header.version, path.c_str(), kArtifactVersion));
  }
  if (header.kind != static_cast<uint32_t>(expected)) {
    return fail(StrPrintf(
        "artifact kind mismatch in %s: file holds '%s', expected '%s'",
        path.c_str(),
        ArtifactKindName(static_cast<ArtifactKind>(header.kind)),
        ArtifactKindName(expected)));
  }

  // The CRC does not cover the size field: a corrupt one must be caught by
  // the file's real size, before it sizes or indexes anything.
  size_t payload_bytes = file.size() - kArtifactHeaderSize - kCrcSize;
  // Injected short read: `param` bytes (default 1) never arrive, as if the
  // file were truncated mid-payload or the read was interrupted.
  if (const auto fire = fault::Hit("io.artifact.short_read")) {
    payload_bytes -= std::min<size_t>(payload_bytes,
                                      fire->param == 0 ? 1 : fire->param);
  }
  if (header.payload_size != payload_bytes) {
    return fail(StrPrintf(
        "truncated payload or corrupt size in %s: header says %llu bytes, "
        "file holds %zu",
        path.c_str(), static_cast<unsigned long long>(header.payload_size),
        payload_bytes));
  }
  reader.end_ = kArtifactHeaderSize + header.payload_size;
  // Injected bit flip: one payload byte is corrupted in flight (bad sector,
  // bad RAM). The CRC check below must catch it.
  if (const auto fire = fault::Hit("io.artifact.bit_flip")) {
    if (header.payload_size > 0) {
      reader.file_[kArtifactHeaderSize + fire->param % header.payload_size] ^=
          static_cast<char>(0x40);
    }
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, &file[reader.end_], kCrcSize);
  const uint32_t computed =
      Crc32(file.data() + kArtifactHeaderSize, header.payload_size);
  if (stored_crc != computed) {
    return fail(StrPrintf("bad checksum in %s (stored %08x, computed %08x)",
                          path.c_str(), stored_crc, computed));
  }
  return reader;
}

bool ArtifactReader::Take(void* out, size_t size) {
  // size == 0 happens for empty vectors, where `out` may be a null
  // vector::data(); memset/memcpy forbid null even for zero bytes.
  if (!ok_ || end_ - offset_ < size) {
    ok_ = false;
    if (size > 0) std::memset(out, 0, size);
    return false;
  }
  if (size > 0) std::memcpy(out, file_.data() + offset_, size);
  offset_ += size;
  return true;
}

size_t ArtifactReader::TakeCount(size_t elem_size) {
  const uint64_t count = ReadU64();
  if (!ok_ || count > remaining() / elem_size) {
    ok_ = false;
    return 0;
  }
  return static_cast<size_t>(count);
}

uint32_t ArtifactReader::ReadU32() {
  uint32_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

uint64_t ArtifactReader::ReadU64() {
  uint64_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

int32_t ArtifactReader::ReadI32() {
  int32_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

int64_t ArtifactReader::ReadI64() {
  int64_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

float ArtifactReader::ReadFloat() {
  float v = 0;
  Take(&v, sizeof(v));
  return v;
}

double ArtifactReader::ReadDouble() {
  double v = 0;
  Take(&v, sizeof(v));
  return v;
}

bool ArtifactReader::ReadBool() {
  uint8_t v = 0;
  Take(&v, 1);
  return v != 0;
}

std::string ArtifactReader::ReadString() {
  const size_t count = TakeCount(1);
  std::string s(count, '\0');
  Take(s.data(), count);
  return ok_ ? s : std::string();
}

std::vector<float> ArtifactReader::ReadFloats() {
  const size_t count = TakeCount(sizeof(float));
  std::vector<float> v(count);
  Take(v.data(), count * sizeof(float));
  return ok_ ? v : std::vector<float>();
}

std::vector<double> ArtifactReader::ReadDoubles() {
  const size_t count = TakeCount(sizeof(double));
  std::vector<double> v(count);
  Take(v.data(), count * sizeof(double));
  return ok_ ? v : std::vector<double>();
}

std::vector<int64_t> ArtifactReader::ReadI64s() {
  const size_t count = TakeCount(sizeof(int64_t));
  std::vector<int64_t> v(count);
  Take(v.data(), count * sizeof(int64_t));
  return ok_ ? v : std::vector<int64_t>();
}

}  // namespace io
}  // namespace dlinf
