#include "nn/serialize.h"

#include <cstdint>
#include <cstring>

#include "io/file.h"

namespace dlinf {
namespace nn {
namespace {

constexpr uint32_t kMagic = 0x444c4e46;  // "DLNF"

void Append(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

/// Sequential reader over a blob; returns false on underflow.
struct BlobReader {
  std::string_view blob;
  size_t offset = 0;

  bool Take(void* out, size_t size) {
    if (blob.size() - offset < size) return false;
    std::memcpy(out, blob.data() + offset, size);
    offset += size;
    return true;
  }
};

}  // namespace

std::string EncodeParameters(const std::vector<Tensor>& parameters) {
  std::string blob;
  const uint32_t magic = kMagic;
  const uint32_t count = static_cast<uint32_t>(parameters.size());
  Append(&blob, &magic, sizeof(magic));
  Append(&blob, &count, sizeof(count));
  for (const Tensor& p : parameters) {
    const uint32_t rank = static_cast<uint32_t>(p.rank());
    Append(&blob, &rank, sizeof(rank));
    for (int i = 0; i < p.rank(); ++i) {
      const int32_t d = p.dim(i);
      Append(&blob, &d, sizeof(d));
    }
    Append(&blob, p.data().data(), p.numel() * sizeof(float));
  }
  return blob;
}

bool DecodeParameters(std::string_view blob,
                      std::vector<Tensor>* parameters) {
  CHECK(parameters != nullptr);
  BlobReader reader{blob};
  uint32_t magic = 0;
  uint32_t count = 0;
  if (!reader.Take(&magic, sizeof(magic)) ||
      !reader.Take(&count, sizeof(count)) || magic != kMagic ||
      count != static_cast<uint32_t>(parameters->size())) {
    return false;
  }
  for (Tensor& p : *parameters) {
    uint32_t rank = 0;
    if (!reader.Take(&rank, sizeof(rank)) ||
        rank != static_cast<uint32_t>(p.rank())) {
      return false;
    }
    for (int i = 0; i < p.rank(); ++i) {
      int32_t d = 0;
      if (!reader.Take(&d, sizeof(d)) || d != p.dim(i)) return false;
    }
    if (!reader.Take(p.data().data(), p.numel() * sizeof(float))) {
      return false;
    }
  }
  return reader.offset == blob.size();
}

bool SaveParameters(const std::string& path,
                    const std::vector<Tensor>& parameters) {
  return io::WriteFileAtomic(path, EncodeParameters(parameters));
}

bool LoadParameters(const std::string& path, std::vector<Tensor>* parameters) {
  CHECK(parameters != nullptr);
  std::string blob;
  return io::ReadFile(path, &blob) && DecodeParameters(blob, parameters);
}

}  // namespace nn
}  // namespace dlinf
