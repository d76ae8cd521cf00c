#ifndef DLINF_IO_FILE_H_
#define DLINF_IO_FILE_H_

#include <cstddef>
#include <string>
#include <string_view>

/// \file
/// The one module that decides how whole files reach disk (DESIGN.md §7).
/// Every whole file the program writes goes through WriteFileAtomic and is
/// read back through ReadFile; append-only sinks (the WAL) keep their own
/// descriptors and use WriteAll and SyncDir. Depends on libc only, so every
/// layer, obs included, can link it.

namespace dlinf {
namespace io {

/// Reads all of `path` into `*bytes`. False with "cannot open <path>: why"
/// (or "cannot read ...") in `*error` when the file is missing or unreadable.
bool ReadFile(const std::string& path, std::string* bytes,
              std::string* error = nullptr);

/// Replaces `path` with `bytes`: writes the sibling `<path>.tmp`, fsyncs it,
/// renames it over `path`, then fsyncs the parent directory. Readers see the
/// old file or the new one, and after true a power cut cannot bring the old
/// one back. On failure returns false with the path and the reason in
/// `*error`, removes the temp file and leaves `path` as it was.
bool WriteFileAtomic(const std::string& path, std::string_view bytes,
                     std::string* error = nullptr);

/// fsyncs directory `dir`, making the creations, renames and unlinks of its
/// entries durable.
bool SyncDir(const std::string& dir, std::string* error = nullptr);

/// Writes all `size` bytes to `fd`, retrying short writes and EINTR. False
/// on any other write error, with errno left as write(2) set it.
bool WriteAll(int fd, const void* data, size_t size);

}  // namespace io
}  // namespace dlinf

#endif  // DLINF_IO_FILE_H_
