#include "io/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace dlinf {
namespace io {
namespace {

bool Fail(std::string* error, const std::string& what, int err) {
  if (error != nullptr) *error = what + ": " + std::strerror(err);
  return false;
}

}  // namespace

bool ReadFile(const std::string& path, std::string* bytes,
              std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Fail(error, "cannot open " + path, errno);
  // Sized from fstat, plus one spare byte so a regular file ends in one
  // short read; the buffer doubles for anything longer (a pipe, a file
  // still growing).
  struct stat st;
  const size_t hint = ::fstat(fd, &st) == 0 ? st.st_size : 0;
  bytes->resize(hint + 1);
  size_t filled = 0;
  for (;;) {
    if (filled == bytes->size()) bytes->resize(2 * filled);
    const ssize_t n =
        ::read(fd, bytes->data() + filled, bytes->size() - filled);
    if (n > 0) {
      filled += static_cast<size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      const int err = errno;
      ::close(fd);
      return Fail(error, "cannot read " + path, err);
    }
  }
  ::close(fd);
  bytes->resize(filled);
  return true;
}

bool WriteFileAtomic(const std::string& path, std::string_view bytes,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return Fail(error, "cannot create " + tmp, errno);
  const char* step = nullptr;
  if (!WriteAll(fd, bytes.data(), bytes.size())) {
    step = "write";
  } else if (::fsync(fd) != 0) {
    step = "fsync";
  }
  int err = errno;
  if (::close(fd) != 0 && step == nullptr) {
    step = "close";
    err = errno;
  }
  if (step == nullptr && ::rename(tmp.c_str(), path.c_str()) != 0) {
    step = "rename";
    err = errno;
  }
  if (step != nullptr) {
    ::unlink(tmp.c_str());
    return Fail(error, "cannot write " + path + " (" + step + ")", err);
  }
  // The rename is durable once the parent directory is ("/" for "/x").
  const size_t slash = path.find_last_of('/');
  return SyncDir(slash == std::string::npos
                     ? "."
                     : path.substr(0, std::max<size_t>(slash, 1)),
                 error);
}

bool SyncDir(const std::string& dir, std::string* error) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Fail(error, "cannot open directory " + dir, errno);
  const bool synced = ::fsync(fd) == 0;
  const int err = errno;
  ::close(fd);
  return synced || Fail(error, "cannot fsync directory " + dir, err);
}

bool WriteAll(int fd, const void* data, size_t size) {
  const char* bytes = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, bytes, size);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    bytes += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace io
}  // namespace dlinf
