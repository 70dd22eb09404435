#include "util/fileio.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/check.h"
#include "util/logging.h"

namespace qnn {

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  QNN_CHECK_MSG(in.good(), "cannot open " << path << " for reading");
  std::ostringstream ss;
  ss << in.rdbuf();
  QNN_CHECK_MSG(!in.bad(), "read failed: " << path);
  return ss.str();
}

namespace {

FileIoHooks g_hooks;

ssize_t do_write(int fd, const void* buf, std::size_t n) {
  return g_hooks.write ? g_hooks.write(fd, buf, n) : ::write(fd, buf, n);
}

int do_fsync(int fd) { return g_hooks.fsync ? g_hooks.fsync(fd) : ::fsync(fd); }

int do_rename(const char* from, const char* to) {
  return g_hooks.rename ? g_hooks.rename(from, to) : std::rename(from, to);
}

void do_backoff(int ms) {
  if (g_hooks.backoff) {
    g_hooks.backoff(ms);
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
}

// fsyncs the directory containing `path` so the rename's directory entry
// is on stable storage. Without this, a crash after rename() but before
// the kernel flushes the directory can lose BOTH the old and new file:
// rename is atomic in the namespace, not durable on disk.
void fsync_parent_dir(const std::string& path) {
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  int dfd = -1;
  do {
    dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  } while (dfd < 0 && errno == EINTR);
  QNN_CHECK_MSG(dfd >= 0,
                "cannot open directory " << dir.string() << " for fsync");
  int rc;
  do {
    rc = ::fsync(dfd);
  } while (rc != 0 && errno == EINTR);
  ::close(dfd);
  QNN_CHECK_MSG(rc == 0, "fsync of directory " << dir.string() << " failed");
}

// One complete temp-write + fsync + rename pass. Returns an empty string
// on success, otherwise a description of the failure; the temp file is
// removed on every failure path so a retry starts clean. EINTR and short
// writes are absorbed here (retried immediately, not surfaced), so only
// genuine failures consume an attempt.
std::string attempt_atomic_write(const std::string& path,
                                 const std::string& tmp,
                                 const std::string& bytes) {
  int fd = -1;
  do {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return "cannot open " + tmp + " for writing";

  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        do_write(fd, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);  // short write: keep going
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const std::string why =
        n == 0 ? "write stalled (0 bytes)"
               : std::string("write failed (") + std::strerror(errno) + ")";
    ::close(fd);
    std::remove(tmp.c_str());
    return why + ": " + tmp;
  }

  int rc;
  do {
    rc = do_fsync(fd);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    std::remove(tmp.c_str());
    return "fsync failed: " + tmp;
  }
  ::close(fd);

  do {
    rc = do_rename(tmp.c_str(), path.c_str());
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    std::remove(tmp.c_str());
    return "rename " + tmp + " -> " + path + " failed";
  }
  return "";
}

}  // namespace

void set_fileio_hooks_for_test(FileIoHooks hooks) {
  g_hooks = std::move(hooks);
}

// Durability guarantee: after write_file_atomic returns, `path` holds the
// complete new bytes and survives a crash or power loss at ANY point —
// the data is fsynced before the rename (so the new name can never point
// at truncated content) and the parent directory is fsynced after it (so
// the rename itself cannot be lost). Readers still only ever observe the
// complete old file or the complete new one. Transient failures retry
// per the policy documented in fileio.h.
void write_file_atomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  std::string error;
  for (int attempt = 0; attempt < kAtomicWriteAttempts; ++attempt) {
    if (attempt > 0) {
      QNN_LOG(Warn) << "retrying atomic write of " << path << " ("
                    << error << ")";
      do_backoff(1 << (attempt - 1));
    }
    error = attempt_atomic_write(path, tmp, bytes);
    if (error.empty()) {
      fsync_parent_dir(path);
      return;
    }
  }
  QNN_CHECK_MSG(false, error << " (gave up after " << kAtomicWriteAttempts
                             << " attempts)");
}

std::size_t utf8_bom_offset(const std::string& text) {
  if (text.size() >= 3 && text[0] == '\xEF' && text[1] == '\xBB' &&
      text[2] == '\xBF') {
    return 3;
  }
  return 0;
}

}  // namespace qnn
