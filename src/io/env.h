#ifndef PHOEBE_IO_ENV_H_
#define PHOEBE_IO_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace phoebe {

/// A random-access file handle supporting positional reads/writes and
/// durability. Thread-safe: pread/pwrite at distinct offsets may run
/// concurrently.
class File {
 public:
  virtual ~File() = default;

  virtual Status Read(uint64_t offset, size_t n, char* scratch,
                      size_t* bytes_read) const = 0;
  virtual Status Write(uint64_t offset, const Slice& data) = 0;
  /// Appends at the current end; offset is tracked internally.
  virtual Status Append(const Slice& data) = 0;
  virtual Status Sync() = 0;
  virtual Status Truncate(uint64_t size) = 0;
  virtual uint64_t Size() const = 0;
};

/// Filesystem abstraction in the RocksDB Env idiom. One concrete POSIX
/// implementation; tests can substitute fault-injecting environments.
class Env {
 public:
  virtual ~Env() = default;

  /// Process-wide default POSIX environment.
  static Env* Default();

  struct OpenOptions {
    bool create = true;
    bool truncate = false;
    bool read_only = false;
  };

  virtual Status OpenFile(const std::string& path, const OpenOptions& opts,
                          std::unique_ptr<File>* file) = 0;
  virtual Status CreateDir(const std::string& path) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  /// Atomically renames `from` to `to` (same filesystem).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status RemoveDirRecursive(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Status ListDir(const std::string& path,
                         std::vector<std::string>* names) = 0;
  /// kNotFound when the path does not exist; kIOError for real stat failures.
  /// Callers that treat "missing" as 0 must not swallow I/O errors.
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;

  /// fsyncs the directory itself so a preceding Rename/CreateFile inside it
  /// survives power loss. A rename is only durable after the parent
  /// directory's metadata reaches disk.
  virtual Status SyncDir(const std::string& path) = 0;

  /// Advisory exclusive lock on `path` (created if absent). Fails with
  /// kAborted when another process (or Database instance) holds it.
  /// Released by UnlockFile or process exit.
  virtual Result<int> LockFile(const std::string& path) = 0;
  virtual void UnlockFile(int handle) = 0;
};

}  // namespace phoebe

#endif  // PHOEBE_IO_ENV_H_
