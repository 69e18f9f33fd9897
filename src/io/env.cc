#include "io/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>

namespace phoebe {

namespace {

Status ErrnoStatus(const std::string& context, int err) {
  return Status::IOError(context + ": " + strerror(err));
}

class PosixFile : public File {
 public:
  PosixFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, char* scratch,
              size_t* bytes_read) const override {
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::pread(fd_, scratch + got, n - got,
                          static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pread " + path_, errno);
      }
      if (r == 0) break;  // EOF
      got += static_cast<size_t>(r);
    }
    *bytes_read = got;
    return Status::OK();
  }

  Status Write(uint64_t offset, const Slice& data) override {
    size_t done = 0;
    while (done < data.size()) {
      ssize_t w = ::pwrite(fd_, data.data() + done, data.size() - done,
                           static_cast<off_t>(offset + done));
      if (w < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pwrite " + path_, errno);
      }
      done += static_cast<size_t>(w);
    }
    uint64_t end = offset + data.size();
    uint64_t cur = size_.load(std::memory_order_relaxed);
    while (end > cur &&
           !size_.compare_exchange_weak(cur, end, std::memory_order_relaxed)) {
    }
    return Status::OK();
  }

  Status Append(const Slice& data) override {
    std::lock_guard<std::mutex> lk(append_mu_);
    uint64_t off = size_.load(std::memory_order_relaxed);
    return Write(off, data);
  }

  Status Sync() override {
    if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync " + path_, errno);
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return ErrnoStatus("ftruncate " + path_, errno);
    }
    size_.store(size, std::memory_order_relaxed);
    return Status::OK();
  }

  uint64_t Size() const override {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  std::string path_;
  int fd_;
  std::atomic<uint64_t> size_;
  std::mutex append_mu_;
};

class PosixEnv : public Env {
 public:
  Status OpenFile(const std::string& path, const OpenOptions& opts,
                  std::unique_ptr<File>* file) override {
    int flags = opts.read_only ? O_RDONLY : O_RDWR;
    if (opts.create && !opts.read_only) flags |= O_CREAT;
    if (opts.truncate) flags |= O_TRUNC;
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return ErrnoStatus("open " + path, errno);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      int err = errno;
      ::close(fd);
      return ErrnoStatus("fstat " + path, err);
    }
    file->reset(new PosixFile(path, fd, static_cast<uint64_t>(st.st_size)));
    return Status::OK();
  }

  Status CreateDir(const std::string& path) override {
    // mkdir -p semantics.
    std::string partial;
    for (size_t i = 0; i <= path.size(); ++i) {
      if (i == path.size() || path[i] == '/') {
        if (!partial.empty() && ::mkdir(partial.c_str(), 0755) != 0 &&
            errno != EEXIST) {
          return ErrnoStatus("mkdir " + partial, errno);
        }
      }
      if (i < path.size()) partial += path[i];
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return ErrnoStatus("unlink " + path, errno);
    }
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename " + from + " -> " + to, errno);
    }
    return Status::OK();
  }

  Status RemoveDirRecursive(const std::string& path) override {
    std::vector<std::string> names;
    Status st = ListDir(path, &names);
    if (st.IsNotFound()) return Status::OK();
    if (!st.ok()) return st;
    for (const auto& name : names) {
      std::string child = path + "/" + name;
      struct stat cs;
      if (::lstat(child.c_str(), &cs) != 0) continue;
      if (S_ISDIR(cs.st_mode)) {
        PHOEBE_RETURN_IF_ERROR(RemoveDirRecursive(child));
      } else {
        PHOEBE_RETURN_IF_ERROR(RemoveFile(child));
      }
    }
    if (::rmdir(path.c_str()) != 0 && errno != ENOENT) {
      return ErrnoStatus("rmdir " + path, errno);
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override {
    names->clear();
    DIR* d = ::opendir(path.c_str());
    if (d == nullptr) {
      if (errno == ENOENT) return Status::NotFound(path);
      return ErrnoStatus("opendir " + path, errno);
    }
    struct dirent* ent;
    while ((ent = ::readdir(d)) != nullptr) {
      std::string name = ent->d_name;
      if (name != "." && name != "..") names->push_back(std::move(name));
    }
    ::closedir(d);
    return Status::OK();
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      if (errno == ENOENT) return Result<uint64_t>(Status::NotFound(path));
      return Result<uint64_t>(ErrnoStatus("stat " + path, errno));
    }
    return Result<uint64_t>(static_cast<uint64_t>(st.st_size));
  }

  Status SyncDir(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return ErrnoStatus("open dir " + path, errno);
    int rc = ::fsync(fd);
    int err = errno;
    ::close(fd);
    if (rc != 0) return ErrnoStatus("fsync dir " + path, err);
    return Status::OK();
  }

  Result<int> LockFile(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) return Result<int>(ErrnoStatus("open " + path, errno));
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
      ::close(fd);
      return Result<int>(Status::Aborted(
          "database is locked by another process: " + path));
    }
    return Result<int>(fd);
  }

  void UnlockFile(int handle) override {
    if (handle >= 0) {
      ::flock(handle, LOCK_UN);
      ::close(handle);
    }
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

}  // namespace phoebe
