#ifndef PHOEBE_TESTS_TEST_UTIL_H_
#define PHOEBE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/metrics.h"
#include "common/status.h"
#include "io/env.h"
#include "wal/record.h"

namespace phoebe {

/// Creates a fresh scratch directory for a test case and removes it on
/// destruction.
class TestDir {
 public:
  explicit TestDir(const std::string& name) {
    path_ = std::string("/tmp/phoebe_test_") + name + "_" +
            std::to_string(::getpid());
    (void)Env::Default()->RemoveDirRecursive(path_);
    (void)Env::Default()->CreateDir(path_);
  }
  ~TestDir() { (void)Env::Default()->RemoveDirRecursive(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Value of the snapshot entry `name`; a missing entry fails the test.
inline double MetricValue(const MetricList& metrics,
                          const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return -1;
}

/// A WAL data payload as an owned string, for tests that frame records by
/// hand.
inline std::string DataPayload(RelationId rel, RowId rid, Slice body) {
  Arena arena;
  return WalRecordCodec::DataPayloadTo(rel, rid, body, &arena).ToString();
}

/// Reads the whole file at `path` into `out`. Fails when the file is
/// missing, cannot be opened, or reads short.
inline Status ReadWholeFile(const std::string& path, std::string* out) {
  out->clear();
  auto size = Env::Default()->FileSize(path);
  if (!size.ok()) return size.status();
  if (size.value() == 0) return Status::OK();
  std::unique_ptr<File> f;
  Env::OpenOptions fo;
  fo.create = false;
  fo.read_only = true;
  PHOEBE_RETURN_IF_ERROR(Env::Default()->OpenFile(path, fo, &f));
  out->resize(size.value());
  size_t got = 0;
  PHOEBE_RETURN_IF_ERROR(f->Read(0, out->size(), out->data(), &got));
  if (got != out->size()) {
    return Status::IOError("short read: " + std::to_string(got) + " of " +
                           std::to_string(out->size()) + " bytes of " + path);
  }
  return Status::OK();
}

/// Decodes the blocks of one writer's log bytes into `out`. Returns OK at a
/// clean end, or the status of the first block that did not decode.
inline Status DecodeWalBlocks(Slice bytes, uint32_t writer_id,
                              std::vector<WalRecord>* out) {
  for (;;) {
    Status st = WalBlockCodec::DecodeBlock(&bytes, writer_id, out);
    if (st.IsNotFound()) return Status::OK();
    if (!st.ok()) return st;
  }
}

#define ASSERT_OK(expr)                                 \
  do {                                                  \
    ::phoebe::Status _st = (expr);                      \
    ASSERT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

#define EXPECT_OK(expr)                                 \
  do {                                                  \
    ::phoebe::Status _st = (expr);                      \
    EXPECT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

#define ASSERT_OK_R(result)                                      \
  ASSERT_TRUE((result).ok()) << (result).status().ToString()

}  // namespace phoebe

#endif  // PHOEBE_TESTS_TEST_UTIL_H_
