#ifndef PHOEBE_TESTS_TEST_UTIL_H_
#define PHOEBE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>

#include "common/arena.h"
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

/// A WAL data payload as an owned string, for tests that frame records by
/// hand.
inline std::string DataPayload(RelationId rel, RowId rid, Slice body) {
  Arena arena;
  return WalRecordCodec::DataPayloadTo(rel, rid, body, &arena).ToString();
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
