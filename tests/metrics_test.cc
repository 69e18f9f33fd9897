// The metrics snapshot: every counter an X-list declares reaches
// Database::Metrics exactly once, names are unique, MetricsJson writes one
// JSON object line, and the snapshot can be taken while scheduler
// transactions run.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <thread>

#include "core/database.h"
#include "io/io_stats.h"
#include "runtime/scheduler.h"
#include "runtime/task.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

/// Every name the X-lists declare, with its snapshot prefix.
std::vector<std::string> DeclaredNames(uint32_t workers) {
  std::vector<std::string> names;
#define PHOEBE_TEST_NAME(field) names.push_back(prefix + #field);
#define PHOEBE_TEST_NAME2(field, merge) names.push_back(prefix + #field);
#define PHOEBE_TEST_TYPED_NAME(type, field) names.push_back(prefix + #field);
  std::string prefix = "io.";
  PHOEBE_IO_STATS(PHOEBE_TEST_NAME)
  prefix = "buffer.";
  PHOEBE_BUFFER_POOL_STATS(PHOEBE_TEST_NAME)
  prefix = "wal.";
  PHOEBE_WAL_PIPELINE_STATS(PHOEBE_TEST_NAME)
  prefix = "checkpoint.";
  PHOEBE_CHECKPOINT_STATS(PHOEBE_TEST_NAME)
  prefix = "recovery.";
  PHOEBE_RECOVERY_INFO(PHOEBE_TEST_TYPED_NAME)
  prefix = "sched.";
  PHOEBE_SCHEDULER_STATS(PHOEBE_TEST_NAME2)
  for (uint32_t w = 0; w < workers; ++w) {
    prefix = "sched.w" + std::to_string(w) + ".";
    PHOEBE_SCHEDULER_STATS(PHOEBE_TEST_NAME2)
  }
#undef PHOEBE_TEST_NAME
#undef PHOEBE_TEST_NAME2
#undef PHOEBE_TEST_TYPED_NAME
  return names;
}

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TestDir>("metrics");
    DatabaseOptions opts;
    opts.path = dir_->path();
    opts.workers = 2;
    opts.slots_per_worker = 4;
    opts.buffer_bytes = 16ull << 20;
    opts.wal_sync = false;
    auto db = Database::Open(opts);
    ASSERT_OK_R(db);
    db_ = std::move(db.value());
  }

  Scheduler::Options SchedulerOptions() const {
    Scheduler::Options sopts;
    sopts.workers = db_->options().workers;
    sopts.slots_per_worker = db_->options().slots_per_worker;
    return sopts;
  }

  std::unique_ptr<TestDir> dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(MetricsTest, EveryDeclaredCounterAppearsOnce) {
  Scheduler sched(SchedulerOptions(), db_->MakeSchedulerHooks());
  MetricList m = db_->Metrics(&sched);
  for (const std::string& name : DeclaredNames(2)) {
    EXPECT_EQ(std::count_if(m.begin(), m.end(),
                            [&](const Metric& e) { return e.name == name; }),
              1)
        << name;
  }
  for (const char* extra :
       {"buffer.frames_total", "buffer.frames_free", "wal.bytes_flushed",
        "txn.live_undo", "txn.active", "txn.clock", "alloc.total_heap_allocs",
        "alloc.total_heap_bytes", "alloc.arena_allocs", "alloc.arena_bytes"}) {
    EXPECT_GE(MetricValue(m, extra), 0) << extra;
  }
  // Without a scheduler the sched.* block is absent.
  for (const Metric& e : db_->Metrics()) {
    EXPECT_NE(e.name.rfind("sched.", 0), 0u) << e.name;
  }
}

TEST_F(MetricsTest, NamesAreUnique) {
  Scheduler sched(SchedulerOptions(), db_->MakeSchedulerHooks());
  MetricList m = db_->Metrics(&sched);
  std::set<std::string> seen;
  for (const Metric& e : m) {
    EXPECT_TRUE(seen.insert(e.name).second) << "duplicate " << e.name;
  }
}

TEST_F(MetricsTest, JsonIsOneLineWithOneKeyPerEntry) {
  MetricList small = {{"a.b", 12},
                      {"c", 0.25},
                      {"d", std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_EQ(MetricsJson(small), "{\"a.b\": 12, \"c\": 0.25, \"d\": null}");
  EXPECT_EQ(MetricsJson({}), "{}");

  Scheduler sched(SchedulerOptions(), db_->MakeSchedulerHooks());
  MetricList m = db_->Metrics(&sched);
  std::string json = MetricsJson(m);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(static_cast<size_t>(std::count(json.begin(), json.end(), ':')),
            m.size());
  for (const Metric& e : m) {
    EXPECT_NE(json.find("\"" + e.name + "\": "), std::string::npos) << e.name;
  }
}

struct Shared {
  Database* db;
  Table* table;
  std::atomic<int64_t> next_id{0};
  std::atomic<uint64_t> commits{0};
};

TxnTask InsertTask(Shared* s, TaskEnv* env) {
  Database* db = s->db;
  Transaction* txn = db->Begin(env->global_slot_id);
  RowBuilder b(&s->table->schema());
  b.SetInt64(0, s->next_id.fetch_add(1)).SetInt64(1, 7);
  std::string row = b.Encode().value();
  RowId rid = 0;
  Status st;
  PHOEBE_CO_AWAIT(st, s->table->Insert(&env->ctx, txn, row, &rid));
  if (!st.ok()) {
    (void)db->Abort(&env->ctx, txn);
    co_return st;
  }
  PHOEBE_CO_AWAIT(st, db->Commit(&env->ctx, txn));
  if (st.ok()) s->commits.fetch_add(1);
  co_return st;
}

TEST_F(MetricsTest, SnapshotWhileSchedulerTransactionsRun) {
  Shared s;
  s.db = db_.get();
  s.table = db_->CreateTable("t", Schema({{"id", ColumnType::kInt64, 0, false},
                                          {"v", ColumnType::kInt64, 0, false}}))
                .value();
  Scheduler sched(SchedulerOptions(), db_->MakeSchedulerHooks());
  sched.Start();

  std::atomic<bool> done{false};
  uint64_t snapshots = 0;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      MetricList m = db_->Metrics(&sched);
      std::string json = MetricsJson(m);
      EXPECT_EQ(json.front(), '{');
      ++snapshots;
    }
  });

  constexpr int kTxns = 2000;
  for (int i = 0; i < kTxns; ++i) {
    sched.Submit([&s](TaskEnv* env) { return InsertTask(&s, env); });
  }
  sched.Stop();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(s.commits.load(), static_cast<uint64_t>(kTxns));
  MetricList m = db_->Metrics(&sched);
  EXPECT_EQ(MetricValue(m, "sched.pulled") + MetricValue(m, "sched.stolen"),
            kTxns);
  EXPECT_EQ(MetricValue(m, "sched.pulled"),
            MetricValue(m, "sched.w0.pulled") +
                MetricValue(m, "sched.w1.pulled"));
  EXPECT_GT(MetricValue(m, "wal.appends"), 0);
  EXPECT_EQ(MetricValue(m, "txn.active"), 0);
  ASSERT_OK(db_->Close());
}

}  // namespace
}  // namespace phoebe
