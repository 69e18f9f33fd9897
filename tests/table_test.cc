// Table-layer tests: index maintenance with MVCC visibility, isolation
// levels, atomic RMW updates, GC purging, temperature exchange, key
// encoding order.
#include "core/table.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "core/database.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

Schema ItemSchema() {
  return Schema({
      {"sku", ColumnType::kInt64, 0, false},
      {"name", ColumnType::kString, 24, false},
      {"qty", ColumnType::kInt32, 0, false},
  });
}

class TableTest : public ::testing::Test {
 protected:
  void Open(DatabaseOptions opts = {}) {
    dir_ = std::make_unique<TestDir>("table");
    opts.path = dir_->path();
    opts.workers = 2;
    opts.slots_per_worker = 4;
    opts.buffer_bytes = 32ull << 20;
    auto db = Database::Open(opts);
    ASSERT_OK_R(db);
    db_ = std::move(db.value());
    table_ = db_->CreateTable("items", ItemSchema()).value();
    ASSERT_OK(db_->CreateIndex("items", "sku_pk", {0}, true));
    ASSERT_OK(db_->CreateIndex("items", "by_name", {1}, false));
    ctx_.synchronous = true;
  }

  RowId InsertItem(Transaction* txn, int64_t sku, const std::string& name,
                   int32_t qty) {
    RowBuilder b(&table_->schema());
    b.SetInt64(0, sku).SetString(1, name).SetInt32(2, qty);
    RowId rid = 0;
    Status st = table_->Insert(&ctx_, txn, b.Encode().value(), &rid);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return rid;
  }

  std::unique_ptr<TestDir> dir_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
  OpContext ctx_;
};

TEST_F(TableTest, UniqueIndexRejectsDuplicates) {
  Open();
  Transaction* t1 = db_->Begin(db_->aux_slot(0));
  InsertItem(t1, 42, "widget", 5);
  ASSERT_OK(db_->Commit(&ctx_, t1));

  Transaction* t2 = db_->Begin(db_->aux_slot(0));
  RowBuilder b(&table_->schema());
  b.SetInt64(0, 42).SetString(1, "dupe").SetInt32(2, 1);
  RowId rid = 0;
  Status st = table_->Insert(&ctx_, t2, b.Encode().value(), &rid);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  ASSERT_OK(db_->Abort(&ctx_, t2));

  // Original row is intact.
  Transaction* t3 = db_->Begin(db_->aux_slot(0));
  Slice row;
  ASSERT_OK(table_->IndexGetRef(&ctx_, t3, 0, {Value::Int64(42)}, &rid, &row));
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetString(1),
            Slice("widget"));
  ASSERT_OK(db_->Commit(&ctx_, t3));
}

TEST_F(TableTest, NonUniqueIndexScansDuplicateKeys) {
  Open();
  Transaction* txn = db_->Begin(db_->aux_slot(0));
  InsertItem(txn, 1, "same", 10);
  InsertItem(txn, 2, "same", 20);
  InsertItem(txn, 3, "other", 30);
  ASSERT_OK(db_->Commit(&ctx_, txn));

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  std::vector<int64_t> skus;
  ASSERT_OK(table_->IndexScanRef(&ctx_, reader, 1, {Value::String("same")}, {},
                                 [&](RowId, Slice row) {
                                skus.push_back(
                                    RowView(&table_->schema(), row.data())
                                        .GetInt64(0));
                                return true;
                              }));
  EXPECT_EQ(skus, (std::vector<int64_t>{1, 2}));
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TableTest, IndexScanFiltersInvisibleRows) {
  Open();
  Transaction* t1 = db_->Begin(db_->aux_slot(0));
  InsertItem(t1, 1, "aaa", 1);
  ASSERT_OK(db_->Commit(&ctx_, t1));

  // Uncommitted insert by another transaction: index entry exists, but the
  // row is invisible to a concurrent reader.
  Transaction* t2 = db_->Begin(db_->aux_slot(0));
  InsertItem(t2, 2, "aab", 2);

  Transaction* reader = db_->Begin(db_->aux_slot(1));
  int count = 0;
  ASSERT_OK(table_->IndexScanRef(&ctx_, reader, 0, {Value::Int64(0)},
                                 {Value::Int64(100)},
                                 [&](RowId, Slice) {
                                ++count;
                                return true;
                              }));
  EXPECT_EQ(count, 1);
  ASSERT_OK(db_->Commit(&ctx_, t2));
  ASSERT_OK(db_->Commit(&ctx_, reader));

  // After commit a fresh scan sees both.
  Transaction* reader2 = db_->Begin(db_->aux_slot(1));
  count = 0;
  ASSERT_OK(table_->IndexScanRef(&ctx_, reader2, 0, {Value::Int64(0)},
                                 {Value::Int64(100)},
                                 [&](RowId, Slice) {
                                ++count;
                                return true;
                              }));
  EXPECT_EQ(count, 2);
  ASSERT_OK(db_->Commit(&ctx_, reader2));
}

TEST_F(TableTest, RepeatableReadFirstUpdaterWins) {
  Open();
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = InsertItem(setup, 7, "contended", 100);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  Transaction* rr = db_->Begin(db_->aux_slot(0),
                               IsolationLevel::kRepeatableRead);
  // Make sure rr's snapshot predates the concurrent commit.
  Slice row;
  ASSERT_OK(table_->GetRef(&ctx_, rr, rid, &row));

  Transaction* other = db_->Begin(db_->aux_slot(1));
  ASSERT_OK(table_->Update(&ctx_, other, rid, {{2, Value::Int32(1)}}));
  ASSERT_OK(db_->Commit(&ctx_, other));

  // RR transaction must abort on the stale update.
  Status st = table_->Update(&ctx_, rr, rid, {{2, Value::Int32(2)}});
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  ASSERT_OK(db_->Abort(&ctx_, rr));

  // Read-committed retries against the newest version instead.
  Transaction* rc = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->Update(&ctx_, rc, rid, {{2, Value::Int32(3)}}));
  ASSERT_OK(db_->Commit(&ctx_, rc));
}

TEST_F(TableTest, RepeatableReadSnapshotStable) {
  Open();
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = InsertItem(setup, 9, "stable", 1);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  Transaction* rr = db_->Begin(db_->aux_slot(0),
                               IsolationLevel::kRepeatableRead);
  Slice row;
  ASSERT_OK(table_->GetRef(&ctx_, rr, rid, &row));
  int32_t before = RowView(&table_->schema(), row.data()).GetInt32(2);

  Transaction* writer = db_->Begin(db_->aux_slot(1));
  ASSERT_OK(table_->Update(&ctx_, writer, rid, {{2, Value::Int32(999)}}));
  ASSERT_OK(db_->Commit(&ctx_, writer));

  // Same snapshot, same value — even after a refresh attempt.
  db_->StatementBegin(rr);
  ASSERT_OK(table_->GetRef(&ctx_, rr, rid, &row));
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt32(2), before);
  ASSERT_OK(db_->Commit(&ctx_, rr));

  // RC sees the new value immediately.
  Transaction* rc = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->GetRef(&ctx_, rc, rid, &row));
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt32(2), 999);
  ASSERT_OK(db_->Commit(&ctx_, rc));
}

TEST_F(TableTest, ConcurrentIncrementsAreAtomic) {
  Open();
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = InsertItem(setup, 5, "counter", 0);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  constexpr int kThreads = 4;
  constexpr int kIncrements = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      OpContext ctx;
      ctx.synchronous = true;
      for (int i = 0; i < kIncrements; ++i) {
        for (;;) {
          Transaction* txn = db_->Begin(db_->aux_slot(t));
          Status st = table_->UpdateApply(
              &ctx, txn, rid,
              [](RowView cur,
                 std::vector<std::pair<uint32_t, Value>>* sets) {
                sets->push_back({2, Value::Int32(cur.GetInt32(2) + 1)});
                return Status::OK();
              });
          if (st.ok()) {
            st = db_->Commit(&ctx, txn);
            if (st.ok()) break;
          } else {
            (void)db_->Abort(&ctx, txn);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  Slice row;
  ASSERT_OK(table_->GetRef(&ctx_, reader, rid, &row));
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt32(2),
            kThreads * kIncrements);
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TableTest, KeyChangingUpdateMovesIndexEntry) {
  Open();
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = InsertItem(setup, 10, "oldname", 1);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  Transaction* txn = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(
      table_->Update(&ctx_, txn, rid, {{1, Value::String("newname")}}));
  ASSERT_OK(db_->Commit(&ctx_, txn));
  db_->DrainGc();  // reclaim triggers stale-entry cleanup

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  int old_hits = 0, new_hits = 0;
  ASSERT_OK(table_->IndexScanRef(&ctx_, reader, 1, {Value::String("oldname")},
                                 {}, [&](RowId, Slice) {
                                ++old_hits;
                                return true;
                              }));
  ASSERT_OK(table_->IndexScanRef(&ctx_, reader, 1, {Value::String("newname")},
                                 {}, [&](RowId, Slice) {
                                ++new_hits;
                                return true;
                              }));
  EXPECT_EQ(old_hits, 0);
  EXPECT_EQ(new_hits, 1);
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TableTest, AbortedKeyChangingUpdateRemovesNewKeys) {
  Open();
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = InsertItem(setup, 20, "item", 1);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  // Change both indexed columns, then abort.
  Transaction* txn = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->Update(&ctx_, txn, rid,
                           {{0, Value::Int64(21)}, {1, Value::String("x")}}));
  ASSERT_OK(db_->Abort(&ctx_, txn));
  db_->DrainGc();

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  RowId found = 0;
  Slice row;
  EXPECT_TRUE(
      table_->IndexGetRef(&ctx_, reader, 0, {Value::Int64(21)}, &found, &row)
          .IsNotFound());
  ASSERT_OK(
      table_->IndexGetRef(&ctx_, reader, 0, {Value::Int64(20)}, &found, &row));
  EXPECT_EQ(found, rid);
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt64(0), 20);
  int stale_hits = 0;
  ASSERT_OK(table_->IndexScanRef(&ctx_, reader, 1, {Value::String("x")}, {},
                                 [&](RowId, Slice) {
                                   ++stale_hits;
                                   return true;
                                 }));
  EXPECT_EQ(stale_hits, 0);
  ASSERT_OK(db_->Commit(&ctx_, reader));

  // The aborted key is free for another row.
  Transaction* again = db_->Begin(db_->aux_slot(0));
  InsertItem(again, 21, "other", 2);
  ASSERT_OK(db_->Commit(&ctx_, again));
}

TEST_F(TableTest, AbortedUpdateKeepsKeyOfOlderVisibleVersion) {
  Open();
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = InsertItem(setup, 30, "item", 1);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  // A snapshot taken before 30 -> 31 keeps seeing the row under key 30.
  Transaction* old_snap =
      db_->Begin(db_->aux_slot(1), IsolationLevel::kRepeatableRead);
  Transaction* t1 = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->Update(&ctx_, t1, rid, {{0, Value::Int64(31)}}));
  ASSERT_OK(db_->Commit(&ctx_, t1));
  // 31 -> 30 re-claims the still-present entry of key 30, then aborts.
  Transaction* t2 = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->Update(&ctx_, t2, rid, {{0, Value::Int64(30)}}));
  ASSERT_OK(db_->Abort(&ctx_, t2));

  RowId found = 0;
  Slice row;
  ASSERT_OK(table_->IndexGetRef(&ctx_, old_snap, 0, {Value::Int64(30)},
                                &found, &row));
  EXPECT_EQ(found, rid);
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt64(0), 30);
  ASSERT_OK(db_->Commit(&ctx_, old_snap));

  // Once no snapshot needs the old version, GC drops key 30.
  db_->DrainGc();
  Transaction* reader = db_->Begin(db_->aux_slot(0));
  EXPECT_TRUE(
      table_->IndexGetRef(&ctx_, reader, 0, {Value::Int64(30)}, &found, &row)
          .IsNotFound());
  ASSERT_OK(
      table_->IndexGetRef(&ctx_, reader, 0, {Value::Int64(31)}, &found, &row));
  EXPECT_EQ(found, rid);
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TableTest, IndexArgumentsAreChecked) {
  Open();
  Transaction* txn = db_->Begin(db_->aux_slot(0));
  InsertItem(txn, 40, "item", 1);
  RowId found = 0;
  Slice row;
  auto never = [](RowId, Slice) { return true; };
  EXPECT_TRUE(
      table_->IndexGetRef(&ctx_, txn, 7, {Value::Int64(40)}, &found, &row)
          .IsInvalidArgument());
  EXPECT_TRUE(table_->IndexScanRef(&ctx_, txn, 7, {Value::Int64(40)}, {}, never)
                  .IsInvalidArgument());
  // More values than the one-column index has key columns.
  const std::vector<Value> six(6, Value::Int64(40));
  EXPECT_TRUE(table_->IndexScanRef(&ctx_, txn, 0, six, {}, never)
                  .IsInvalidArgument());
  EXPECT_TRUE(table_->IndexScanRef(&ctx_, txn, 0, {Value::Int64(40)}, six,
                                   never)
                  .IsInvalidArgument());
  ASSERT_OK(db_->Commit(&ctx_, txn));
}

TEST_F(TableTest, GcPurgesDeletedTuplesAndIndexEntries) {
  Open();
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = InsertItem(setup, 11, "doomed", 1);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  Transaction* deleter = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->Delete(&ctx_, deleter, rid));
  ASSERT_OK(db_->Commit(&ctx_, deleter));
  db_->DrainGc();

  // Physical purge removed the row and its index entries (direct index
  // lookup finds nothing, not even a dangling rid).
  Transaction* reader = db_->Begin(db_->aux_slot(0));
  RowId found = 0;
  Slice row;
  EXPECT_TRUE(
      table_->IndexGetRef(&ctx_, reader, 0, {Value::Int64(11)}, &found, &row)
          .IsNotFound());
  EXPECT_TRUE(table_->GetRef(&ctx_, reader, rid, &row).IsNotFound());
  ASSERT_OK(db_->Commit(&ctx_, reader));

  // The sku is insertable again after the purge.
  Transaction* again = db_->Begin(db_->aux_slot(0));
  InsertItem(again, 11, "reborn", 2);
  ASSERT_OK(db_->Commit(&ctx_, again));
}

TEST_F(TableTest, DeadlockTimeoutAbortsOneParty) {
  DatabaseOptions opts;
  opts.deadlock_timeout_ms = 100;
  Open(opts);
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId a = InsertItem(setup, 1, "a", 0);
  RowId b = InsertItem(setup, 2, "b", 0);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  // t1: lock a then b; t2: lock b then a — a guaranteed cycle.
  std::atomic<int> aborted{0};
  auto worker = [&](uint32_t slot, RowId first, RowId second) {
    OpContext ctx;
    ctx.synchronous = true;
    Transaction* txn = db_->Begin(db_->aux_slot(slot));
    Status st = table_->Update(&ctx, txn, first, {{2, Value::Int32(1)}});
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (st.ok()) {
      st = table_->Update(&ctx, txn, second, {{2, Value::Int32(2)}});
    }
    if (st.ok()) {
      EXPECT_OK(db_->Commit(&ctx, txn));
    } else {
      EXPECT_TRUE(st.IsAborted()) << st.ToString();
      aborted.fetch_add(1);
      (void)db_->Abort(&ctx, txn);
    }
  };
  std::thread t1(worker, 0, a, b);
  std::thread t2(worker, 1, b, a);
  t1.join();
  t2.join();
  EXPECT_GE(aborted.load(), 1);
  EXPECT_LE(aborted.load(), 2);
}

TEST_F(TableTest, FreezeThenReadAndScan) {
  DatabaseOptions opts;
  opts.freeze_access_threshold = 1u << 30;  // everything freezable
  opts.freeze_epoch_age = 0;
  Open(opts);
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  const int kRows = 1500;
  std::vector<RowId> rids;
  for (int i = 0; i < kRows; ++i) {
    rids.push_back(InsertItem(setup, 1000 + i, "r" + std::to_string(i), i));
  }
  ASSERT_OK(db_->Commit(&ctx_, setup));
  db_->DrainGc();
  for (int i = 0; i < 4; ++i) db_->pool()->AdvanceEpoch();

  OpContext fctx;
  fctx.synchronous = true;
  auto frozen = table_->FreezePass(&fctx, 100);
  ASSERT_OK(frozen.status());
  EXPECT_GT(frozen.value(), 0);
  EXPECT_GT(table_->frozen()->max_frozen_row_id(), 0u);

  // Frozen rows still readable by rid, by index, and by full scan.
  Transaction* reader = db_->Begin(db_->aux_slot(0));
  Slice row;
  ASSERT_OK(table_->GetRef(&ctx_, reader, rids[10], &row));
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt64(0), 1010);
  RowId found = 0;
  ASSERT_OK(table_->IndexGetRef(&ctx_, reader, 0, {Value::Int64(1010)}, &found,
                                &row));
  EXPECT_EQ(found, rids[10]);
  int seen = 0;
  ASSERT_OK(table_->ScanAllVisible(&ctx_, reader,
                                   [&seen](RowId, Slice) {
                                     ++seen;
                                     return true;
                                   }));
  EXPECT_EQ(seen, kRows);
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TableTest, FrozenUpdateWarmsRow) {
  DatabaseOptions opts;
  opts.freeze_access_threshold = 1u << 30;
  opts.freeze_epoch_age = 0;
  Open(opts);
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  std::vector<RowId> rids;
  for (int i = 0; i < 1500; ++i) {
    rids.push_back(InsertItem(setup, 2000 + i, "f" + std::to_string(i), i));
  }
  ASSERT_OK(db_->Commit(&ctx_, setup));
  db_->DrainGc();
  for (int i = 0; i < 4; ++i) db_->pool()->AdvanceEpoch();
  OpContext fctx;
  fctx.synchronous = true;
  ASSERT_OK(table_->FreezePass(&fctx, 100).status());
  ASSERT_GT(table_->frozen()->max_frozen_row_id(), rids[5]);

  // Update a frozen row: warmed to a fresh rid; index follows.
  Transaction* txn = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->Update(&ctx_, txn, rids[5], {{2, Value::Int32(777)}}));
  ASSERT_OK(db_->Commit(&ctx_, txn));

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  RowId new_rid = 0;
  Slice row;
  ASSERT_OK(table_->IndexGetRef(&ctx_, reader, 0, {Value::Int64(2005)},
                                &new_rid, &row));
  EXPECT_NE(new_rid, rids[5]);
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt32(2), 777);
  EXPECT_TRUE(table_->GetRef(&ctx_, reader, rids[5], &row).IsNotFound());
  ASSERT_OK(db_->Commit(&ctx_, reader));

  // Delete of a frozen row tombstones it.
  Transaction* deleter = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->Delete(&ctx_, deleter, rids[6]));
  ASSERT_OK(db_->Commit(&ctx_, deleter));
  Transaction* reader2 = db_->Begin(db_->aux_slot(0));
  EXPECT_TRUE(table_->GetRef(&ctx_, reader2, rids[6], &row).IsNotFound());
  ASSERT_OK(db_->Commit(&ctx_, reader2));
}

TEST_F(TableTest, ColumnScanMatchesRowScan) {
  DatabaseOptions opts;
  opts.freeze_access_threshold = 1u << 30;
  opts.freeze_epoch_age = 0;
  Open(opts);
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  int64_t expected_sum = 0;
  for (int i = 0; i < 1200; ++i) {
    InsertItem(setup, 5000 + i, "c" + std::to_string(i), i);
    expected_sum += i;
  }
  ASSERT_OK(db_->Commit(&ctx_, setup));
  db_->DrainGc();
  for (int i = 0; i < 4; ++i) db_->pool()->AdvanceEpoch();
  // Freeze part of the table so the scan crosses both tiers.
  OpContext fctx;
  fctx.synchronous = true;
  ASSERT_OK(table_->FreezePass(&fctx, 3).status());
  ASSERT_GT(table_->frozen()->num_blocks(), 0u);

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  int64_t col_sum = 0;
  int col_rows = 0;
  ASSERT_OK(table_->ScanColumnInt64(&ctx_, reader, 2,
                                    [&](RowId, int64_t v) {
                                      col_sum += v;
                                      ++col_rows;
                                      return true;
                                    }));
  EXPECT_EQ(col_sum, expected_sum);
  EXPECT_EQ(col_rows, 1200);

  // Cross-check against the row scan.
  int64_t row_sum = 0;
  ASSERT_OK(table_->ScanAllVisible(&ctx_, reader,
                                   [&](RowId, Slice row) {
                                     row_sum += RowView(&table_->schema(),
                                                        row.data())
                                                    .GetInt32(2);
                                     return true;
                                   }));
  EXPECT_EQ(row_sum, expected_sum);
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TableTest, ColumnScanSkipsUncommittedViaChainFallback) {
  Open();
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = InsertItem(setup, 77, "base", 10);
  InsertItem(setup, 78, "other", 20);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  // Uncommitted in-place update: the direct PAX value is 999, but scans
  // must surface the committed version (10).
  Transaction* writer = db_->Begin(db_->aux_slot(1));
  ASSERT_OK(table_->Update(&ctx_, writer, rid, {{2, Value::Int32(999)}}));

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  int64_t sum = 0;
  ASSERT_OK(table_->ScanColumnInt64(&ctx_, reader, 2,
                                    [&](RowId, int64_t v) {
                                      sum += v;
                                      return true;
                                    }));
  EXPECT_EQ(sum, 30);
  ASSERT_OK(db_->Commit(&ctx_, reader));
  ASSERT_OK(db_->Abort(&ctx_, writer));
}

TEST_F(TableTest, ColumnScanRejectsWrongTypes) {
  Open();
  Transaction* txn = db_->Begin(db_->aux_slot(0));
  EXPECT_TRUE(table_->ScanColumnInt64(&ctx_, txn, 1, nullptr)
                  .IsInvalidArgument());  // string column
  EXPECT_TRUE(table_->ScanColumnDouble(&ctx_, txn, 2, nullptr)
                  .IsInvalidArgument());  // int column
  EXPECT_TRUE(table_->ScanColumnInt64(&ctx_, txn, 99, nullptr)
                  .IsInvalidArgument());
  ASSERT_OK(db_->Commit(&ctx_, txn));
}

TEST_F(TableTest, WarmPassRevivesHotFrozenRows) {
  DatabaseOptions opts;
  opts.freeze_access_threshold = 1u << 30;
  opts.freeze_epoch_age = 0;
  opts.warm_read_threshold = 8;
  Open(opts);
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  std::vector<RowId> rids;
  for (int i = 0; i < 1200; ++i) {
    rids.push_back(InsertItem(setup, 4000 + i, "w" + std::to_string(i), i));
  }
  ASSERT_OK(db_->Commit(&ctx_, setup));
  db_->DrainGc();
  for (int i = 0; i < 4; ++i) db_->pool()->AdvanceEpoch();
  OpContext fctx;
  fctx.synchronous = true;
  ASSERT_OK(table_->FreezePass(&fctx, 100).status());
  RowId watermark = table_->frozen()->max_frozen_row_id();
  ASSERT_GT(watermark, rids[0]);

  // Hammer reads on one frozen row's block past the warm threshold.
  Transaction* reader = db_->Begin(db_->aux_slot(0));
  Slice row;
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(table_->GetRef(&ctx_, reader, rids[3], &row));
  }
  ASSERT_OK(db_->Commit(&ctx_, reader));

  // Warm pass moves the hot block's rows back into the tree.
  Transaction* maint = db_->Begin(db_->aux_slot(1));
  ASSERT_OK(table_->WarmPass(&fctx, maint, 1024));
  ASSERT_OK(db_->Commit(&ctx_, maint));
  db_->DrainGc();

  // The warmed row lives at a fresh rid above the watermark, reachable via
  // its index, with the frozen copy tombstoned.
  Transaction* verify = db_->Begin(db_->aux_slot(0));
  RowId new_rid = 0;
  ASSERT_OK(table_->IndexGetRef(&ctx_, verify, 0, {Value::Int64(4003)},
                                &new_rid, &row));
  EXPECT_GT(new_rid, watermark);
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt32(2), 3);
  EXPECT_TRUE(table_->GetRef(&ctx_, verify, rids[3], &row).IsNotFound());
  ASSERT_OK(db_->Commit(&ctx_, verify));
}

TEST_F(TableTest, StaleFrozenBlockIsShadowedByLiveTreeRows) {
  // Construct the "freeze raced a writer" state directly: rows stay live in
  // the tree while a stale copy of them sits in the frozen store with the
  // watermark advanced. The tree must stay authoritative everywhere.
  Open();
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  std::vector<RowId> rids;
  std::vector<std::string> stale_rows;
  for (int i = 0; i < 10; ++i) {
    RowId rid = InsertItem(setup, 9000 + i, "orig", 100 + i);
    rids.push_back(rid);
    RowBuilder b(&table_->schema());
    b.SetInt64(0, 9000 + i).SetString(1, "stale").SetInt32(2, -1);
    stale_rows.push_back(b.Encode().value());
  }
  ASSERT_OK(db_->Commit(&ctx_, setup));
  db_->DrainGc();
  ASSERT_OK(table_->frozen()->FreezeBlock(rids, stale_rows, rids.back()));
  ASSERT_GE(table_->frozen()->max_frozen_row_id(), rids.back());

  // Point reads return the tree version.
  Transaction* reader = db_->Begin(db_->aux_slot(0));
  Slice row;
  ASSERT_OK(table_->GetRef(&ctx_, reader, rids[0], &row));
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetString(1),
            Slice("orig"));

  // Full scans emit each rid exactly once, with tree values.
  int seen = 0;
  ASSERT_OK(table_->ScanAllVisible(
      &ctx_, reader, [&](RowId, Slice r) {
        EXPECT_EQ(RowView(&table_->schema(), r.data()).GetString(1),
                  Slice("orig"));
        ++seen;
        return true;
      }));
  EXPECT_EQ(seen, 10);

  // Columnar scans skip the stale block too.
  int64_t sum = 0;
  int rows_scanned = 0;
  ASSERT_OK(table_->ScanColumnInt64(&ctx_, reader, 2,
                                    [&](RowId, int64_t v) {
                                      EXPECT_GE(v, 100);
                                      sum += v;
                                      ++rows_scanned;
                                      return true;
                                    }));
  EXPECT_EQ(rows_scanned, 10);
  ASSERT_OK(db_->Commit(&ctx_, reader));

  // Updates hit the tree row.
  Transaction* writer = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->Update(&ctx_, writer, rids[1], {{2, Value::Int32(777)}}));
  ASSERT_OK(db_->Commit(&ctx_, writer));

  // Deletes tombstone the shadow so GC purging cannot resurrect it.
  Transaction* deleter = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->Delete(&ctx_, deleter, rids[2]));
  ASSERT_OK(db_->Commit(&ctx_, deleter));
  db_->DrainGc();  // physically purges the tree slot
  Transaction* reader2 = db_->Begin(db_->aux_slot(0));
  EXPECT_TRUE(table_->GetRef(&ctx_, reader2, rids[2], &row).IsNotFound());
  ASSERT_OK(db_->Commit(&ctx_, reader2));
}

// A freeze that raced a writer leaves its leaf in the tree with the
// watermark past it; later freeze passes then detach the leaves after it,
// whose row ids the parent routes to that stale leaf. Scans must still
// reach every leaf beyond the gap.
TEST_F(TableTest, ScansCrossGapAfterStaleLeaf) {
  DatabaseOptions opts;
  opts.freeze_access_threshold = 1u << 30;  // everything freezable
  opts.freeze_epoch_age = 0;
  Open(opts);
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  const int kRows = 3000;
  std::vector<RowId> rids;
  for (int i = 0; i < kRows; ++i) {
    rids.push_back(InsertItem(setup, 1000 + i, "r" + std::to_string(i), i));
  }
  ASSERT_OK(db_->Commit(&ctx_, setup));
  db_->DrainGc();
  db_->pool()->AdvanceEpoch();

  OpContext fctx;
  fctx.synchronous = true;
  ASSERT_OK(table_->FreezePass(&fctx, 1).status());
  const RowId leaf_end = table_->frozen()->max_frozen_row_id();
  ASSERT_GT(leaf_end, 0u);
  const RowId cap = leaf_end - rids[0] + 1;
  ASSERT_LT(rids[0] + 5 * cap, rids.back());

  // The second leaf: frozen, but never detached.
  Transaction* reader = db_->Begin(db_->aux_slot(0));
  std::vector<RowId> stale_rids;
  std::vector<std::string> stale_rows;
  for (RowId rid = leaf_end + 1; rid <= leaf_end + cap; ++rid) {
    Slice row;
    ASSERT_OK(table_->GetRef(&ctx_, reader, rid, &row));
    stale_rids.push_back(rid);
    stale_rows.push_back(row.ToString());
  }
  ASSERT_OK(db_->Commit(&ctx_, reader));
  ASSERT_OK(
      table_->frozen()->FreezeBlock(stale_rids, stale_rows, leaf_end + cap));
  // The next two leaves are frozen and detached behind it.
  auto frozen = table_->FreezePass(&fctx, 2);
  ASSERT_OK(frozen.status());
  ASSERT_EQ(frozen.value(), 2);

  reader = db_->Begin(db_->aux_slot(0));
  std::set<int64_t> skus;
  ASSERT_OK(table_->ScanAllVisible(&ctx_, reader, [&](RowId, Slice r) {
    EXPECT_TRUE(skus.insert(RowView(&table_->schema(), r.data()).GetInt64(0))
                    .second);
    return true;
  }));
  EXPECT_EQ(skus.size(), static_cast<size_t>(kRows));
  int col_rows = 0;
  ASSERT_OK(table_->ScanColumnInt64(&ctx_, reader, 0, [&](RowId, int64_t) {
    ++col_rows;
    return true;
  }));
  EXPECT_EQ(col_rows, kRows);
  Slice row;
  ASSERT_OK(table_->GetRef(&ctx_, reader, rids.back(), &row));
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

// --- Key encoding properties ----------------------------------------------------

TEST(KeyEncodingTest, IntOrderPreserved) {
  Schema s({{"k", ColumnType::kInt64, 0, false}});
  Random rng(17);
  Arena arena;
  for (int i = 0; i < 2000; ++i) {
    int64_t a = static_cast<int64_t>(rng.Next());
    int64_t b = static_cast<int64_t>(rng.Next());
    auto ka = Table::EncodeKeyValuesTo(s, {0}, {Value::Int64(a)}, &arena);
    auto kb = Table::EncodeKeyValuesTo(s, {0}, {Value::Int64(b)}, &arena);
    ASSERT_OK_R(ka);
    ASSERT_OK_R(kb);
    ASSERT_EQ(a < b, ka.value().compare(kb.value()) < 0) << a << " vs " << b;
  }
}

TEST(KeyEncodingTest, CompositeStringOrdering) {
  Schema s({{"w", ColumnType::kInt32, 0, false},
            {"last", ColumnType::kString, 16, false}});
  Arena arena;
  auto key = [&](int32_t w, const char* last) {
    auto k = Table::EncodeKeyValuesTo(
        s, {0, 1}, {Value::Int32(w), Value::String(last)}, &arena);
    EXPECT_TRUE(k.ok());
    return k.value();
  };
  Slice k1 = key(1, "ABLE");
  EXPECT_LT(k1.compare(key(1, "BAR")), 0);
  EXPECT_LT(key(1, "BAR").compare(key(2, "AAA")), 0);
  // Shorter string that is a prefix sorts first.
  EXPECT_LT(key(1, "AB").compare(k1), 0);
}

TEST(KeyEncodingTest, ValueAndRowSourcesAgree) {
  Schema s({{"w", ColumnType::kInt32, 0, false},
            {"name", ColumnType::kString, 16, true},
            {"id", ColumnType::kInt64, 0, false}});
  const std::vector<uint32_t> cols = {2, 1, 0};
  Arena arena;
  for (bool null_name : {false, true}) {
    RowBuilder b(&s);
    b.SetInt32(0, -7).SetInt64(2, 1ll << 40);
    if (null_name) {
      b.SetNull(1);
    } else {
      b.SetString(1, "abc");
    }
    std::string row = b.Encode().value();
    std::vector<Value> values = {Value::Int64(1ll << 40),
                                 null_name ? Value::Null(ColumnType::kString)
                                           : Value::String("abc"),
                                 Value::Int32(-7)};
    auto from_values = Table::EncodeKeyValuesTo(s, cols, values, &arena);
    ASSERT_OK_R(from_values);
    auto from_row =
        Table::EncodeKeyFromRowTo(s, cols, RowView(&s, row.data()), &arena);
    ASSERT_OK_R(from_row);
    EXPECT_EQ(from_row.value(), from_values.value());
    EXPECT_EQ(from_row.value().size(), 8u + (null_name ? 0u : 3u) + 1u + 8u);
  }
  EXPECT_TRUE(Table::EncodeKeyValuesTo(s, cols, {Value::Int64(1)}, &arena)
                  .status()
                  .IsInvalidArgument());
}

TEST(KeyEncodingTest, PrefixSuccessor) {
  EXPECT_EQ(Table::PrefixSuccessor("abc"), "abd");
  std::string with_ff = std::string("a") + '\xff';
  EXPECT_EQ(Table::PrefixSuccessor(with_ff), "b");
  EXPECT_EQ(Table::PrefixSuccessor(std::string(2, '\xff')), "");
  EXPECT_EQ(Table::PrefixSuccessor(""), "");
}

}  // namespace
}  // namespace phoebe
