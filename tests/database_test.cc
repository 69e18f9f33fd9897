#include "phoebe.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace phoebe {
namespace {

Schema AccountSchema() {
  return Schema({
      {"id", ColumnType::kInt64, 0, false},
      {"owner", ColumnType::kString, 32, false},
      {"balance", ColumnType::kDouble, 0, false},
      {"notes", ColumnType::kString, 100, true},
  });
}

class DatabaseTest : public ::testing::Test {
 protected:
  void Open(DatabaseOptions opts = {}, uint64_t buffer_bytes = 16ull << 20) {
    dir_ = std::make_unique<TestDir>("database");
    opts.path = dir_->path();
    opts.workers = 2;
    opts.slots_per_worker = 4;
    opts.buffer_bytes = buffer_bytes;
    auto db = Database::Open(opts);
    ASSERT_OK_R(db);
    db_ = std::move(db.value());
    ctx_.synchronous = true;
  }

  std::string MakeRow(Table* t, int64_t id, const std::string& owner,
                      double balance) {
    RowBuilder b(&t->schema());
    b.SetInt64(0, id).SetString(1, owner).SetDouble(2, balance);
    auto r = b.Encode();
    EXPECT_TRUE(r.ok());
    return r.value();
  }

  std::unique_ptr<TestDir> dir_;
  std::unique_ptr<Database> db_;
  OpContext ctx_;
};

TEST_F(DatabaseTest, InsertGetCommit) {
  Open();
  auto table = db_->CreateTable("accounts", AccountSchema());
  ASSERT_OK_R(table);
  Table* t = table.value();
  ASSERT_OK(db_->CreateIndex("accounts", "pk", {0}, true));

  Transaction* txn = db_->Begin(db_->aux_slot());
  RowId rid = 0;
  ASSERT_OK(t->Insert(&ctx_, txn, MakeRow(t, 1, "alice", 100.0), &rid));
  EXPECT_NE(rid, 0u);
  ASSERT_OK(db_->Commit(&ctx_, txn));

  Transaction* reader = db_->Begin(db_->aux_slot());
  Slice row;
  ASSERT_OK(t->GetRef(&ctx_, reader, rid, &row));
  RowView view(&t->schema(), row.data());
  EXPECT_EQ(view.GetInt64(0), 1);
  EXPECT_EQ(view.GetString(1), Slice("alice"));
  EXPECT_DOUBLE_EQ(view.GetDouble(2), 100.0);
  EXPECT_TRUE(view.IsNull(3));
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(DatabaseTest, UpdateVisibleAfterCommitOnly) {
  Open();
  Table* t = db_->CreateTable("accounts", AccountSchema()).value();
  Transaction* txn = db_->Begin(db_->aux_slot(0));
  RowId rid = 0;
  ASSERT_OK(t->Insert(&ctx_, txn, MakeRow(t, 1, "alice", 100.0), &rid));
  ASSERT_OK(db_->Commit(&ctx_, txn));

  // Writer updates but does not commit yet.
  Transaction* writer = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(t->Update(&ctx_, writer, rid, {{2, Value::Double(250.0)}}));

  // A concurrent reader sees the old version through the UNDO chain.
  Transaction* reader = db_->Begin(db_->aux_slot(1));
  Slice row;
  ASSERT_OK(t->GetRef(&ctx_, reader, rid, &row));
  EXPECT_DOUBLE_EQ(RowView(&t->schema(), row.data()).GetDouble(2), 100.0);
  ASSERT_OK(db_->Commit(&ctx_, reader));

  // The writer itself sees its own write.
  ASSERT_OK(t->GetRef(&ctx_, writer, rid, &row));
  EXPECT_DOUBLE_EQ(RowView(&t->schema(), row.data()).GetDouble(2), 250.0);
  ASSERT_OK(db_->Commit(&ctx_, writer));

  // After commit everyone sees the new version.
  Transaction* reader2 = db_->Begin(db_->aux_slot(1));
  ASSERT_OK(t->GetRef(&ctx_, reader2, rid, &row));
  EXPECT_DOUBLE_EQ(RowView(&t->schema(), row.data()).GetDouble(2), 250.0);
  ASSERT_OK(db_->Commit(&ctx_, reader2));
}

TEST_F(DatabaseTest, AbortRollsBack) {
  Open();
  Table* t = db_->CreateTable("accounts", AccountSchema()).value();
  ASSERT_OK(db_->CreateIndex("accounts", "pk", {0}, true));

  Transaction* txn = db_->Begin(db_->aux_slot());
  RowId rid1 = 0;
  ASSERT_OK(t->Insert(&ctx_, txn, MakeRow(t, 1, "alice", 100.0), &rid1));
  ASSERT_OK(db_->Commit(&ctx_, txn));

  // Abort an update + an insert.
  Transaction* bad = db_->Begin(db_->aux_slot());
  ASSERT_OK(t->Update(&ctx_, bad, rid1, {{2, Value::Double(0.0)}}));
  RowId rid2 = 0;
  ASSERT_OK(t->Insert(&ctx_, bad, MakeRow(t, 2, "bob", 5.0), &rid2));
  ASSERT_OK(db_->Abort(&ctx_, bad));

  Transaction* reader = db_->Begin(db_->aux_slot());
  Slice row;
  ASSERT_OK(t->GetRef(&ctx_, reader, rid1, &row));
  EXPECT_DOUBLE_EQ(RowView(&t->schema(), row.data()).GetDouble(2), 100.0);
  EXPECT_TRUE(t->GetRef(&ctx_, reader, rid2, &row).IsNotFound());
  // The aborted insert's index entry is gone too.
  RowId found = 0;
  EXPECT_TRUE(t->IndexGetRef(&ctx_, reader, 0, {Value::Int64(2)}, &found, &row)
                  .IsNotFound());
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

// A transaction that wrote nothing logs nothing: no commit record, no
// flush, whether or not it read anything.
TEST_F(DatabaseTest, ReadOnlyCommitLogsNothing) {
  Open();
  Table* t = db_->CreateTable("accounts", AccountSchema()).value();
  Transaction* txn = db_->Begin(db_->aux_slot());
  RowId rid = 0;
  ASSERT_OK(t->Insert(&ctx_, txn, MakeRow(t, 1, "alice", 100.0), &rid));
  ASSERT_OK(db_->Commit(&ctx_, txn));

  const uint64_t appends = db_->wal()->pipeline_stats().appends.load();
  const uint64_t flushes = IoStats::Global().wal_flushes.load();
  Transaction* reader = db_->Begin(db_->aux_slot());
  Slice row;
  ASSERT_OK(t->GetRef(&ctx_, reader, rid, &row));
  ASSERT_OK(db_->Commit(&ctx_, reader));
  Transaction* empty = db_->Begin(db_->aux_slot(1));
  ASSERT_OK(db_->Commit(&ctx_, empty));
  EXPECT_EQ(db_->wal()->pipeline_stats().appends.load(), appends);
  EXPECT_EQ(IoStats::Global().wal_flushes.load(), flushes);
}

// An abort logs no record of its own; the aborted transaction's data
// records reach the log (ahead of a later commit on the same writer) and
// recovery must still drop them for lack of a commit.
TEST_F(DatabaseTest, AbortedRecordsAbsentAfterRecovery) {
  Open();
  Table* t = db_->CreateTable("accounts", AccountSchema()).value();
  ASSERT_OK(db_->CreateIndex("accounts", "pk", {0}, true));
  Transaction* txn = db_->Begin(db_->aux_slot());
  RowId rid1 = 0;
  ASSERT_OK(t->Insert(&ctx_, txn, MakeRow(t, 1, "alice", 100.0), &rid1));
  ASSERT_OK(db_->Commit(&ctx_, txn));

  Transaction* bad = db_->Begin(db_->aux_slot());
  ASSERT_OK(t->Update(&ctx_, bad, rid1, {{2, Value::Double(0.0)}}));
  RowId rid2 = 0;
  ASSERT_OK(t->Insert(&ctx_, bad, MakeRow(t, 2, "bob", 5.0), &rid2));
  const uint64_t appends = db_->wal()->pipeline_stats().appends.load();
  ASSERT_OK(db_->Abort(&ctx_, bad));
  EXPECT_EQ(db_->wal()->pipeline_stats().appends.load(), appends);

  // Same slot, same writer: this commit's flush carries bad's records.
  Transaction* good = db_->Begin(db_->aux_slot());
  RowId rid3 = 0;
  ASSERT_OK(t->Insert(&ctx_, good, MakeRow(t, 3, "carol", 7.0), &rid3));
  ASSERT_OK(db_->Commit(&ctx_, good));

  std::string path = dir_->path();
  db_->TEST_SimulateCrash();
  db_.reset();
  DatabaseOptions reopen;
  reopen.path = path;
  reopen.workers = 2;
  reopen.slots_per_worker = 4;
  reopen.buffer_bytes = 16ull << 20;
  auto db2 = Database::Open(reopen);
  ASSERT_OK_R(db2);
  Database* db = db2.value().get();
  EXPECT_TRUE(db->recovery_info().ran);
  EXPECT_GE(db->recovery_info().skipped_uncommitted, 2u);

  t = db->GetTable("accounts").value();
  Transaction* reader = db->Begin(db->aux_slot());
  Slice row;
  RowId found = 0;
  ASSERT_OK(
      t->IndexGetRef(&ctx_, reader, 0, {Value::Int64(1)}, &found, &row));
  EXPECT_DOUBLE_EQ(RowView(&t->schema(), row.data()).GetDouble(2), 100.0);
  EXPECT_TRUE(t->IndexGetRef(&ctx_, reader, 0, {Value::Int64(2)}, &found,
                             &row)
                  .IsNotFound());
  ASSERT_OK(
      t->IndexGetRef(&ctx_, reader, 0, {Value::Int64(3)}, &found, &row));
  ASSERT_OK(db->Commit(&ctx_, reader));
  ASSERT_OK(db->Close());
}

// A rollback logs nothing, so it must leave no GSN on the page that its
// writer will never flush past: once the aborted writes are flushed, a
// reader on another slot has no remote dependency on the page.
TEST_F(DatabaseTest, RolledBackPageCarriesNoRemoteDependency) {
  Open();
  Table* t = db_->CreateTable("accounts", AccountSchema()).value();
  Transaction* txn = db_->Begin(db_->aux_slot(0));
  RowId rid = 0;
  ASSERT_OK(t->Insert(&ctx_, txn, MakeRow(t, 1, "alice", 100.0), &rid));
  ASSERT_OK(db_->Commit(&ctx_, txn));

  Transaction* bad = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(t->Update(&ctx_, bad, rid, {{2, Value::Double(0.0)}}));
  ASSERT_OK(db_->Abort(&ctx_, bad));
  ASSERT_OK_R(db_->wal()->WriterFor(db_->aux_slot(0)).Flush());

  Transaction* reader = db_->Begin(db_->aux_slot(1));
  Slice row;
  ASSERT_OK(t->GetRef(&ctx_, reader, rid, &row));
  EXPECT_DOUBLE_EQ(RowView(&t->schema(), row.data()).GetDouble(2), 100.0);
  EXPECT_FALSE(reader->remote_dependency);
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(DatabaseTest, DeleteHidesRow) {
  Open();
  Table* t = db_->CreateTable("accounts", AccountSchema()).value();
  Transaction* txn = db_->Begin(db_->aux_slot(0));
  RowId rid = 0;
  ASSERT_OK(t->Insert(&ctx_, txn, MakeRow(t, 1, "alice", 100.0), &rid));
  ASSERT_OK(db_->Commit(&ctx_, txn));

  Transaction* deleter = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(t->Delete(&ctx_, deleter, rid));

  // Concurrent reader (older snapshot) still sees the row.
  Transaction* reader = db_->Begin(db_->aux_slot(1), IsolationLevel::kRepeatableRead);
  Slice row;
  ASSERT_OK(t->GetRef(&ctx_, reader, rid, &row));
  ASSERT_OK(db_->Commit(&ctx_, deleter));

  // The RR reader keeps its snapshot: still visible.
  ASSERT_OK(t->GetRef(&ctx_, reader, rid, &row));
  ASSERT_OK(db_->Commit(&ctx_, reader));

  // Fresh reader: gone.
  Transaction* reader2 = db_->Begin(db_->aux_slot(1));
  EXPECT_TRUE(t->GetRef(&ctx_, reader2, rid, &row).IsNotFound());
  ASSERT_OK(db_->Commit(&ctx_, reader2));
}

TEST_F(DatabaseTest, RecoveryReplaysCommitted) {
  DatabaseOptions opts;
  Open(opts);
  RowId rid = 0;
  {
    Table* t = db_->CreateTable("accounts", AccountSchema()).value();
    ASSERT_OK(db_->CreateIndex("accounts", "pk", {0}, true));
    Transaction* txn = db_->Begin(db_->aux_slot());
    ASSERT_OK(t->Insert(&ctx_, txn, MakeRow(t, 7, "carol", 77.0), &rid));
    ASSERT_OK(db_->Commit(&ctx_, txn));
    // Uncommitted transaction that must NOT survive the crash.
    Transaction* loser = db_->Begin(db_->aux_slot());
    RowId rid2 = 0;
    ASSERT_OK(t->Insert(&ctx_, loser, MakeRow(t, 8, "mallory", 1.0), &rid2));
    // Force the WAL to disk so the committed record is durable.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Simulate a crash: drop the Database object without Close()'s checkpoint
  // by re-opening over the same directory. (The destructor checkpoints, so
  // instead we reopen against a copy of the state... simplest: leak it.)
  std::string path = dir_->path();
  db_->TEST_SimulateCrash();
  db_.release();  // intentional leak: simulates a crash (no clean shutdown)

  DatabaseOptions reopen;
  reopen.path = path;
  reopen.workers = 2;
  reopen.slots_per_worker = 4;
  reopen.buffer_bytes = 16ull << 20;
  auto db2 = Database::Open(reopen);
  ASSERT_OK_R(db2);
  EXPECT_TRUE(db2.value()->recovery_info().ran);

  Table* t = db2.value()->GetTable("accounts").value();
  Transaction* reader = db2.value()->Begin(db2.value()->aux_slot());
  Slice row;
  ASSERT_OK(t->GetRef(&ctx_, reader, rid, &row));
  EXPECT_EQ(RowView(&t->schema(), row.data()).GetInt64(0), 7);
  // The uncommitted row is absent.
  RowId found = 0;
  EXPECT_TRUE(
      t->IndexGetRef(&ctx_, reader, 0, {Value::Int64(8)}, &found, &row)
          .IsNotFound());
  ASSERT_OK(db2.value()->Commit(&ctx_, reader));
  ASSERT_OK(db2.value()->Close());
}

TEST_F(DatabaseTest, RecoveryReplaysKeyChangingUpdate) {
  Open();
  RowId rid = 0;
  {
    Table* t = db_->CreateTable("accounts", AccountSchema()).value();
    ASSERT_OK(db_->CreateIndex("accounts", "pk", {0}, true));
    Transaction* txn = db_->Begin(db_->aux_slot());
    ASSERT_OK(t->Insert(&ctx_, txn, MakeRow(t, 7, "carol", 77.0), &rid));
    ASSERT_OK(db_->Commit(&ctx_, txn));
    Transaction* mover = db_->Begin(db_->aux_slot());
    ASSERT_OK(t->Update(&ctx_, mover, rid, {{0, Value::Int64(9)}}));
    ASSERT_OK(db_->Commit(&ctx_, mover));
    // Let the WAL flusher make the commits durable.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::string path = dir_->path();
  db_->TEST_SimulateCrash();
  db_.release();  // intentional leak: simulates a crash (no clean shutdown)

  DatabaseOptions reopen;
  reopen.path = path;
  reopen.workers = 2;
  reopen.slots_per_worker = 4;
  reopen.buffer_bytes = 16ull << 20;
  auto db2 = Database::Open(reopen);
  ASSERT_OK_R(db2);
  Database* db = db2.value().get();
  EXPECT_TRUE(db->recovery_info().ran);

  // Replay moved the index entry from key 7 to key 9.
  Table* t = db->GetTable("accounts").value();
  Transaction* reader = db->Begin(db->aux_slot());
  RowId found = 0;
  Slice row;
  EXPECT_TRUE(t->IndexGetRef(&ctx_, reader, 0, {Value::Int64(7)}, &found, &row)
                  .IsNotFound());
  ASSERT_OK(t->IndexGetRef(&ctx_, reader, 0, {Value::Int64(9)}, &found, &row));
  EXPECT_EQ(found, rid);
  EXPECT_EQ(RowView(&t->schema(), row.data()).GetInt64(0), 9);
  ASSERT_OK(db->Commit(&ctx_, reader));

  // Key 7 is free again.
  Transaction* txn = db->Begin(db->aux_slot());
  RowId rid7 = 0;
  ASSERT_OK(t->Insert(&ctx_, txn, MakeRow(t, 7, "dave", 1.0), &rid7));
  ASSERT_OK(db->Commit(&ctx_, txn));
  ASSERT_OK(db->Close());
}

TEST_F(DatabaseTest, DropTableAndIndex) {
  Open();
  Table* t = db_->CreateTable("accounts", AccountSchema()).value();
  ASSERT_OK(db_->CreateIndex("accounts", "pk", {0}, true));
  ASSERT_OK(db_->CreateIndex("accounts", "by_owner", {1}, false));
  Transaction* txn = db_->Begin(db_->aux_slot());
  RowId rid = 0;
  for (int i = 0; i < 500; ++i) {
    ASSERT_OK(t->Insert(&ctx_, txn, MakeRow(t, i, "o" + std::to_string(i), 1.0),
                        &rid));
    rid = 0;
  }
  ASSERT_OK(db_->Commit(&ctx_, txn));
  db_->DrainGc();

  // Drop one index: the other keeps working.
  ASSERT_OK(db_->DropIndex("accounts", "by_owner"));
  EXPECT_EQ(t->FindIndex("by_owner"), -1);
  Transaction* reader = db_->Begin(db_->aux_slot());
  Slice row;
  RowId found = 0;
  ASSERT_OK(t->IndexGetRef(&ctx_, reader, 0, {Value::Int64(42)}, &found, &row));
  ASSERT_OK(db_->Commit(&ctx_, reader));
  EXPECT_TRUE(db_->DropIndex("accounts", "by_owner").IsNotFound());

  // Drop the table: frames return to the pool, the name becomes reusable.
  size_t free_before = 0;
  for (uint32_t p = 0; p < db_->pool()->partitions(); ++p) {
    free_before += db_->pool()->FreeFrames(p);
  }
  ASSERT_OK(db_->DropTable("accounts"));
  size_t free_after = 0;
  for (uint32_t p = 0; p < db_->pool()->partitions(); ++p) {
    free_after += db_->pool()->FreeFrames(p);
  }
  EXPECT_GT(free_after, free_before);
  EXPECT_TRUE(db_->GetTable("accounts").status().IsNotFound());
  EXPECT_TRUE(db_->DropTable("accounts").IsNotFound());
  Table* again = db_->CreateTable("accounts", AccountSchema()).value();
  EXPECT_NE(again, nullptr);

  // The drop persists across a clean restart.
  std::string path = dir_->path();
  ASSERT_OK(db_->Close());
  db_.reset();
  DatabaseOptions reopen;
  reopen.path = path;
  reopen.workers = 2;
  reopen.slots_per_worker = 4;
  reopen.buffer_bytes = 16ull << 20;
  auto db2 = Database::Open(reopen);
  ASSERT_OK_R(db2);
  Table* t2 = db2.value()->GetTable("accounts").value();
  EXPECT_EQ(t2->FindIndex("by_owner"), -1);
  ASSERT_OK(db2.value()->Close());
}

TEST_F(DatabaseTest, LockFilePreventsDoubleOpen) {
  Open();
  DatabaseOptions again;
  again.path = dir_->path();
  again.workers = 1;
  again.slots_per_worker = 2;
  auto second = Database::Open(again);
  EXPECT_TRUE(second.status().IsAborted()) << second.status().ToString();
  // Closing the first releases the lock.
  ASSERT_OK(db_->Close());
  db_.reset();
  auto third = Database::Open(again);
  ASSERT_OK_R(third);
  ASSERT_OK(third.value()->Close());
  dir_.reset();
  dir_ = std::make_unique<TestDir>("database");  // fresh dir for TearDown
}

TEST_F(DatabaseTest, CheckpointRequiresQuiescence) {
  Open();
  Table* t = db_->CreateTable("accounts", AccountSchema()).value();
  // A scheduler slot: its undo waits for its worker (none runs here), where
  // an aux slot would reclaim it at commit.
  Transaction* txn = db_->Begin(0);
  RowId rid = 0;
  ASSERT_OK(t->Insert(&ctx_, txn, MakeRow(t, 1, "a", 1.0), &rid));
  EXPECT_TRUE(db_->CheckpointNow().IsAborted());  // active txn
  ASSERT_OK(db_->Commit(&ctx_, txn));
  EXPECT_TRUE(db_->CheckpointNow().IsAborted());  // un-reclaimed undo
  db_->DrainGc();
  ASSERT_OK(db_->CheckpointNow());
}

// No scheduler worker collects aux slots, so a synchronous load on one
// relies on Commit reclaiming the slot's UNDO and sweeping the twin tables
// that would otherwise pin every written page. With no GC call anywhere, a
// load of twice the pool must evict its way through and leave no live UNDO.
TEST_F(DatabaseTest, AuxSlotLoadReclaimsAtCommit) {
  constexpr uint64_t kBuffer = 8ull << 20;
  constexpr int64_t kRows = 128 * 1024;
  constexpr int64_t kBatch = 1000;
  Open({}, kBuffer);
  Table* t = db_->CreateTable("accounts", AccountSchema()).value();
  ASSERT_OK(db_->CreateIndex("accounts", "pk", {0}, true));
  const std::string notes(100, 'x');
  uint64_t row_bytes = 0;
  for (int64_t base = 0; base < kRows; base += kBatch) {
    Transaction* txn = db_->Begin(db_->aux_slot());
    for (int64_t id = base; id < std::min(kRows, base + kBatch); ++id) {
      RowBuilder b(&t->schema());
      b.SetInt64(0, id).SetString(1, "owner").SetDouble(2, 1.0).SetString(
          3, notes);
      std::string row = b.Encode().value();
      row_bytes += row.size();
      RowId rid = 0;
      ASSERT_OK(t->Insert(&ctx_, txn, row, &rid));
    }
    ASSERT_OK(db_->Commit(&ctx_, txn));
  }
  EXPECT_GE(row_bytes, 2 * kBuffer);
  EXPECT_EQ(db_->txn_manager()->TotalLiveUndo(), 0u);
  EXPECT_GT(MetricValue(db_->Metrics(), "buffer.evictions"), 0);

  Transaction* reader = db_->Begin(db_->aux_slot());
  for (int64_t id : {int64_t{0}, kRows / 2, kRows - 1}) {
    RowId rid = 0;
    ASSERT_OK(t->IndexGetRef(&ctx_, reader, 0, {Value::Int64(id)}, &rid,
                             nullptr));
  }
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(DatabaseTest, StatsSurface) {
  Open();
  Table* t = db_->CreateTable("accounts", AccountSchema()).value();
  Transaction* txn = db_->Begin(db_->aux_slot());
  RowId rid = 0;
  ASSERT_OK(t->Insert(&ctx_, txn, MakeRow(t, 1, "alice", 1.0), &rid));
  MetricList mid = db_->Metrics();
  EXPECT_EQ(MetricValue(mid, "txn.active"), 1);
  EXPECT_GT(MetricValue(mid, "txn.live_undo"), 0);
  EXPECT_GT(MetricValue(mid, "buffer.frames_total"),
            MetricValue(mid, "buffer.frames_free"));
  ASSERT_OK(db_->Commit(&ctx_, txn));
  db_->DrainGc();
  MetricList after = db_->Metrics();
  EXPECT_EQ(MetricValue(after, "txn.active"), 0);
  EXPECT_EQ(MetricValue(after, "txn.live_undo"), 0);
  EXPECT_GT(MetricValue(after, "txn.clock"), 0);
}

TEST_F(DatabaseTest, UmbrellaVersion) {
  EXPECT_GE(kVersionMajor, 1);
  EXPECT_STREQ(kVersionString, "1.0.0");
}

TEST_F(DatabaseTest, CleanShutdownAndReopen) {
  std::string path;
  RowId rid = 0;
  {
    Open();
    path = dir_->path();
    Table* t = db_->CreateTable("accounts", AccountSchema()).value();
    Transaction* txn = db_->Begin(db_->aux_slot());
    ASSERT_OK(t->Insert(&ctx_, txn, MakeRow(t, 1, "alice", 100.0), &rid));
    ASSERT_OK(db_->Commit(&ctx_, txn));
    ASSERT_OK(db_->Close());
    db_.reset();
  }
  DatabaseOptions reopen;
  reopen.path = path;
  reopen.workers = 2;
  reopen.slots_per_worker = 4;
  reopen.buffer_bytes = 16ull << 20;
  auto db2 = Database::Open(reopen);
  ASSERT_OK_R(db2);
  EXPECT_FALSE(db2.value()->recovery_info().ran);
  Table* t = db2.value()->GetTable("accounts").value();
  Transaction* reader = db2.value()->Begin(db2.value()->aux_slot());
  Slice row;
  ASSERT_OK(t->GetRef(&ctx_, reader, rid, &row));
  EXPECT_DOUBLE_EQ(RowView(&t->schema(), row.data()).GetDouble(2), 100.0);
  ASSERT_OK(db2.value()->Commit(&ctx_, reader));
  ASSERT_OK(db2.value()->Close());
}

}  // namespace
}  // namespace phoebe
