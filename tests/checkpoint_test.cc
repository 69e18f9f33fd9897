// Checkpoint subsystem tests: the online admission-barrier checkpoint
// (RequestCheckpoint), the GSN watermark that bounds recovery replay, the
// copy-on-write page walk's crash safety at every publication instant, the
// deferred page-free lifecycle, and the background checkpointer triggers.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "core/database.h"
#include "io/fault_env.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

Schema KvSchema() {
  return Schema({
      {"k", ColumnType::kInt64, 0, false},
      {"v", ColumnType::kString, 64, false},
  });
}

DatabaseOptions MakeOptions(const std::string& path, Env* env) {
  DatabaseOptions opts;
  opts.path = path;
  opts.env = env;
  opts.workers = 2;
  opts.slots_per_worker = 4;
  opts.buffer_bytes = 4ull << 20;
  opts.checkpoint_quiesce_timeout_ms = 50;
  return opts;
}

/// Commits `n` inserts of (k, "v<k>") for k in [from, from+n) and records
/// them in `model`.
void InsertRows(Database* db, Table* table, std::map<int64_t, std::string>* model,
                int64_t from, int n) {
  OpContext ctx;
  ctx.synchronous = true;
  Transaction* txn = db->Begin(db->aux_slot(0));
  for (int i = 0; i < n; ++i) {
    int64_t k = from + i;
    std::string v = "v" + std::to_string(k);
    RowBuilder b(&table->schema());
    b.SetInt64(0, k).SetString(1, v);
    RowId rid = 0;
    ASSERT_OK(table->Insert(&ctx, txn, b.Encode().value(), &rid));
    (*model)[k] = v;
  }
  ASSERT_OK(db->Commit(&ctx, txn));
}

/// Asserts the visible table contents equal `model` exactly.
void VerifyRows(Database* db, Table* table,
                const std::map<int64_t, std::string>& model) {
  OpContext ctx;
  ctx.synchronous = true;
  Transaction* txn = db->Begin(db->aux_slot(0));
  std::map<int64_t, std::string> found;
  ASSERT_OK(table->ScanAllVisible(
      &ctx, txn, [&](RowId, Slice row) {
        RowView v(&table->schema(), row.data());
        found[v.GetInt64(0)] = v.GetString(1).ToString();
        return true;
      }));
  EXPECT_EQ(found, model);
  ASSERT_OK(db->Commit(&ctx, txn));
}

std::unique_ptr<Database> OpenDb(const std::string& path, Env* env) {
  auto opened = Database::Open(MakeOptions(path, env));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened.value());
}

// --- Recovery bound ----------------------------------------------------------

// The acceptance property of the watermark: the same workload replays
// strictly fewer WAL records when a checkpoint ran before the crash.
TEST(CheckpointTest, RecoveryBoundStrictlyFewerRecords) {
  TestDir dir_plain("ckpt_bound_plain");
  TestDir dir_ckpt("ckpt_bound_ckpt");
  std::map<int64_t, std::string> model;

  auto run = [&](const std::string& path, bool checkpoint, uint64_t* replayed) {
    std::map<int64_t, std::string> m;
    auto db = OpenDb(path, nullptr);
    Table* table = db->CreateTable("kv", KvSchema()).value();
    ASSERT_OK(db->CreateIndex("kv", "kv_pk", {0}, true));
    InsertRows(db.get(), table, &m, 0, 200);
    if (checkpoint) {
      ASSERT_OK(db->RequestCheckpoint());
      EXPECT_GE(db->checkpoint_stats().completed.load(), 1u);
    }
    InsertRows(db.get(), table, &m, 1000, 50);
    db->TEST_SimulateCrash();
    db.reset();

    auto re = OpenDb(path, nullptr);
    Table* t = re->GetTable("kv").value();
    VerifyRows(re.get(), t, m);
    *replayed = re->recovery_info().records_replayed;
    EXPECT_EQ(re->recovery_info().used_checkpoint, checkpoint);
    ASSERT_OK(re->Close());
    model = m;
  };

  uint64_t full = 0;
  uint64_t bounded = 0;
  run(dir_plain.path(), false, &full);
  run(dir_ckpt.path(), true, &bounded);
  ASSERT_GT(full, 0u);
  EXPECT_LT(bounded, full)
      << "checkpoint did not bound recovery replay (bounded=" << bounded
      << " full=" << full << ")";
}

// --- Watermark skip (crash between catalog rename and WAL truncation) -------

TEST(CheckpointTest, WatermarkSkipsPreCheckpointRecords) {
  TestDir dir("ckpt_watermark");
  FaultInjectionEnv fenv(Env::Default(), 0xA11CE);
  std::map<int64_t, std::string> model;
  {
    auto db = OpenDb(dir.path(), &fenv);
    Table* table = db->CreateTable("kv", KvSchema()).value();
    ASSERT_OK(db->CreateIndex("kv", "kv_pk", {0}, true));
    InsertRows(db.get(), table, &model, 0, 150);

    // Crash the checkpoint after the new catalog became durable but before
    // the WAL was truncated: recovery must skip everything at or below the
    // watermark instead of re-replaying it onto the checkpoint image.
    db->TEST_SetCheckpointCrashHook(
        [](const char* p) { return strcmp(p, "before_wal_truncate") == 0; });
    Status st = db->RequestCheckpoint();
    EXPECT_TRUE(st.IsAborted()) << st.ToString();
    EXPECT_NE(st.ToString().find("before_wal_truncate"), std::string::npos);
    db->TEST_SetCheckpointCrashHook(nullptr);

    InsertRows(db.get(), table, &model, 2000, 30);
    fenv.ClearFaults();
    db->TEST_SimulateCrash();
    db.reset();
    fenv.DropUnsyncedData(false);
  }
  {
    FaultInjectionEnv fenv2(Env::Default(), 0xA11CF);
    auto db = OpenDb(dir.path(), &fenv2);
    const auto& ri = db->recovery_info();
    EXPECT_TRUE(ri.used_checkpoint);
    EXPECT_GT(ri.watermark_gsn, 0u);
    EXPECT_GT(ri.skipped_checkpointed, 0u)
        << "pre-checkpoint records were not skipped by the watermark";
    Table* t = db->GetTable("kv").value();
    VerifyRows(db.get(), t, model);
    MetricList m = db->Metrics();
    EXPECT_EQ(MetricValue(m, "recovery.used_checkpoint"), 1);
    EXPECT_GT(MetricValue(m, "recovery.watermark_gsn"), 0);
    ASSERT_OK(db->Close());
  }
}

// --- Quiesce timeout ---------------------------------------------------------

// An in-flight transaction must never be aborted on the checkpoint's
// behalf: RequestCheckpoint times out with kAborted and the workload
// proceeds untouched.
TEST(CheckpointTest, QuiesceTimeoutNeverAbortsWorkload) {
  TestDir dir("ckpt_quiesce");
  auto db = OpenDb(dir.path(), nullptr);
  Table* table = db->CreateTable("kv", KvSchema()).value();
  std::map<int64_t, std::string> model;
  InsertRows(db.get(), table, &model, 0, 10);

  OpContext ctx;
  ctx.synchronous = true;
  Transaction* busy = db->Begin(db->aux_slot(1));
  RowBuilder b(&table->schema());
  b.SetInt64(0, 999).SetString(1, "open");
  RowId rid = 0;
  ASSERT_OK(table->Insert(&ctx, busy, b.Encode().value(), &rid));

  uint64_t timeouts_before = db->checkpoint_stats().quiesce_timeouts.load();
  Status st = db->RequestCheckpoint();
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_GT(db->checkpoint_stats().quiesce_timeouts.load(), timeouts_before);

  // The busy transaction is alive and commits normally...
  ASSERT_OK(db->Commit(&ctx, busy));
  model[999] = "open";
  // ...and with the system drained the next attempt succeeds.
  ASSERT_OK(db->RequestCheckpoint());
  EXPECT_GE(db->checkpoint_stats().completed.load(), 1u);
  VerifyRows(db.get(), table, model);
  ASSERT_OK(db->Close());
}

// --- Crash matrix ------------------------------------------------------------

// Kill the checkpoint at each named instant; recovery must reconstruct the
// exact committed state from whatever the disk holds at that point.
TEST(CheckpointTest, CrashAtEveryPublicationInstant) {
  const char* kPoints[] = {"mid_page_writes", "after_page_writes",
                           "before_catalog_rename", "before_wal_truncate",
                           "after_wal_truncate"};
  for (const char* point : kPoints) {
    SCOPED_TRACE(point);
    TestDir dir(std::string("ckpt_crash_") + point);
    FaultInjectionEnv fenv(Env::Default(), 0xBEEF);
    std::map<int64_t, std::string> model;
    {
      auto db = OpenDb(dir.path(), &fenv);
      Table* table = db->CreateTable("kv", KvSchema()).value();
      ASSERT_OK(db->CreateIndex("kv", "kv_pk", {0}, true));
      InsertRows(db.get(), table, &model, 0, 120);

      db->TEST_SetCheckpointCrashHook(
          [point](const char* p) { return strcmp(p, point) == 0; });
      Status st = db->RequestCheckpoint();
      EXPECT_TRUE(st.IsAborted()) << point << ": " << st.ToString();
      db->TEST_SetCheckpointCrashHook(nullptr);

      fenv.ClearFaults();
      db->TEST_SimulateCrash();
      db.reset();
      fenv.DropUnsyncedData(false);
    }
    {
      FaultInjectionEnv fenv2(Env::Default(), 0xBEF0);
      auto db = OpenDb(dir.path(), &fenv2);
      Table* t = db->GetTable("kv").value();
      VerifyRows(db.get(), t, model);
      ASSERT_OK(db->Close());
    }
  }
}

// --- Stat failures abort, never truncate -------------------------------------

// A failing FileSize() on the frozen-store files must abort the checkpoint:
// recording 0 for a file that exists would truncate valid frozen history on
// the next open.
TEST(CheckpointTest, FrozenStatFailureAbortsCheckpoint) {
  TestDir dir("ckpt_stat_fail");
  FaultInjectionEnv fenv(Env::Default(), 0x57A7);
  auto db = OpenDb(dir.path(), &fenv);
  Table* table = db->CreateTable("kv", KvSchema()).value();
  std::map<int64_t, std::string> model;
  InsertRows(db.get(), table, &model, 0, 40);

  fenv.FailNextFileSize(".manifest");
  Status st = db->RequestCheckpoint();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(db->checkpoint_stats().completed.load(), 0u);

  // The fault was one-shot; the retry publishes normally.
  ASSERT_OK(db->RequestCheckpoint());
  EXPECT_GE(db->checkpoint_stats().completed.load(), 1u);
  VerifyRows(db.get(), table, model);
  ASSERT_OK(db->Close());
}

// --- Deferred page frees -----------------------------------------------------

TEST(CheckpointTest, DeferredFreesFollowCatalogPublication) {
  TestDir dir("ckpt_frees");
  {
    auto db = OpenDb(dir.path(), nullptr);
    Table* table = db->CreateTable("kv", KvSchema()).value();
    std::map<int64_t, std::string> model;
    InsertRows(db.get(), table, &model, 0, 50);
    // Fresh database: no durable image exists yet, frees recycle eagerly.
    EXPECT_FALSE(db->pool()->page_file()->deferred_frees_enabled());
    ASSERT_OK(db->RequestCheckpoint());
    // A durable image now exists; every later free must wait for the next
    // catalog publication so the image stays self-consistent.
    EXPECT_TRUE(db->pool()->page_file()->deferred_frees_enabled());
    ASSERT_OK(db->Close());
  }
  {
    // Reopening over a clean catalog re-enables deferral before replay.
    auto db = OpenDb(dir.path(), nullptr);
    EXPECT_TRUE(db->pool()->page_file()->deferred_frees_enabled());
    ASSERT_OK(db->Close());
  }
}

// --- Unique-index reconciliation during replay -------------------------------

// Forward operation leaves a deleted row's unique-index entry in place until
// GC purges it (an unlogged step). Replay must reconcile: ReplayDelete drops
// the entry itself, and ReplayInsert reclaims a mapping that still points at
// a dead row — including one baked verbatim into a checkpoint image.
TEST(CheckpointTest, ReplayReclaimsUniqueKeyAfterDeleteReinsert) {
  for (bool checkpoint_between : {false, true}) {
    SCOPED_TRACE(checkpoint_between ? "stale entry in checkpoint image"
                                    : "replay from empty");
    TestDir dir(checkpoint_between ? "ckpt_uniq_image" : "ckpt_uniq_plain");
    auto db = OpenDb(dir.path(), nullptr);
    Table* table = db->CreateTable("kv", KvSchema()).value();
    ASSERT_OK(db->CreateIndex("kv", "kv_pk", {0}, true));
    OpContext ctx;
    ctx.synchronous = true;

    RowId rid1 = 0;
    {
      Transaction* txn = db->Begin(db->aux_slot(0));
      RowBuilder b(&table->schema());
      b.SetInt64(0, 5).SetString(1, "one");
      ASSERT_OK(table->Insert(&ctx, txn, b.Encode().value(), &rid1));
      ASSERT_OK(db->Commit(&ctx, txn));
    }
    {
      Transaction* txn = db->Begin(db->aux_slot(0));
      ASSERT_OK(table->Delete(&ctx, txn, rid1));
      ASSERT_OK(db->Commit(&ctx, txn));
    }
    if (checkpoint_between) {
      // The image now carries the tombstoned tuple AND its stale unique
      // entry; the delete record sits below the watermark and is skipped.
      ASSERT_OK(db->RequestCheckpoint());
    }
    // GC purge (unlogged) frees the unique key for the forward re-insert.
    db->DrainGc();
    RowId rid2 = 0;
    {
      Transaction* txn = db->Begin(db->aux_slot(0));
      RowBuilder b(&table->schema());
      b.SetInt64(0, 5).SetString(1, "two");
      ASSERT_OK(table->Insert(&ctx, txn, b.Encode().value(), &rid2));
      ASSERT_OK(db->Commit(&ctx, txn));
    }
    ASSERT_NE(rid1, rid2);
    db->TEST_SimulateCrash();
    db.reset();

    auto re = OpenDb(dir.path(), nullptr);
    Table* t = re->GetTable("kv").value();
    Transaction* reader = re->Begin(re->aux_slot(0));
    RowId rid = 0;
    Slice row;
    ASSERT_OK(t->IndexGetRef(&ctx, reader, 0, {Value::Int64(5)}, &rid, &row));
    EXPECT_EQ(rid, rid2);
    EXPECT_EQ(RowView(&t->schema(), row.data()).GetString(1), Slice("two"));
    ASSERT_OK(re->Commit(&ctx, reader));
    ASSERT_OK(re->Close());
  }
}

// --- Background checkpointer -------------------------------------------------

TEST(CheckpointTest, BackgroundCheckpointerIntervalTrigger) {
  TestDir dir("ckpt_bg_interval");
  DatabaseOptions opts = MakeOptions(dir.path(), nullptr);
  opts.checkpoint_interval_ms = 20;
  auto opened = Database::Open(opts);
  ASSERT_OK_R(opened);
  auto db = std::move(opened.value());
  Table* table = db->CreateTable("kv", KvSchema()).value();
  std::map<int64_t, std::string> model;
  InsertRows(db.get(), table, &model, 0, 100);
  for (int i = 0; i < 200 && db->checkpoint_stats().completed.load() == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(db->checkpoint_stats().completed.load(), 1u)
      << "interval trigger never produced a checkpoint";
  // The workload keeps running against the open admission gate.
  InsertRows(db.get(), table, &model, 5000, 20);
  VerifyRows(db.get(), table, model);
  db->TEST_SimulateCrash();
  db.reset();

  auto re = OpenDb(dir.path(), nullptr);
  EXPECT_TRUE(re->recovery_info().used_checkpoint);
  Table* t = re->GetTable("kv").value();
  VerifyRows(re.get(), t, model);
  ASSERT_OK(re->Close());
}

TEST(CheckpointTest, BackgroundCheckpointerWalByteTrigger) {
  TestDir dir("ckpt_bg_bytes");
  DatabaseOptions opts = MakeOptions(dir.path(), nullptr);
  opts.checkpoint_wal_bytes = 16 << 10;
  auto opened = Database::Open(opts);
  ASSERT_OK_R(opened);
  auto db = std::move(opened.value());
  Table* table = db->CreateTable("kv", KvSchema()).value();
  std::map<int64_t, std::string> model;
  int64_t next_key = 0;
  for (int i = 0; i < 200 && db->checkpoint_stats().completed.load() == 0;
       ++i) {
    InsertRows(db.get(), table, &model, next_key, 20);
    next_key += 20;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(db->checkpoint_stats().completed.load(), 1u)
      << "WAL byte trigger never produced a checkpoint";
  VerifyRows(db.get(), table, model);
  ASSERT_OK(db->Close());
}

// A transaction held open across the trigger makes the background attempt
// time out; the checkpointer must back off and succeed after the commit.
TEST(CheckpointTest, BackgroundCheckpointerBacksOffUnderLoad) {
  TestDir dir("ckpt_bg_backoff");
  DatabaseOptions opts = MakeOptions(dir.path(), nullptr);
  opts.checkpoint_interval_ms = 15;
  opts.checkpoint_quiesce_timeout_ms = 10;
  auto opened = Database::Open(opts);
  ASSERT_OK_R(opened);
  auto db = std::move(opened.value());
  Table* table = db->CreateTable("kv", KvSchema()).value();
  std::map<int64_t, std::string> model;
  InsertRows(db.get(), table, &model, 0, 20);

  OpContext ctx;
  ctx.synchronous = true;
  Transaction* busy = db->Begin(db->aux_slot(1));
  RowBuilder b(&table->schema());
  b.SetInt64(0, 777).SetString(1, "busy");
  RowId rid = 0;
  ASSERT_OK(table->Insert(&ctx, busy, b.Encode().value(), &rid));
  for (int i = 0; i < 100 && db->checkpoint_stats().quiesce_timeouts.load() == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(db->checkpoint_stats().quiesce_timeouts.load(), 1u);
  EXPECT_EQ(db->checkpoint_stats().completed.load(), 0u);

  ASSERT_OK(db->Commit(&ctx, busy));
  model[777] = "busy";
  for (int i = 0; i < 300 && db->checkpoint_stats().completed.load() == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(db->checkpoint_stats().completed.load(), 1u)
      << "checkpointer never recovered after backoff";
  VerifyRows(db.get(), table, model);
  ASSERT_OK(db->Close());
}

}  // namespace
}  // namespace phoebe
