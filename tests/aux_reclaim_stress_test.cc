// Aux-slot reclamation under concurrency: a synchronous writer on an aux
// slot commits (and aborts) batches, each of which reclaims the slot's UNDO
// and sweeps twin tables, while scheduler transactions update shared rows
// and worker 0 runs its own periodic sweep. Row counts and counter sums
// must come out exact.
#include <gtest/gtest.h>

#include <thread>

#include "core/database.h"
#include "runtime/scheduler.h"
#include "runtime/task.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

constexpr int kCounters = 64;

struct Shared {
  Database* db;
  Table* counters;
  std::vector<RowId> rids;
  std::atomic<uint64_t> increments{0};
};

/// Adds one to a counter row; commits count only once durable.
TxnTask IncrementTask(Shared* s, TaskEnv* env, size_t row) {
  Database* db = s->db;
  Transaction* txn = db->Begin(env->global_slot_id);
  db->StatementBegin(txn);
  Status st;
  PHOEBE_CO_AWAIT(
      st, s->counters->UpdateApply(
              &env->ctx, txn, s->rids[row],
              [](RowView cur, std::vector<std::pair<uint32_t, Value>>* sets) {
                sets->push_back({1, Value::Int64(cur.GetInt64(1) + 1)});
                return Status::OK();
              }));
  if (!st.ok()) {
    (void)db->Abort(&env->ctx, txn);
    co_return st;
  }
  PHOEBE_CO_AWAIT(st, db->Commit(&env->ctx, txn));
  if (st.ok()) s->increments.fetch_add(1);
  co_return st;
}

TEST(AuxReclaimStressTest, AuxCommitsRaceSchedulerSweeps) {
  TestDir dir("aux_reclaim_stress");
  DatabaseOptions opts;
  opts.path = dir.path();
  opts.workers = 2;
  opts.slots_per_worker = 4;
  opts.buffer_bytes = 8ull << 20;
  auto db_r = Database::Open(opts);
  ASSERT_OK_R(db_r);
  Database* db = db_r.value().get();

  Table* counters =
      db->CreateTable("counters", Schema({{"k", ColumnType::kInt64, 0, false},
                                          {"v", ColumnType::kInt64, 0, false}}))
          .value();
  Table* log =
      db->CreateTable("log", Schema({{"id", ColumnType::kInt64, 0, false},
                                     {"note", ColumnType::kString, 100, false}}))
          .value();

  Shared s;
  s.db = db;
  s.counters = counters;
  OpContext ctx;
  ctx.synchronous = true;
  {
    Transaction* txn = db->Begin(db->aux_slot(0));
    for (int i = 0; i < kCounters; ++i) {
      RowBuilder b(&counters->schema());
      b.SetInt64(0, i).SetInt64(1, 0);
      RowId rid = 0;
      ASSERT_OK(counters->Insert(&ctx, txn, b.Encode().value(), &rid));
      s.rids.push_back(rid);
    }
    ASSERT_OK(db->Commit(&ctx, txn));
  }

  Scheduler::Options sopts;
  sopts.workers = opts.workers;
  sopts.slots_per_worker = opts.slots_per_worker;
  sopts.gc_every_txns = 4;  // worker 0 sweeps often
  Scheduler sched(sopts, db->MakeSchedulerHooks());
  sched.Start();

  // Aux writer: every fifth batch aborts, so Abort's reclaim path runs too.
  constexpr int kBatches = 60;
  constexpr int kBatchRows = 200;
  uint64_t logged = 0;
  Status writer_status;
  std::thread writer([&] {
    OpContext wctx;
    wctx.synchronous = true;
    std::string note(100, 'n');
    int64_t id = 0;
    for (int batch = 0; batch < kBatches && writer_status.ok(); ++batch) {
      Transaction* txn = db->Begin(db->aux_slot(0));
      for (int i = 0; i < kBatchRows; ++i) {
        RowBuilder b(&log->schema());
        b.SetInt64(0, id++).SetString(1, note);
        RowId rid = 0;
        Status st = log->Insert(&wctx, txn, b.Encode().value(), &rid);
        if (!st.ok()) {
          writer_status = st;
          break;
        }
      }
      if (!writer_status.ok() || batch % 5 == 4) {
        (void)db->Abort(&wctx, txn);
      } else {
        writer_status = db->Commit(&wctx, txn);
        if (writer_status.ok()) logged += kBatchRows;
      }
    }
  });

  constexpr int kIncrements = 3000;
  for (int i = 0; i < kIncrements; ++i) {
    size_t row = static_cast<size_t>(i) % kCounters;
    sched.Submit([&s, row](TaskEnv* env) {
      return IncrementTask(&s, env, row);
    });
  }
  writer.join();
  sched.Stop();
  ASSERT_OK(writer_status);

  Transaction* check = db->Begin(db->aux_slot(1));
  uint64_t log_rows = 0;
  ASSERT_OK(log->ScanAllVisible(&ctx, check, [&](RowId, Slice) {
    ++log_rows;
    return true;
  }));
  int64_t sum = 0;
  ASSERT_OK(counters->ScanAllVisible(&ctx, check, [&](RowId, Slice row) {
    sum += RowView(&counters->schema(), row.data()).GetInt64(1);
    return true;
  }));
  ASSERT_OK(db->Commit(&ctx, check));

  EXPECT_EQ(log_rows, logged);
  EXPECT_EQ(logged, static_cast<uint64_t>(kBatches / 5 * 4 * kBatchRows));
  EXPECT_EQ(sum, static_cast<int64_t>(s.increments.load()));
  EXPECT_GT(s.increments.load(), 0u);
  db->DrainGc();
  EXPECT_EQ(db->txn_manager()->TotalLiveUndo(), 0u);
  ASSERT_OK(db->Close());
}

}  // namespace
}  // namespace phoebe
