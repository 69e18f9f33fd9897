// Crash-recovery property test: random committed/aborted/in-flight
// transactions, then a simulated crash (no clean shutdown), then reopen.
// The recovered database must contain exactly the committed effects — run
// twice in a row to also cover recovery-over-checkpoint images.
#include <gtest/gtest.h>

#include <map>

#include "core/database.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

Schema KvSchema() {
  return Schema({
      {"k", ColumnType::kInt64, 0, false},
      {"v", ColumnType::kString, 32, false},
  });
}

struct Model {
  // k -> v for live rows.
  std::map<int64_t, std::string> rows;
  std::map<int64_t, RowId> rids;
};

class RecoveryPropertyTest : public ::testing::TestWithParam<int> {};

DatabaseOptions MakeOptions(const std::string& path) {
  DatabaseOptions opts;
  opts.path = path;
  opts.workers = 2;
  opts.slots_per_worker = 4;
  opts.buffer_bytes = 16ull << 20;
  return opts;
}

/// Runs `steps` random transactions against `db`, mutating `model` only
/// for committed ones. Roughly 70% commit, 15% abort, 15% left in flight
/// at the end (crash victims).
void RunRandomWorkload(Database* db, Table* table, Model* model, Random* rng,
                       int steps) {
  OpContext ctx;
  ctx.synchronous = true;
  std::vector<Transaction*> in_flight;
  std::vector<uint32_t> free_slots;
  for (uint32_t i = 2; i < db->options().aux_slots; ++i) {
    free_slots.push_back(db->aux_slot(i));
  }

  for (int s = 0; s < steps; ++s) {
    Transaction* txn = db->Begin(db->aux_slot(0));
    Model pending = *model;  // tentative effects
    int ops = 1 + static_cast<int>(rng->Uniform(4));
    bool ok = true;
    for (int o = 0; o < ops && ok; ++o) {
      int64_t k = static_cast<int64_t>(rng->Uniform(200));
      int action = static_cast<int>(rng->Uniform(3));
      auto it = pending.rows.find(k);
      if (action == 0 || it == pending.rows.end()) {  // insert/upsert
        if (it != pending.rows.end()) continue;       // already exists
        RowBuilder b(&table->schema());
        std::string v = "v" + std::to_string(rng->Next() % 100000);
        b.SetInt64(0, k).SetString(1, v);
        RowId rid = 0;
        Status st = table->Insert(&ctx, txn, b.Encode().value(), &rid);
        if (!st.ok()) {
          ok = false;
          break;
        }
        pending.rows[k] = v;
        pending.rids[k] = rid;
      } else if (action == 1) {  // update
        std::string v = "u" + std::to_string(rng->Next() % 100000);
        Status st = table->Update(&ctx, txn, pending.rids[k],
                                  {{1, Value::String(v)}});
        if (!st.ok()) {
          ok = false;
          break;
        }
        pending.rows[k] = v;
      } else {  // delete
        Status st = table->Delete(&ctx, txn, pending.rids[k]);
        if (!st.ok()) {
          ok = false;
          break;
        }
        pending.rows.erase(k);
        pending.rids.erase(k);
      }
    }
    int fate = static_cast<int>(rng->Uniform(100));
    if (!ok || fate < 15) {
      ASSERT_OK(db->Abort(&ctx, txn));
    } else if (fate < 30 && !free_slots.empty()) {
      // Leave in flight on a dedicated slot: re-run its ops there.
      // (Simplification: just abort here and start a fresh in-flight txn
      // below — the original txn's slot is needed for the next step.)
      ASSERT_OK(db->Abort(&ctx, txn));
      uint32_t slot = free_slots.back();
      free_slots.pop_back();
      Transaction* zombie = db->Begin(slot);
      int64_t k = 1000 + static_cast<int64_t>(rng->Uniform(100));
      RowBuilder b(&table->schema());
      b.SetInt64(0, k).SetString(1, "zombie");
      RowId rid = 0;
      (void)table->Insert(&ctx, zombie, b.Encode().value(), &rid);
      in_flight.push_back(zombie);  // never committed: must vanish
    } else {
      ASSERT_OK(db->Commit(&ctx, txn));
      *model = std::move(pending);
    }
  }
  // Give the group-commit flusher a moment to drain buffers so committed
  // work is on disk (commits already waited; this covers data records of
  // the in-flight zombies, which must be filtered by recovery anyway).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

void VerifyMatchesModel(Database* db, const Model& model) {
  Result<Table*> table = db->GetTable("kv");
  ASSERT_OK_R(table);
  OpContext ctx;
  ctx.synchronous = true;
  Transaction* reader = db->Begin(db->aux_slot(0));
  std::map<int64_t, std::string> found;
  ASSERT_OK(table.value()->ScanAllVisible(
      &ctx, reader, [&](RowId, Slice row) {
        RowView v(&table.value()->schema(), row.data());
        int64_t k = v.GetInt64(0);
        if (k < 1000) {  // ignore zombie keyspace (must be absent anyway)
          found[k] = v.GetString(1).ToString();
        } else {
          ADD_FAILURE() << "uncommitted zombie row survived: k=" << k;
        }
        return true;
      }));
  EXPECT_EQ(found, model.rows);

  // Index lookups agree.
  for (const auto& [k, v] : model.rows) {
    RowId rid = 0;
    Slice row;
    ASSERT_OK(table.value()->IndexGetRef(&ctx, reader, 0, {Value::Int64(k)},
                                         &rid, &row));
    EXPECT_EQ(RowView(&table.value()->schema(), row.data()).GetString(1),
              Slice(v));
  }
  ASSERT_OK(db->Commit(&ctx, reader));
}

TEST_P(RecoveryPropertyTest, CommittedSurviveUncommittedVanish) {
  TestDir dir("recovery_prop");
  Random rng(GetParam() * 7919 + 3);
  Model model;

  // Phase 1: fresh database, workload, crash.
  {
    auto db = Database::Open(MakeOptions(dir.path()));
    ASSERT_OK_R(db);
    Table* table = db.value()->CreateTable("kv", KvSchema()).value();
    ASSERT_OK(db.value()->CreateIndex("kv", "kv_pk", {0}, true));
    RunRandomWorkload(db.value().get(), table, &model, &rng, 60);
    db.value()->TEST_SimulateCrash();
    db.value().release();  // crash: no Close(), no checkpoint
  }

  // Recover and verify.
  {
    auto db = Database::Open(MakeOptions(dir.path()));
    ASSERT_OK_R(db);
    VerifyMatchesModel(db.value().get(), model);

    // Phase 2: more work on the recovered database (which checkpointed
    // during recovery), then crash again.
    Table* table = db.value()->GetTable("kv").value();
    // Re-derive rids after recovery (they are stable, but be safe).
    OpContext ctx;
    ctx.synchronous = true;
    Transaction* reader = db.value()->Begin(db.value()->aux_slot(0));
    for (auto& [k, rid] : model.rids) {
      Slice row;
      ASSERT_OK(table->IndexGetRef(&ctx, reader, 0, {Value::Int64(k)}, &rid,
                                   &row));
    }
    ASSERT_OK(db.value()->Commit(&ctx, reader));
    RunRandomWorkload(db.value().get(), table, &model, &rng, 60);
    db.value()->TEST_SimulateCrash();
    db.value().release();  // crash again
  }

  // Recover over the checkpoint + new WAL and verify again.
  {
    auto db = Database::Open(MakeOptions(dir.path()));
    ASSERT_OK_R(db);
    VerifyMatchesModel(db.value().get(), model);
    ASSERT_OK(db.value()->Close());
  }

  // Clean reopen after Close: still intact, no recovery replay needed.
  {
    auto db = Database::Open(MakeOptions(dir.path()));
    ASSERT_OK_R(db);
    EXPECT_EQ(db.value()->recovery_info().records_replayed, 0u);
    VerifyMatchesModel(db.value().get(), model);
    ASSERT_OK(db.value()->Close());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryPropertyTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace phoebe
