// Quickstart: open a PhoebeDB database, create a table + index, run
// transactions through the public API, and reopen after a clean shutdown.
//
//   ./build/examples/quickstart [data-dir]
#include <cstdio>

#include "core/database.h"

using namespace phoebe;

#define CHECK_OK(expr)                                          \
  do {                                                          \
    ::phoebe::Status _st = (expr);                              \
    if (!_st.ok()) {                                            \
      fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__, __LINE__,  \
              _st.ToString().c_str());                          \
      return 1;                                                 \
    }                                                           \
  } while (0)

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : "/tmp/phoebe_quickstart";
  (void)Env::Default()->RemoveDirRecursive(dir);

  // 1. Open (creates the directory layout, WAL, buffer pool).
  DatabaseOptions options;
  options.path = dir;
  options.workers = 2;
  options.slots_per_worker = 4;
  options.buffer_bytes = 64ull << 20;
  auto opened = Database::Open(options);
  if (!opened.ok()) {
    fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Database> db = std::move(opened.value());

  // 2. DDL: a table and a unique index on its first column.
  Schema schema({
      {"id", ColumnType::kInt64, 0, false},
      {"name", ColumnType::kString, 32, false},
      {"score", ColumnType::kDouble, 0, false},
  });
  auto created = db->CreateTable("players", schema);
  if (!created.ok()) {
    fprintf(stderr, "create: %s\n", created.status().ToString().c_str());
    return 1;
  }
  Table* players = created.value();
  CHECK_OK(db->CreateIndex("players", "players_pk", {0}, /*unique=*/true));

  // 3. Insert a few rows in one transaction.
  OpContext ctx;            // synchronous context: fine outside the scheduler
  ctx.synchronous = true;
  Transaction* txn = db->Begin(db->aux_slot());
  const char* names[] = {"ada", "grace", "edsger", "barbara", "tony"};
  for (int64_t i = 0; i < 5; ++i) {
    RowBuilder b(&players->schema());
    b.SetInt64(0, 100 + i).SetString(1, names[i]).SetDouble(2, 10.0 * i);
    auto row = b.Encode();
    RowId rid = 0;
    CHECK_OK(players->Insert(&ctx, txn, row.value(), &rid));
  }
  CHECK_OK(db->Commit(&ctx, txn));
  printf("inserted 5 rows\n");

  // 4. Point lookup through the index (with MVCC visibility).
  Transaction* reader = db->Begin(db->aux_slot());
  RowId rid = 0;
  Slice row;
  CHECK_OK(players->IndexGetRef(&ctx, reader, 0, {Value::Int64(102)}, &rid,
                                &row));
  RowView view(&players->schema(), row.data());
  printf("id=102 -> name=%s score=%.1f\n",
         view.GetString(1).ToString().c_str(), view.GetDouble(2));

  // 5. Atomic read-modify-write update (score += 5).
  CHECK_OK(players->UpdateApply(
      &ctx, reader, rid,
      [](RowView cur, std::vector<std::pair<uint32_t, Value>>* sets) {
        sets->push_back({2, Value::Double(cur.GetDouble(2) + 5.0)});
        return Status::OK();
      }));
  CHECK_OK(db->Commit(&ctx, reader));

  // 6. Range scan over the index.
  Transaction* scanner = db->Begin(db->aux_slot());
  printf("players with id >= 102:\n");
  CHECK_OK(players->IndexScanRef(
      &ctx, scanner, 0, {Value::Int64(102)}, {Value::Int64(1000)},
      [&](RowId, Slice r) {
        RowView v(&players->schema(), r.data());
        printf("  %lld %-8s %.1f\n",
               static_cast<long long>(v.GetInt64(0)),
               v.GetString(1).ToString().c_str(), v.GetDouble(2));
        return true;
      }));
  CHECK_OK(db->Commit(&ctx, scanner));

  // 7. Clean shutdown (checkpoint) and reopen.
  CHECK_OK(db->Close());
  db.reset();
  auto reopened = Database::Open(options);
  if (!reopened.ok()) return 1;
  Table* again = reopened.value()->GetTable("players").value();
  Transaction* check = reopened.value()->Begin(reopened.value()->aux_slot());
  CHECK_OK(again->IndexGetRef(&ctx, check, 0, {Value::Int64(102)}, &rid, &row));
  printf("after reopen: id=102 score=%.1f (expected 25.0)\n",
         RowView(&again->schema(), row.data()).GetDouble(2));
  CHECK_OK(reopened.value()->Commit(&ctx, check));
  CHECK_OK(reopened.value()->Close());
  printf("quickstart OK\n");
  return 0;
}
