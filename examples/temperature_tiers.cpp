// Temperature-tier demo (Section 5.2): rows age from hot (in-memory PAX)
// through cold (on-disk pages) into frozen compressed blocks; updates to
// frozen rows warm them back into hot storage with a fresh row id.
//
//   ./build/examples/temperature_tiers
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

int main() {
  std::string dir = "/tmp/phoebe_temperature";
  (void)Env::Default()->RemoveDirRecursive(dir);
  DatabaseOptions options;
  options.path = dir;
  options.workers = 1;
  options.slots_per_worker = 4;
  options.freeze_access_threshold = 1000000;  // everything counts as cold
  options.freeze_epoch_age = 0;
  auto db_r = Database::Open(options);
  if (!db_r.ok()) return 1;
  Database* db = db_r.value().get();

  Schema schema({{"k", ColumnType::kInt64, 0, false},
                 {"payload", ColumnType::kString, 64, false}});
  Table* events = db->CreateTable("events", schema).value();
  CHECK_OK(db->CreateIndex("events", "events_pk", {0}, true));

  // 1. Insert enough rows to span several PAX leaves.
  OpContext ctx;
  ctx.synchronous = true;
  const int kRows = 2000;
  Transaction* txn = db->Begin(db->aux_slot());
  RowId first_rid = 0;
  for (int i = 0; i < kRows; ++i) {
    RowBuilder b(&events->schema());
    b.SetInt64(0, i).SetString(1, "event payload #" + std::to_string(i));
    RowId rid = 0;
    CHECK_OK(events->Insert(&ctx, txn, b.Encode().value(), &rid));
    if (first_rid == 0) first_rid = rid;
  }
  CHECK_OK(db->Commit(&ctx, txn));
  db->DrainGc();  // make all versions globally visible
  printf("inserted %d hot rows (leaf capacity=%u)\n", kRows,
         events->layout().capacity());

  // 2. Freeze the cold prefix into compressed blocks.
  for (int i = 0; i < 4; ++i) db->pool()->AdvanceEpoch();
  auto frozen = events->FreezePass(&ctx, /*max_leaves=*/100);
  CHECK_OK(frozen.status());
  printf("froze %d leaves; max_frozen_row_id=%llu; %zu blocks on disk\n",
         frozen.value(),
         static_cast<unsigned long long>(
             events->frozen()->max_frozen_row_id()),
         events->frozen()->num_blocks());

  // 3. Reads hit the frozen store transparently.
  Transaction* reader = db->Begin(db->aux_slot());
  Slice row;
  CHECK_OK(events->GetRef(&ctx, reader, first_rid + 10, &row));
  printf("frozen read k=%lld payload=\"%s\"\n",
         static_cast<long long>(
             RowView(&events->schema(), row.data()).GetInt64(0)),
         RowView(&events->schema(), row.data()).GetString(1).ToString()
             .c_str());
  CHECK_OK(db->Commit(&ctx, reader));

  // 4. Updating a frozen row warms it: tombstone + reinsert as a new hot
  //    row id, indexes repointed.
  Transaction* writer = db->Begin(db->aux_slot());
  CHECK_OK(events->Update(&ctx, writer, first_rid + 10,
                          {{1, Value::String("updated after warming")}}));
  CHECK_OK(db->Commit(&ctx, writer));

  Transaction* verify = db->Begin(db->aux_slot());
  RowId new_rid = 0;
  CHECK_OK(events->IndexGetRef(&ctx, verify, 0, {Value::Int64(10)}, &new_rid,
                               &row));
  printf("after warm-update: k=10 now at rid=%llu (was %llu), payload=\"%s\""
         "\n",
         static_cast<unsigned long long>(new_rid),
         static_cast<unsigned long long>(first_rid + 10),
         RowView(&events->schema(), row.data()).GetString(1).ToString()
             .c_str());
  // The frozen copy is tombstoned.
  Status gone = events->GetRef(&ctx, verify, first_rid + 10, &row);
  printf("old frozen rid lookup: %s (expected NotFound)\n",
         gone.ToString().c_str());
  CHECK_OK(db->Commit(&ctx, verify));

  // 5. HTAP-style columnar aggregate: sums the key column straight from
  //    the frozen blocks' compressed streams + hot PAX minipages, without
  //    materializing rows.
  Transaction* analyst = db->Begin(db->aux_slot());
  int64_t sum = 0, count = 0;
  CHECK_OK(events->ScanColumnInt64(&ctx, analyst, 0,
                                   [&](RowId, int64_t v) {
                                     sum += v;
                                     ++count;
                                     return true;
                                   }));
  printf("columnar aggregate over %lld visible rows: sum(k)=%lld\n",
         static_cast<long long>(count), static_cast<long long>(sum));
  CHECK_OK(db->Commit(&ctx, analyst));

  CHECK_OK(db->Close());
  printf("temperature_tiers OK\n");
  return 0;
}
