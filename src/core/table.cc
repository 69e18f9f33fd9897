#include "core/table.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "common/arena.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/profiler.h"
#include "txn/visibility.h"
#include "wal/record.h"

namespace phoebe {

namespace {

/// One index-key column value: an integer (int32/int64) or a string.
struct KeyPart {
  int64_t i64 = 0;
  Slice str;
};

/// The one ordered-key writer (int32/int64: big-endian sign-flipped;
/// string: bytes + 0x00 terminator). `part(k)` yields the value of key
/// column cols[k]. With dst == nullptr it only validates the column types
/// and returns the exact encoded size, so every sink allocates once.
template <typename PartFn>
Result<size_t> WriteOrderedKey(const Schema& schema, const uint32_t* cols,
                               size_t n, const PartFn& part, char* dst) {
  size_t len = 0;
  for (size_t k = 0; k < n; ++k) {
    switch (schema.column(cols[k]).type) {
      case ColumnType::kInt32:
      case ColumnType::kInt64:
        // Flip the sign bit so two's-complement order matches memcmp order.
        if (dst != nullptr) {
          EncodeBigEndian64(dst + len,
                            static_cast<uint64_t>(part(k).i64) ^ (1ull << 63));
        }
        len += 8;
        break;
      case ColumnType::kString: {
        Slice s = part(k).str;
        if (dst != nullptr) {
          memcpy(dst + len, s.data(), s.size());
          dst[len + s.size()] = '\0';
        }
        len += s.size() + 1;
        break;
      }
      case ColumnType::kDouble:
        return Result<size_t>(Status::NotSupported("double index keys"));
    }
  }
  return Result<size_t>(len);
}

template <typename PartFn>
Status OrderedKeyTo(const Schema& schema, const uint32_t* cols, size_t n,
                    const PartFn& part, std::string* out) {
  Result<size_t> len = WriteOrderedKey(schema, cols, n, part, nullptr);
  if (!len.ok()) return len.status();
  out->resize(len.value());
  (void)WriteOrderedKey(schema, cols, n, part, out->data());
  return Status::OK();
}

template <typename PartFn>
Result<Slice> OrderedKeyTo(const Schema& schema, const uint32_t* cols,
                           size_t n, const PartFn& part, Arena* arena) {
  Result<size_t> len = WriteOrderedKey(schema, cols, n, part, nullptr);
  if (!len.ok()) return Result<Slice>(len.status());
  char* buf = arena->Allocate(len.value());
  (void)WriteOrderedKey(schema, cols, n, part, buf);
  return Result<Slice>(Slice(buf, len.value()));
}

/// Key parts from a list of values (a null value encodes as 0 / "").
struct ValueParts {
  const std::vector<Value>& values;
  KeyPart operator()(size_t k) const {
    return KeyPart{values[k].i64, values[k].str_ref()};
  }
};

/// Key parts from an encoded row (a null column encodes as 0 / "").
struct RowParts {
  const Schema& schema;
  const uint32_t* cols;
  RowView row;
  KeyPart operator()(size_t k) const {
    uint32_t c = cols[k];
    if (row.IsNull(c)) return KeyPart{};
    switch (schema.column(c).type) {
      case ColumnType::kInt32: return KeyPart{row.GetInt32(c), Slice()};
      case ColumnType::kInt64: return KeyPart{row.GetInt64(c), Slice()};
      case ColumnType::kString: return KeyPart{0, row.GetString(c)};
      case ColumnType::kDouble: break;
    }
    return KeyPart{};
  }
};

}  // namespace

Table::Table(EngineDeps* deps, std::string name, RelationId id, Schema schema)
    : deps_(deps),
      name_(std::move(name)),
      id_(id),
      schema_(std::move(schema)),
      layout_(TableLeafLayout::Compute(schema_)) {}

Status Table::Create() {
  auto tree = BTree::Create(deps_->pool, deps_->registry,
                            BTree::TreeKind::kTable, &schema_, &layout_);
  if (!tree.ok()) return tree.status();
  tree_ = std::move(tree.value());
  auto frozen = FrozenStore::Open(deps_->env, deps_->dir, name_, &schema_);
  if (!frozen.ok()) return frozen.status();
  frozen_ = std::move(frozen.value());
  return Status::OK();
}

Status Table::OpenFromCheckpoint(PageId root, RowId next_row_id) {
  auto tree = BTree::OpenFromRoot(deps_->pool, deps_->registry,
                                  BTree::TreeKind::kTable, &schema_, &layout_,
                                  root);
  if (!tree.ok()) return tree.status();
  tree_ = std::move(tree.value());
  next_row_id_.store(next_row_id, std::memory_order_relaxed);
  auto frozen = FrozenStore::Open(deps_->env, deps_->dir, name_, &schema_);
  if (!frozen.ok()) return frozen.status();
  frozen_ = std::move(frozen.value());
  return Status::OK();
}

Status Table::AddIndex(const std::string& name, RelationId id,
                       std::vector<uint32_t> key_columns, bool unique,
                       PageId checkpoint_root) {
  auto idx = std::make_unique<IndexDef>();
  idx->name = name;
  idx->id = id;
  idx->key_columns = std::move(key_columns);
  idx->unique = unique;
  Result<std::unique_ptr<BTree>> tree =
      checkpoint_root == kInvalidPageId
          ? BTree::Create(deps_->pool, deps_->registry,
                          BTree::TreeKind::kIndex, nullptr, nullptr)
          : BTree::OpenFromRoot(deps_->pool, deps_->registry,
                                BTree::TreeKind::kIndex, nullptr, nullptr,
                                checkpoint_root);
  if (!tree.ok()) return tree.status();
  idx->tree = std::move(tree.value());
  indexes_.push_back(std::move(idx));
  return Status::OK();
}

int Table::FindIndex(const std::string& name) const {
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i]->name == name) return static_cast<int>(i);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Key encoding
// ---------------------------------------------------------------------------

Result<Slice> Table::EncodeKeyValuesTo(const Schema& schema,
                                       const std::vector<uint32_t>& cols,
                                       const std::vector<Value>& values,
                                       Arena* arena) {
  if (cols.size() != values.size()) {
    return Result<Slice>(Status::InvalidArgument("key value count mismatch"));
  }
  return OrderedKeyTo(schema, cols.data(), cols.size(), ValueParts{values},
                      arena);
}

Result<Slice> Table::EncodeKeyFromRowTo(const Schema& schema,
                                        const std::vector<uint32_t>& cols,
                                        RowView row, Arena* arena) {
  return OrderedKeyTo(schema, cols.data(), cols.size(),
                      RowParts{schema, cols.data(), row}, arena);
}

std::string Table::PrefixSuccessor(const std::string& key) {
  std::string out = key;
  while (!out.empty()) {
    if (static_cast<uint8_t>(out.back()) != 0xFF) {
      out.back() = static_cast<char>(static_cast<uint8_t>(out.back()) + 1);
      return out;
    }
    out.pop_back();
  }
  return out;  // empty = unbounded
}

Arena* Table::ScratchOf(OpContext* ctx, Transaction* txn) {
  // An explicitly set ctx->arena wins; otherwise resolve the transaction
  // slot's scratch arena fresh each call (never cached back into ctx: an
  // OpContext may outlive this database instance, e.g. across a test's
  // close/reopen cycle, and a cached pointer would dangle).
  if (ctx->arena != nullptr) return ctx->arena;
  return &deps_->txn_mgr->slot(txn->slot_id()).scratch;
}

void Table::BumpNextRowId(RowId at_least) {
  RowId cur = next_row_id_.load(std::memory_order_relaxed);
  while (at_least > cur && !next_row_id_.compare_exchange_weak(
                               cur, at_least, std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------------------
// Secondary index entries
// ---------------------------------------------------------------------------

namespace {
std::string IndexEntryKey(const IndexDef& idx, Slice user_key, RowId rid) {
  std::string key(user_key.data(), user_key.size());
  if (!idx.unique) {
    char buf[8];
    EncodeBigEndian64(buf, rid);
    key.append(buf, 8);
  }
  return key;
}

/// True if the delta/update column set `cols` includes one of `idx`'s key
/// columns.
bool KeyTouched(const IndexDef& idx, const uint32_t* cols, size_t n) {
  for (uint32_t c : idx.key_columns) {
    if (std::find(cols, cols + n, c) != cols + n) return true;
  }
  return false;
}
}  // namespace

Status Table::HandleWriteBlock(OpContext* ctx, Transaction* txn,
                               const Status& conflict) {
  Xid other = conflict.wait_xid();
  uint64_t now = NowNanos();
  if (txn->waiting_on != other) {
    txn->waiting_on = other;
    txn->wait_started_ns = now;
  } else if (now - txn->wait_started_ns >
             deps_->options->deadlock_timeout_ms * 1000000ull) {
    txn->waiting_on = 0;
    return Status::Aborted("lock wait timeout (possible deadlock)");
  }
  if (ctx->synchronous) {
    deps_->txn_mgr->WaitForXidFor(other, 2000);
    return Status::OK();  // caller retries its loop
  }
  return conflict;  // propagate kBlocked; the coroutine yields and retries
}

Status Table::IndexInsertEntry(OpContext* ctx, IndexDef& idx, Slice user_key,
                               RowId rid) {
  std::string key = IndexEntryKey(idx, user_key, rid);
  Status st = idx.tree->IndexInsert(ctx, key, rid);
  if (st.IsKeyExists()) {
    uint64_t existing = 0;
    Status ls = idx.tree->IndexLookup(ctx, key, &existing);
    if (ls.ok() && existing == rid) return Status::OK();  // resume/idempotent
    return Status::Aborted("unique index violation: " + idx.name);
  }
  return st;
}

Status Table::IndexRemoveEntry(OpContext* ctx, IndexDef& idx, Slice user_key,
                               RowId rid) {
  std::string key = IndexEntryKey(idx, user_key, rid);
  if (idx.unique) {
    // Only remove if the entry still maps to this row.
    uint64_t existing = 0;
    Status ls = idx.tree->IndexLookup(ctx, key, &existing);
    if (ls.IsNotFound()) return Status::OK();
    if (!ls.ok()) return ls;
    if (existing != rid) return Status::OK();
  }
  Status st = idx.tree->IndexRemove(ctx, key);
  if (st.IsNotFound()) return Status::OK();  // idempotent
  return st;
}

Status Table::WalkIndexKeys(OpContext* ctx, RowView row, RowId rid, bool add,
                            Arena* arena) {
  Status first;
  for (auto& idx : indexes_) {
    Result<Slice> key = EncodeKeyFromRowTo(schema_, idx->key_columns, row,
                                           arena);
    Status st = key.status();
    if (st.ok()) {
      st = add ? IndexInsertEntry(ctx, *idx, key.value(), rid)
               : IndexRemoveEntry(ctx, *idx, key.value(), rid);
    }
    if (st.ok()) continue;
    if (add) return st;
    if (first.ok()) first = st;
  }
  return first;
}

Status Table::WalkChangedKeys(RowView from, RowView to, const uint32_t* cols,
                              size_t ncols, Arena* arena,
                              FunctionRef<Status(IndexDef&, Slice, Slice)> fn) {
  for (auto& idx : indexes_) {
    if (!KeyTouched(*idx, cols, ncols)) continue;
    Result<Slice> from_key =
        EncodeKeyFromRowTo(schema_, idx->key_columns, from, arena);
    if (!from_key.ok()) return from_key.status();
    Result<Slice> to_key =
        EncodeKeyFromRowTo(schema_, idx->key_columns, to, arena);
    if (!to_key.ok()) return to_key.status();
    if (from_key.value() == to_key.value()) continue;
    PHOEBE_RETURN_IF_ERROR(fn(*idx, from_key.value(), to_key.value()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The row-write protocol
// ---------------------------------------------------------------------------

Status Table::LockRowBaseline(OpContext* ctx, Transaction* txn, RowId rid) {
  if (!deps_->options->baseline_global_lock_table) return Status::OK();
  uint64_t lock_key = GlobalLockTable::Key(id_, rid);
  for (;;) {
    Status st = deps_->lock_table->AcquireExclusive(lock_key, txn->xid(),
                                                    /*blocking=*/false);
    if (st.ok()) {
      (*deps_->held_locks)[txn->slot_id()].push_back(lock_key);
      txn->waiting_on = 0;
      return Status::OK();
    }
    Status wait = HandleWriteBlock(ctx, txn, st);
    if (!wait.ok()) return wait;  // kBlocked (yield) or kAborted (timeout)
  }
}

TwinTable::Entry* Table::AttachTwin(BufferFrame* frame, uint16_t capacity,
                                    uint16_t slot) {
  bool created = TwinTable::Of(frame) == nullptr;
  TwinTable* twin = TwinTable::GetOrCreate(frame, capacity);
  if (created) deps_->txn_mgr->RegisterTwin(id_, frame);
  return &twin->entry(slot);
}

Status Table::LatchRowForWrite(OpContext* ctx, Transaction* txn, RowId rid,
                               RowLatch* out) {
  for (;;) {
    PHOEBE_RETURN_IF_ERROR(tree_->FixLeaf(ctx, BTree::TableKey(rid),
                                          LatchMode::kExclusive, &out->guard));
    TableLeaf leaf(out->guard.page(), &schema_, &layout_);
    if (!leaf.InRange(rid) || !leaf.IsLive(out->slot = leaf.SlotOf(rid))) {
      out->guard.Release();
      return Status::NotFound();
    }
    out->entry = AttachTwin(out->guard.frame(), leaf.capacity(), out->slot);

    ComponentScope prof(Component::kLocking);
    Status conflict = CheckWriteConflict(txn->xid(), txn->snapshot(),
                                         txn->isolation(), out->entry, id_,
                                         rid);
    if (conflict.IsBlocked()) {
      out->guard.Release();
      Status wait = HandleWriteBlock(ctx, txn, conflict);
      if (wait.ok()) continue;  // synchronous retry
      return wait;              // kBlocked (yield) or kAborted (deadlock)
    }
    if (!conflict.ok()) return conflict;
    txn->waiting_on = 0;
    return Status::OK();
  }
}

void Table::LinkVersion(Transaction* txn, TwinTable::Entry* entry,
                        UndoKind kind, RowId rid, Slice delta) {
  UndoRecord* prev = entry->head.load(std::memory_order_acquire);
  uint64_t sts = 0;
  if (kind != UndoKind::kInsert && prev != nullptr && prev->IsLive(nullptr) &&
      prev->rid == rid) {
    sts = prev->ets.load(std::memory_order_acquire);
  }
  UndoRecord* undo = deps_->txn_mgr->slot(txn->slot_id())
                         .arena.Alloc(kind, id_, rid, delta);
  undo->sts.store(sts, std::memory_order_relaxed);
  undo->ets.store(txn->xid(), std::memory_order_relaxed);
  undo->next.store(prev, std::memory_order_relaxed);
  txn->PushUndo(undo);
  entry->head.store(undo, std::memory_order_release);
}

void Table::LogRowChange(Transaction* txn, BufferFrame* frame,
                         WalRecordType type, RowId rid, Slice payload,
                         Arena* arena) {
  uint64_t gsn;
  if (frame != nullptr) {
    frame->dirty.store(true, std::memory_order_release);
    gsn = deps_->wal->OnPageWrite(txn, frame);
  } else {
    WalWriter& w = deps_->wal->WriterFor(txn->slot_id());
    gsn = w.LoadGsn() + 1;
    w.RaiseGsn(gsn);
  }
  deps_->wal->LogData(txn, type, gsn,
                      WalRecordCodec::DataPayloadTo(id_, rid, payload, arena));
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

Status Table::InsertBase(OpContext* ctx, Transaction* txn, RowId rid,
                         Slice row) {
  for (;;) {
    LeafGuard g;
    PHOEBE_RETURN_IF_ERROR(tree_->FixLeaf(ctx, BTree::TableKey(rid),
                                          LatchMode::kExclusive, &g));
    TableLeaf leaf(g.page(), &schema_, &layout_);
    if (!leaf.InRange(rid)) {
      g.Release();
      PHOEBE_RETURN_IF_ERROR(tree_->AppendTableLeaf(ctx, rid));
      continue;
    }
    uint16_t slot = leaf.SlotOf(rid);
    TwinTable::Entry* entry = AttachTwin(g.frame(), leaf.capacity(), slot);

    if (leaf.IsLive(slot)) {
      // Resume idempotence: already applied by this transaction?
      UndoRecord* h = entry->head.load(std::memory_order_acquire);
      if (h != nullptr && h->IsLive(nullptr) && h->rid == rid &&
          h->kind == UndoKind::kInsert &&
          h->ets.load(std::memory_order_acquire) == txn->xid()) {
        return Status::OK();
      }
      return Status::Corruption("insert: row id already occupied");
    }

    ComponentScope prof(Component::kMvcc);
    LinkVersion(txn, entry, UndoKind::kInsert, rid, Slice());
    PHOEBE_RETURN_IF_ERROR(
        leaf.InsertRow(slot, RowView(&schema_, row.data())));
    LogRowChange(txn, g.frame(), WalRecordType::kInsert, rid, row,
                 ScratchOf(ctx, txn));
    return Status::OK();
  }
}

Status Table::Insert(OpContext* ctx, Transaction* txn, Slice row,
                     RowId* rid_inout) {
  if (*rid_inout == 0) {
    *rid_inout = next_row_id_.fetch_add(1, std::memory_order_relaxed);
  }
  RowId rid = *rid_inout;
  PHOEBE_RETURN_IF_ERROR(InsertBase(ctx, txn, rid, row));

  // Index maintenance: synchronous sub-context (no yields after the apply).
  OpContext sync;
  sync.InitSyncViewOf(*ctx);
  PHOEBE_RETURN_IF_ERROR(WalkIndexKeys(&sync, RowView(&schema_, row.data()),
                                       rid, /*add=*/true,
                                       ScratchOf(ctx, txn)));
  txn->rows_written += 1;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Get
// ---------------------------------------------------------------------------

Status Table::GetRef(OpContext* ctx, Transaction* txn, RowId rid,
                     Slice* row) {
  // Tree first: live tree rows are authoritative even below the frozen
  // watermark (a freeze that raced a writer leaves a stale, shadowed block;
  // see DESIGN.md 4b). Frozen store is the fallback.
  Arena* arena = ScratchOf(ctx, txn);
  LeafGuard g;
  PHOEBE_RETURN_IF_ERROR(
      tree_->FixLeaf(ctx, BTree::TableKey(rid), LatchMode::kShared, &g));
  TableLeaf leaf(g.page(), &schema_, &layout_);
  uint16_t slot;
  if (!leaf.InRange(rid) || !leaf.IsLive(slot = leaf.SlotOf(rid))) {
    g.Release();
    if (frozen_ != nullptr && rid <= frozen_->max_frozen_row_id()) {
      std::string tmp;
      Status st = frozen_->ReadRow(rid, &tmp);
      if (!st.ok()) return st;
      *row = arena->Copy(tmp);
      txn->rows_read += 1;
      return Status::OK();
    }
    return Status::NotFound();
  }
  // Materialize the base row into the arena so it survives releasing the
  // page latch (the visible version may borrow it directly).
  Result<Slice> base = leaf.ReadRowTo(slot, arena);
  if (!base.ok()) return base.status();
  bool base_deleted = leaf.IsDeleted(slot);
  TwinTable* twin = TwinTable::Of(g.frame());
  TwinTable::Entry* entry = twin != nullptr ? &twin->entry(slot) : nullptr;
  deps_->wal->OnPageRead(txn, g.frame());

  VisibleVersion vv;
  PHOEBE_RETURN_IF_ERROR(RetrieveVisibleVersion(
      schema_, txn->xid(), txn->snapshot(), base.value(), base_deleted, entry,
      id_, rid, arena, deps_->txn_mgr, &vv));
  g.Release();
  if (!vv.exists) return Status::NotFound();
  *row = vv.row;
  txn->rows_read += 1;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Update
// ---------------------------------------------------------------------------

Status Table::Update(OpContext* ctx, Transaction* txn, RowId rid,
                     const std::vector<std::pair<uint32_t, Value>>& sets) {
  return UpdateApply(
      ctx, txn, rid,
      [&sets](RowView, std::vector<std::pair<uint32_t, Value>>* out) {
        *out = sets;
        return Status::OK();
      });
}

Status Table::UpdateApply(OpContext* ctx, Transaction* txn, RowId rid,
                          UpdateFn compute) {
  PHOEBE_RETURN_IF_ERROR(LockRowBaseline(ctx, txn, rid));
  RowLatch w;
  Status st = LatchRowForWrite(ctx, txn, rid, &w);
  if (st.IsNotFound() && frozen_ != nullptr &&
      rid <= frozen_->max_frozen_row_id() && !frozen_->IsDeleted(rid)) {
    // Frozen update: warm the row into hot storage, then update the fresh
    // copy (Section 5.2 case 3). Runs synchronously.
    OpContext sync;
    sync.InitSyncViewOf(*ctx);
    RowId new_rid = 0;
    PHOEBE_RETURN_IF_ERROR(WarmRow(&sync, txn, rid, &new_rid));
    return UpdateApply(&sync, txn, new_rid, compute);
  }
  PHOEBE_RETURN_IF_ERROR(st);
  TableLeaf leaf(w.guard.page(), &schema_, &layout_);
  if (leaf.IsDeleted(w.slot)) {
    // Deleted by a committed transaction: nothing to update.
    return Status::NotFound();
  }

  ComponentScope prof(Component::kMvcc);
  // Allocation-free hot section: the old row, patched row, deltas, and WAL
  // payload all live in the transaction arena (DESIGN.md 4g). The old row
  // is materialized off the page so index maintenance can read it after
  // the latch drops.
  Arena* arena = ScratchOf(ctx, txn);
  Result<Slice> old_row = leaf.ReadRowTo(w.slot, arena);
  if (!old_row.ok()) return old_row.status();
  RowView old_view(&schema_, old_row.value().data());

  // Evaluate the update against the current committed row (atomic RMW).
  std::vector<std::pair<uint32_t, Value>> sets;
  PHOEBE_RETURN_IF_ERROR(compute(old_view, &sets));

  // Patch the encoded row directly instead of re-building every column
  // through RowBuilder.
  Result<Slice> new_row =
      PatchRowTo(schema_, old_view, sets.data(), sets.size(), arena);
  if (!new_row.ok()) return new_row.status();
  RowView new_view(&schema_, new_row.value().data());

  const size_t ncols = sets.size();
  uint32_t* cols = reinterpret_cast<uint32_t*>(
      arena->Allocate(ncols * sizeof(uint32_t)));
  for (size_t i = 0; i < ncols; ++i) cols[i] = sets[i].first;

  // UNDO: before-image delta of the touched columns (Section 6.2).
  LinkVersion(txn, w.entry, UndoKind::kUpdate, rid,
              DeltaCodec::MakeDelta(schema_, old_view, cols, ncols, arena));
  PHOEBE_RETURN_IF_ERROR(leaf.UpdateRow(w.slot, new_view));
  LogRowChange(txn, w.guard.frame(), WalRecordType::kUpdate, rid,
               DeltaCodec::MakeDelta(schema_, new_view, cols, ncols, arena),
               arena);
  w.guard.Release();

  // Key-changing updates: add the new keys (synchronous). The old keys stay
  // until GC reclaims this version's UNDO record (OnUndoReclaimed).
  OpContext sync;
  sync.InitSyncViewOf(*ctx);
  PHOEBE_RETURN_IF_ERROR(WalkChangedKeys(
      old_view, new_view, cols, ncols, arena,
      [&](IndexDef& idx, Slice, Slice new_key) {
        return IndexInsertEntry(&sync, idx, new_key, rid);
      }));
  txn->rows_written += 1;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Delete
// ---------------------------------------------------------------------------

Status Table::Delete(OpContext* ctx, Transaction* txn, RowId rid) {
  PHOEBE_RETURN_IF_ERROR(LockRowBaseline(ctx, txn, rid));
  RowLatch w;
  Status st = LatchRowForWrite(ctx, txn, rid, &w);
  if (st.IsNotFound() && frozen_ != nullptr &&
      rid <= frozen_->max_frozen_row_id()) {
    std::string row;
    PHOEBE_RETURN_IF_ERROR(DeleteFrozen(ctx, txn, rid, &row));
    txn->rows_written += 1;
    return Status::OK();
  }
  PHOEBE_RETURN_IF_ERROR(st);
  TableLeaf leaf(w.guard.page(), &schema_, &layout_);
  if (leaf.IsDeleted(w.slot)) return Status::NotFound();

  ComponentScope prof(Component::kMvcc);
  LinkVersion(txn, w.entry, UndoKind::kDelete, rid, Slice());
  PHOEBE_RETURN_IF_ERROR(leaf.SetDeleted(w.slot, true));
  LogRowChange(txn, w.guard.frame(), WalRecordType::kDelete, rid, Slice(),
               ScratchOf(ctx, txn));
  if (frozen_ != nullptr && rid <= frozen_->max_frozen_row_id()) {
    // Shadow tombstone: a raced freeze may hold a stale copy of this row;
    // once GC purges the tree slot, the fallback must not resurrect it.
    frozen_->MarkDeleted(rid);
  }
  txn->rows_written += 1;
  return Status::OK();
}

Status Table::DeleteFrozen(OpContext* ctx, Transaction* txn, RowId rid,
                           std::string* row) {
  PHOEBE_RETURN_IF_ERROR(frozen_->ReadRow(rid, row));
  frozen_->MarkDeleted(rid);
  Arena* arena = ScratchOf(ctx, txn);
  LogRowChange(txn, /*frame=*/nullptr, WalRecordType::kDelete, rid, Slice(),
               arena);
  OpContext sync;
  sync.InitSyncViewOf(*ctx);
  return WalkIndexKeys(&sync, RowView(&schema_, row->data()), rid,
                       /*add=*/false, arena);
}

// ---------------------------------------------------------------------------
// Index access
// ---------------------------------------------------------------------------

Status Table::IndexGetRef(OpContext* ctx, Transaction* txn, size_t index_no,
                          const std::vector<Value>& key_values, RowId* rid,
                          Slice* row) {
  if (index_no >= indexes_.size()) {
    return Status::InvalidArgument("no such index");
  }
  IndexDef& idx = *indexes_[index_no];
  Result<Slice> key = EncodeKeyValuesTo(schema_, idx.key_columns, key_values,
                                        ScratchOf(ctx, txn));
  if (!key.ok()) return key.status();
  uint64_t value = 0;
  PHOEBE_RETURN_IF_ERROR(idx.tree->IndexLookup(ctx, key.value(), &value));
  if (rid != nullptr) *rid = value;
  if (row != nullptr) {
    return GetRef(ctx, txn, value, row);
  }
  return Status::OK();
}

Status Table::IndexScanRef(OpContext* ctx, Transaction* txn, size_t index_no,
                           const std::vector<Value>& lo_values,
                           const std::vector<Value>& hi_values,
                           FunctionRef<bool(RowId, Slice)> cb) {
  if (index_no >= indexes_.size()) {
    return Status::InvalidArgument("no such index");
  }
  IndexDef& idx = *indexes_[index_no];
  if (lo_values.size() > idx.key_columns.size() ||
      hi_values.size() > idx.key_columns.size()) {
    return Status::InvalidArgument("more key values than index columns");
  }
  const uint32_t* cols = idx.key_columns.data();
  std::string lo;
  PHOEBE_RETURN_IF_ERROR(OrderedKeyTo(schema_, cols, lo_values.size(),
                                      ValueParts{lo_values}, &lo));
  std::string hi;
  if (hi_values.empty()) {
    hi = PrefixSuccessor(lo);
  } else {
    PHOEBE_RETURN_IF_ERROR(OrderedKeyTo(schema_, cols, hi_values.size(),
                                        ValueParts{hi_values}, &hi));
  }

  std::vector<RowId> rids;
  PHOEBE_RETURN_IF_ERROR(idx.tree->IndexScan(
      ctx, lo, hi, [&rids](Slice, uint64_t v) {
        rids.push_back(v);
        return true;
      }));
  for (RowId rid : rids) {
    Slice row;
    Status st = GetRef(ctx, txn, rid, &row);
    if (st.IsNotFound()) continue;  // not visible to this snapshot
    PHOEBE_RETURN_IF_ERROR(st);
    if (!cb(rid, row)) break;
  }
  return Status::OK();
}

Status Table::ScanAllVisible(OpContext* ctx, Transaction* txn,
                             FunctionRef<bool(RowId, Slice)> cb) {
  // Walk hot/cold leaves collecting row ids, then read each with
  // visibility. Collect first to avoid callback re-entry under latches.
  // Live tree slots at or below the frozen watermark shadow stale frozen
  // copies left by a freeze that raced a writer (see DESIGN.md 4b).
  std::vector<RowId> rids;
  std::unordered_set<RowId> shadowed;
  RowId watermark =
      frozen_ != nullptr ? frozen_->max_frozen_row_id() : 0;
  Arena row_arena;
  OpContext scan_ctx;
  scan_ctx.InitSyncViewOf(*ctx);
  scan_ctx.count_accesses = false;
  scan_ctx.arena = &row_arena;
  PHOEBE_RETURN_IF_ERROR(tree_->ForEachTableLeaf(
      &scan_ctx, [&](TableLeaf& leaf, BufferFrame*) {
        for (uint16_t s = 0; s < leaf.capacity(); ++s) {
          if (!leaf.IsLive(s)) continue;
          RowId rid = leaf.first_row_id() + s;
          rids.push_back(rid);
          if (rid <= watermark) shadowed.insert(rid);
        }
        return true;
      }));
  bool stop = false;
  if (frozen_ != nullptr) {
    PHOEBE_RETURN_IF_ERROR(
        frozen_->Scan([&](RowId rid, const std::string& row) {
          if (shadowed.count(rid) != 0) return true;
          if (!cb(rid, row)) {
            stop = true;
            return false;
          }
          return true;
        }));
    if (stop) return Status::OK();
  }
  for (RowId rid : rids) {
    row_arena.Reset();
    Slice row;
    Status st = GetRef(&scan_ctx, txn, rid, &row);
    if (st.IsNotFound()) continue;
    PHOEBE_RETURN_IF_ERROR(st);
    if (!cb(rid, row)) break;
  }
  return Status::OK();
}

namespace {

/// Shared columnar-scan driver over the frozen + hot tiers.
template <typename T>
Status ScanColumnGeneric(Table* table, BTree* tree, FrozenStore* frozen,
                         const Schema& schema, OpContext* ctx,
                         Transaction* txn, uint32_t col,
                         const std::function<bool(RowId, T)>& cb) {
  bool stop = false;
  // Pre-pass: live tree slots at/below the frozen watermark shadow stale
  // frozen copies (freeze raced a writer; tree is authoritative).
  std::unordered_set<RowId> shadowed;
  OpContext pre_ctx;
  pre_ctx.InitSyncViewOf(*ctx);
  pre_ctx.count_accesses = false;
  if (frozen != nullptr && frozen->max_frozen_row_id() > 0) {
    RowId watermark = frozen->max_frozen_row_id();
    PHOEBE_RETURN_IF_ERROR(tree->ForEachTableLeaf(
        &pre_ctx, [&](TableLeaf& leaf, BufferFrame*) {
          if (leaf.first_row_id() > watermark) return false;  // past it
          for (uint16_t s = 0; s < leaf.capacity(); ++s) {
            RowId rid = leaf.first_row_id() + s;
            if (rid > watermark) break;
            if (leaf.IsLive(s)) shadowed.insert(rid);
          }
          return true;
        }));
  }
  // Frozen tier: per-block column projection (no row materialization).
  if (frozen != nullptr) {
    std::function<bool(RowId, T)> wrapped = [&](RowId rid, T v) {
      if (shadowed.count(rid) != 0) return true;
      if (!cb(rid, v)) {
        stop = true;
        return false;
      }
      return true;
    };
    if constexpr (std::is_same_v<T, int64_t>) {
      PHOEBE_RETURN_IF_ERROR(frozen->ScanColumnInt64(col, wrapped));
    } else {
      PHOEBE_RETURN_IF_ERROR(frozen->ScanColumnDouble(col, wrapped));
    }
    if (stop) return Status::OK();
  }

  // Hot/cold tier: direct PAX minipage reads; per-tuple visibility only for
  // slots with pending version chains (Algorithm 1 fallback).
  Arena row_arena;
  OpContext scan_ctx;
  scan_ctx.InitSyncViewOf(*ctx);
  scan_ctx.count_accesses = false;
  scan_ctx.arena = &row_arena;
  std::vector<RowId> slow;
  Status scan_st = tree->ForEachTableLeaf(
      &scan_ctx, [&](TableLeaf& leaf, BufferFrame* frame) {
        TwinTable* twin = TwinTable::Of(frame);
        for (uint16_t s = 0; s < leaf.capacity(); ++s) {
          if (!leaf.IsLive(s)) continue;
          RowId rid = leaf.first_row_id() + s;
          bool has_chain = false;
          if (twin != nullptr) {
            UndoRecord* h =
                twin->entry(s).head.load(std::memory_order_acquire);
            has_chain = h != nullptr && h->IsLive(nullptr);
          }
          if (has_chain) {
            slow.push_back(rid);  // resolve via Algorithm 1 afterwards
            continue;
          }
          if (leaf.IsDeleted(s) || leaf.IsNullCol(s, col)) continue;
          T v;
          if constexpr (std::is_same_v<T, int64_t>) {
            v = leaf.ReadInt64Col(s, col);
          } else {
            v = leaf.ReadDoubleCol(s, col);
          }
          if (!cb(rid, v)) {
            stop = true;
            return false;
          }
        }
        return true;
      });
  PHOEBE_RETURN_IF_ERROR(scan_st);
  if (stop) return Status::OK();

  for (RowId rid : slow) {
    row_arena.Reset();
    Slice row;
    Status st = table->GetRef(&scan_ctx, txn, rid, &row);
    if (st.IsNotFound()) continue;
    PHOEBE_RETURN_IF_ERROR(st);
    RowView view(&schema, row.data());
    if (view.IsNull(col)) continue;
    T v;
    if constexpr (std::is_same_v<T, int64_t>) {
      v = schema.column(col).type == ColumnType::kInt32
              ? view.GetInt32(col)
              : view.GetInt64(col);
    } else {
      v = view.GetDouble(col);
    }
    if (!cb(rid, v)) break;
  }
  return Status::OK();
}

}  // namespace

Status Table::ScanColumnInt64(
    OpContext* ctx, Transaction* txn, uint32_t col,
    const std::function<bool(RowId, int64_t)>& cb) {
  if (col >= schema_.num_columns()) {
    return Status::InvalidArgument("no such column");
  }
  ColumnType type = schema_.column(col).type;
  if (type != ColumnType::kInt32 && type != ColumnType::kInt64) {
    return Status::InvalidArgument("not an integer column");
  }
  return ScanColumnGeneric<int64_t>(this, tree_.get(), frozen_.get(), schema_,
                                    ctx, txn, col, cb);
}

Status Table::ScanColumnDouble(
    OpContext* ctx, Transaction* txn, uint32_t col,
    const std::function<bool(RowId, double)>& cb) {
  if (col >= schema_.num_columns() ||
      schema_.column(col).type != ColumnType::kDouble) {
    return Status::InvalidArgument("not a double column");
  }
  return ScanColumnGeneric<double>(this, tree_.get(), frozen_.get(), schema_,
                                   ctx, txn, col, cb);
}

// ---------------------------------------------------------------------------
// Rollback & GC
// ---------------------------------------------------------------------------

Status Table::RollbackRecord(OpContext* ctx, Transaction* txn,
                             const UndoRecord* rec) {
  OpContext sync;
  sync.InitSyncViewOf(*ctx);
  Arena* arena = ScratchOf(ctx, txn);
  LeafGuard g;
  PHOEBE_RETURN_IF_ERROR(tree_->FixLeaf(&sync, BTree::TableKey(rec->rid),
                                        LatchMode::kExclusive, &g));
  TableLeaf leaf(g.page(), &schema_, &layout_);
  if (!leaf.InRange(rec->rid)) {
    return Status::Corruption("rollback: leaf missing");
  }
  uint16_t slot = leaf.SlotOf(rec->rid);
  TwinTable* twin = TwinTable::Of(g.frame());
  if (twin == nullptr) return Status::Corruption("rollback: twin missing");
  auto& entry = twin->entry(slot);

  Result<Slice> cur = leaf.ReadRowTo(slot, arena);
  if (!cur.ok()) return cur.status();
  RowView cur_view(&schema_, cur.value().data());
  Status index_st;
  switch (rec->kind) {
    case UndoKind::kInsert:
      PHOEBE_RETURN_IF_ERROR(leaf.EraseRow(slot));
      break;
    case UndoKind::kUpdate: {
      Result<Slice> before =
          DeltaCodec::ApplyDelta(schema_, cur.value(), rec->delta(), arena);
      if (!before.ok()) return before.status();
      PHOEBE_RETURN_IF_ERROR(
          leaf.UpdateRow(slot, RowView(&schema_, before.value().data())));
      // Still under the latch, so no writer can re-claim the key between
      // the decision and the removal.
      index_st =
          RollbackIndexEntries(&sync, rec, cur_view, before.value(), arena);
      break;
    }
    case UndoKind::kDelete:
      PHOEBE_RETURN_IF_ERROR(leaf.SetDeleted(slot, false));
      break;
  }
  // Unlink: an active transaction's record is always the chain head.
  entry.head.store(rec->next.load(std::memory_order_acquire),
                   std::memory_order_release);
  g.frame()->dirty.store(true, std::memory_order_release);
  // No GSN stamp: a rollback logs nothing, so a fresh GSN here would sit
  // above anything its writer ever flushes and give every later reader of
  // the page a remote dependency. The page keeps the stamp of the logged
  // write this undoes.
  g.Release();

  if (rec->kind == UndoKind::kInsert) {
    // Remove the index entries added by the aborted insert.
    PHOEBE_RETURN_IF_ERROR(
        WalkIndexKeys(&sync, cur_view, rec->rid, /*add=*/false, arena));
  }
  return index_st;
}

Status Table::RollbackIndexEntries(OpContext* ctx, const UndoRecord* rec,
                                   RowView cur, Slice restored,
                                   Arena* arena) {
  // A version older than `rec` stays visible to some snapshot until GC may
  // reclaim its record (commit ts below the oldest active snapshot); GC
  // then drops that version's stale entry itself (OnUndoReclaimed).
  const Timestamp horizon = deps_->txn_mgr->MinActiveStartTs();
  auto older_version_has = [&](const IndexDef& idx, Slice key) {
    Slice version = restored;
    const UndoRecord* r = rec->next.load(std::memory_order_acquire);
    while (r != nullptr) {
      uint64_t stamp = 0;
      if (!r->IsLive(&stamp) || r->relation != id_ || r->rid != rec->rid) {
        return false;
      }
      const UndoKind kind = r->kind;
      const uint64_t ets = r->ets.load(std::memory_order_acquire);
      const UndoRecord* next = r->next.load(std::memory_order_acquire);
      Slice delta = arena->Copy(r->delta());
      if (!r->StampUnchanged(stamp)) return false;  // recycled mid-copy
      if (ets != 0 && !IsXid(ets) && ets < horizon) return false;
      if (kind == UndoKind::kInsert) return false;  // no older version
      if (kind == UndoKind::kUpdate) {
        Result<Slice> prev = DeltaCodec::ApplyDelta(schema_, version, delta,
                                                    arena);
        if (!prev.ok()) return true;  // undecodable: keep the entry
        version = prev.value();
      }
      Result<Slice> k = EncodeKeyFromRowTo(
          schema_, idx.key_columns, RowView(&schema_, version.data()), arena);
      if (k.ok() && k.value() == key) return true;
      r = next;
    }
    return false;
  };

  // The record's delta holds exactly the columns the update touched.
  Result<std::vector<uint32_t>> touched =
      DeltaCodec::TouchedColumns(schema_, rec->delta());
  if (!touched.ok()) return touched.status();
  return WalkChangedKeys(
      cur, RowView(&schema_, restored.data()), touched.value().data(),
      touched.value().size(), arena,
      [&](IndexDef& idx, Slice cur_key, Slice) {
        if (older_version_has(idx, cur_key)) return Status::OK();
        return IndexRemoveEntry(ctx, idx, cur_key, rec->rid);
      });
}

void Table::OnUndoReclaimed(OpContext* ctx, const UndoRecord& rec) {
  OpContext sync;
  sync.InitSyncViewOf(*ctx);
  sync.count_accesses = false;
  Arena* arena = ctx->arena;
  if (rec.kind == UndoKind::kDelete) {
    // Physically purge the tuple and its index entries (Section 7.3).
    LeafGuard g;
    Status st = tree_->FixLeaf(&sync, BTree::TableKey(rec.rid),
                               LatchMode::kExclusive, &g);
    if (!st.ok()) return;
    TableLeaf leaf(g.page(), &schema_, &layout_);
    if (!leaf.InRange(rec.rid)) return;
    uint16_t slot = leaf.SlotOf(rec.rid);
    if (!leaf.IsLive(slot) || !leaf.IsDeleted(slot)) return;
    Result<Slice> row = leaf.ReadRowTo(slot, arena);
    if (!row.ok()) return;
    if (!leaf.EraseRow(slot).ok()) return;
    g.frame()->dirty.store(true, std::memory_order_release);
    g.Release();
    (void)WalkIndexKeys(&sync, RowView(&schema_, row.value().data()), rec.rid,
                        /*add=*/false, arena);
  } else if (rec.kind == UndoKind::kUpdate) {
    // Stale index entries after key-changing updates: the before values of
    // key columns live in the delta.
    Result<std::vector<uint32_t>> touched =
        DeltaCodec::TouchedColumns(schema_, rec.delta());
    if (!touched.ok()) return;
    const std::vector<uint32_t>& cols = touched.value();
    if (std::none_of(indexes_.begin(), indexes_.end(), [&cols](auto& idx) {
          return KeyTouched(*idx, cols.data(), cols.size());
        })) {
      return;
    }
    // Reconstruct the before image from the current row + delta and drop
    // its (now stale) entries.
    Slice cur;
    {
      LeafGuard g;
      Status st = tree_->FixLeaf(&sync, BTree::TableKey(rec.rid),
                                 LatchMode::kShared, &g);
      if (!st.ok()) return;
      TableLeaf leaf(g.page(), &schema_, &layout_);
      if (!leaf.InRange(rec.rid)) return;
      Result<Slice> row = leaf.ReadRowTo(leaf.SlotOf(rec.rid), arena);
      if (!row.ok()) return;
      cur = row.value();
    }
    Result<Slice> before =
        DeltaCodec::ApplyDelta(schema_, cur, rec.delta(), arena);
    if (!before.ok()) return;
    (void)WalkChangedKeys(
        RowView(&schema_, before.value().data()), RowView(&schema_, cur.data()),
        cols.data(), cols.size(), arena,
        [&](IndexDef& idx, Slice old_key, Slice) {
          (void)IndexRemoveEntry(&sync, idx, old_key, rec.rid);
          return Status::OK();
        });
  }
}

// ---------------------------------------------------------------------------
// Temperature exchange
// ---------------------------------------------------------------------------

Result<int> Table::FreezePass(OpContext* ctx, int max_leaves) {
  OpContext sync;
  sync.InitSyncViewOf(*ctx);
  sync.count_accesses = false;
  int frozen_count = 0;
  const uint32_t epoch = deps_->pool->current_epoch();
  const auto& opts = *deps_->options;

  Arena arena;
  while (frozen_count < max_leaves) {
    RowId start = frozen_->max_frozen_row_id() + 1;
    std::vector<RowId> rids;
    std::vector<std::string> rows;
    arena.Reset();
    bool eligible = false;
    RowId range_end = 0;
    {
      LeafGuard g;
      Status st = tree_->FixLeaf(&sync, BTree::TableKey(start),
                                 LatchMode::kExclusive, &g);
      if (!st.ok()) return Result<int>(st);
      TableLeaf leaf(g.page(), &schema_, &layout_);
      BufferFrame* frame = g.frame();
      RowId leaf_end = leaf.first_row_id() + leaf.capacity();
      bool is_tail =
          leaf_end > next_row_id_.load(std::memory_order_relaxed);
      if (leaf.first_row_id() == start && !is_tail &&
          TwinTable::Of(frame) == nullptr &&
          frame->access_count.load(std::memory_order_relaxed) <=
              opts.freeze_access_threshold &&
          frame->last_access_epoch.load(std::memory_order_relaxed) +
                  opts.freeze_epoch_age <=
              epoch) {
        eligible = true;
        range_end = leaf_end - 1;
        for (uint16_t s = 0; s < leaf.capacity(); ++s) {
          if (!leaf.IsLive(s) || leaf.IsDeleted(s)) continue;
          Result<Slice> row = leaf.ReadRowTo(s, &arena);
          if (!row.ok()) return Result<int>(row.status());
          rids.push_back(leaf.first_row_id() + s);
          rows.push_back(row.value().ToString());
        }
      }
    }
    if (!eligible) break;
    PHOEBE_RETURN_IF_ERROR(frozen_->FreezeBlock(rids, rows, range_end));
    Status st = tree_->DetachTableLeaf(&sync, start);
    if (!st.ok() && !st.IsNotFound()) return Result<int>(st);
    ++frozen_count;
  }
  return Result<int>(frozen_count);
}

Status Table::WarmRow(OpContext* ctx, Transaction* txn, RowId frozen_rid,
                      RowId* new_rid) {
  // Stale-block guard: if the row is live in the tree (a freeze raced a
  // writer), the tree copy is authoritative — just tombstone the shadowed
  // frozen copy and keep the existing rid.
  {
    LeafGuard g;
    PHOEBE_RETURN_IF_ERROR(tree_->FixLeaf(ctx, BTree::TableKey(frozen_rid),
                                          LatchMode::kShared, &g));
    TableLeaf leaf(g.page(), &schema_, &layout_);
    if (leaf.InRange(frozen_rid) && leaf.IsLive(leaf.SlotOf(frozen_rid))) {
      g.Release();
      frozen_->MarkDeleted(frozen_rid);
      *new_rid = frozen_rid;
      return Status::OK();
    }
  }
  // Tombstone the frozen copy (logged: the tree copy of the row is
  // resurrected by replay and must end up deleted) and replace its index
  // entries: old rid out here, new rid in inside Insert.
  std::string row;
  PHOEBE_RETURN_IF_ERROR(DeleteFrozen(ctx, txn, frozen_rid, &row));
  RowId rid = 0;
  PHOEBE_RETURN_IF_ERROR(Insert(ctx, txn, row, &rid));
  *new_rid = rid;
  return Status::OK();
}

Status Table::WarmPass(OpContext* ctx, Transaction* txn, size_t max_rows) {
  OpContext sync;
  sync.InitSyncViewOf(*ctx);
  std::vector<RowId> hot =
      frozen_->HotFrozenRows(deps_->options->warm_read_threshold, max_rows);
  for (RowId rid : hot) {
    RowId new_rid = 0;
    Status st = WarmRow(&sync, txn, rid, &new_rid);
    if (st.IsNotFound()) continue;
    PHOEBE_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery appliers
// ---------------------------------------------------------------------------

Status Table::ReplayInsert(OpContext* ctx, RowId rid, Slice row) {
  BumpNextRowId(rid + 1);
  for (;;) {
    LeafGuard g;
    PHOEBE_RETURN_IF_ERROR(tree_->FixLeaf(ctx, BTree::TableKey(rid),
                                          LatchMode::kExclusive, &g));
    TableLeaf leaf(g.page(), &schema_, &layout_);
    if (!leaf.InRange(rid)) {
      g.Release();
      PHOEBE_RETURN_IF_ERROR(tree_->AppendTableLeaf(ctx, rid));
      continue;
    }
    uint16_t slot = leaf.SlotOf(rid);
    if (!leaf.IsLive(slot)) {
      PHOEBE_RETURN_IF_ERROR(
          leaf.InsertRow(slot, RowView(&schema_, row.data())));
      g.frame()->dirty.store(true, std::memory_order_release);
    }
    break;
  }
  RowView view(&schema_, row.data());
  for (auto& idx : indexes_) {
    Result<Slice> key =
        EncodeKeyFromRowTo(schema_, idx->key_columns, view, ctx->arena);
    if (!key.ok()) return key.status();
    std::string entry_key = IndexEntryKey(*idx, key.value(), rid);
    Status st = idx->tree->IndexInsert(ctx, entry_key, rid);
    if (st.IsKeyExists() && idx->unique) {
      // Replay has no GC: a unique entry can still map to a row whose delete
      // happened before the checkpoint cut but whose entry was never purged
      // (the image carries it verbatim). Reclaim the mapping iff that row is
      // dead; a live mismatch would be a corrupt history and is left alone.
      uint64_t existing = 0;
      Status ls = idx->tree->IndexLookup(ctx, entry_key, &existing);
      if (!ls.ok() && !ls.IsNotFound()) return ls;
      if (ls.ok() && existing != rid && !ReplayRowLive(ctx, existing)) {
        PHOEBE_RETURN_IF_ERROR(idx->tree->IndexRemove(ctx, entry_key));
        st = idx->tree->IndexInsert(ctx, entry_key, rid);
      }
    }
    if (!st.ok() && !st.IsKeyExists()) return st;
  }
  return Status::OK();
}

bool Table::ReplayRowLive(OpContext* ctx, RowId rid) {
  LeafGuard g;
  Status st =
      tree_->FixLeaf(ctx, BTree::TableKey(rid), LatchMode::kShared, &g);
  if (!st.ok()) return false;
  TableLeaf leaf(g.page(), &schema_, &layout_);
  uint16_t slot;
  return leaf.InRange(rid) && leaf.IsLive(slot = leaf.SlotOf(rid)) &&
         !leaf.IsDeleted(slot);
}

Status Table::ReplayUpdate(OpContext* ctx, RowId rid, Slice after_delta) {
  Arena* arena = ctx->arena;
  LeafGuard g;
  PHOEBE_RETURN_IF_ERROR(
      tree_->FixLeaf(ctx, BTree::TableKey(rid), LatchMode::kExclusive, &g));
  TableLeaf leaf(g.page(), &schema_, &layout_);
  uint16_t slot;
  if (!leaf.InRange(rid) || !leaf.IsLive(slot = leaf.SlotOf(rid))) {
    return Status::OK();  // row purged later in history; ignore
  }
  Result<Slice> cur = leaf.ReadRowTo(slot, arena);
  if (!cur.ok()) return cur.status();
  Result<Slice> next =
      DeltaCodec::ApplyDelta(schema_, cur.value(), after_delta, arena);
  if (!next.ok()) return next.status();
  RowView old_view(&schema_, cur.value().data());
  RowView new_view(&schema_, next.value().data());
  PHOEBE_RETURN_IF_ERROR(leaf.UpdateRow(slot, new_view));
  g.frame()->dirty.store(true, std::memory_order_release);
  g.Release();

  // Key-changing updates: refresh index entries.
  Result<std::vector<uint32_t>> touched =
      DeltaCodec::TouchedColumns(schema_, after_delta);
  if (!touched.ok()) return touched.status();
  return WalkChangedKeys(
      old_view, new_view, touched.value().data(), touched.value().size(),
      arena, [&](IndexDef& idx, Slice old_key, Slice new_key) {
        (void)IndexRemoveEntry(ctx, idx, old_key, rid);
        Status st =
            idx.tree->IndexInsert(ctx, IndexEntryKey(idx, new_key, rid), rid);
        return st.IsKeyExists() ? Status::OK() : st;
      });
}

Status Table::ReplayDelete(OpContext* ctx, RowId rid) {
  LeafGuard g;
  PHOEBE_RETURN_IF_ERROR(
      tree_->FixLeaf(ctx, BTree::TableKey(rid), LatchMode::kExclusive, &g));
  TableLeaf leaf(g.page(), &schema_, &layout_);
  uint16_t slot;
  if (leaf.InRange(rid) && leaf.IsLive(slot = leaf.SlotOf(rid))) {
    Result<Slice> row = leaf.ReadRowTo(slot, ctx->arena);
    if (!row.ok()) return row.status();
    PHOEBE_RETURN_IF_ERROR(leaf.SetDeleted(slot, true));
    g.frame()->dirty.store(true, std::memory_order_release);
    g.Release();
    // In forward operation the index entry outlives the delete until GC
    // purges it; replay has no GC, so drop it now — otherwise a replayed
    // re-insert of the same unique key can never claim the mapping.
    return WalkIndexKeys(ctx, RowView(&schema_, row.value().data()), rid,
                         /*add=*/false, ctx->arena);
  }
  g.Release();
  // Row not in the tree: it was frozen before the checkpoint; tombstone it.
  if (frozen_ != nullptr && rid <= frozen_->max_frozen_row_id()) {
    frozen_->MarkDeleted(rid);
  }
  return Status::OK();
}

Status Table::DropStorage(OpContext* ctx) {
  for (auto& idx : indexes_) {
    PHOEBE_RETURN_IF_ERROR(idx->tree->Drop(ctx));
  }
  indexes_.clear();
  PHOEBE_RETURN_IF_ERROR(tree_->Drop(ctx));
  frozen_.reset();
  return FrozenStore::Destroy(deps_->env, deps_->dir, name_);
}

Status Table::DropIndexAt(OpContext* ctx, size_t index_no) {
  if (index_no >= indexes_.size()) {
    return Status::NotFound("no such index");
  }
  PHOEBE_RETURN_IF_ERROR(indexes_[index_no]->tree->Drop(ctx));
  indexes_.erase(indexes_.begin() + static_cast<long>(index_no));
  return Status::OK();
}

Result<PageId> Table::Checkpoint(OpContext* ctx) {
  PHOEBE_RETURN_IF_ERROR(frozen_->Checkpoint());
  return tree_->Checkpoint(ctx);
}

}  // namespace phoebe
