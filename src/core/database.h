#ifndef PHOEBE_CORE_DATABASE_H_
#define PHOEBE_CORE_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baseline/pg_snapshot.h"
#include "common/metrics.h"
#include "core/catalog.h"
#include "core/options.h"
#include "core/table.h"
#include "runtime/scheduler.h"

namespace phoebe {

/// The PhoebeDB kernel facade: catalog + storage + transactions + WAL +
/// runtime wiring. One instance per data directory.
///
/// Typical use:
///   auto db = Database::Open(options).value();
///   Table* t = db->CreateTable("accounts", schema).value();
///   db->CreateIndex("accounts", "pk", {0}, true);
///   Transaction* txn = db->Begin(slot_id);
///   ... t->Insert/Get/Update/Delete(ctx, txn, ...) ...
///   db->Commit(ctx, txn);   // or db->Abort(ctx, txn)
///   db->Close();
class Database {
 public:
  /// Opens (or creates) the database; runs crash recovery when needed.
  static Result<std::unique_ptr<Database>> Open(const DatabaseOptions& options);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// --- DDL -------------------------------------------------------------------

  Result<Table*> CreateTable(const std::string& name, const Schema& schema);
  Result<Table*> GetTable(const std::string& name);
  Table* TableById(RelationId id);
  Status CreateIndex(const std::string& table, const std::string& index_name,
                     std::vector<uint32_t> key_columns, bool unique);

  /// Drops a table (and its indexes + frozen store). Quiescent callers
  /// only: no transaction may be using the table.
  Status DropTable(const std::string& name);

  /// Drops one secondary index of a table.
  Status DropIndex(const std::string& table, const std::string& index_name);

  /// --- Transactions ------------------------------------------------------------

  /// Begins a transaction on `slot_id` (a scheduler task slot or aux slot).
  Transaction* Begin(uint32_t slot_id,
                     IsolationLevel iso = IsolationLevel::kReadCommitted);
  /// Begins using the engine's default isolation level.
  Transaction* BeginDefault(uint32_t slot_id) {
    return Begin(slot_id, options_.default_isolation);
  }

  /// Per-statement snapshot refresh (O(1) in Phoebe mode; O(active) scan in
  /// baseline PostgreSQL-snapshot mode).
  void StatementBegin(Transaction* txn);

  /// Commits: assigns cts, updates UNDO ets in one scan, logs the commit
  /// record, and waits for durability under the RFA rule. In coroutine mode
  /// returns kBlocked(kCommitFlush) until durable — re-invoke after
  /// yielding (idempotent).
  Status Commit(OpContext* ctx, Transaction* txn);

  /// Aborts: rolls back all changes via the in-memory UNDO list.
  Status Abort(OpContext* ctx, Transaction* txn);

  /// --- Runtime wiring ------------------------------------------------------------

  /// Housekeeping hooks for the scheduler (page swap, GC, sweeps).
  Scheduler::Hooks MakeSchedulerHooks();

  /// First aux slot id (aux slots follow the worker slots).
  uint32_t aux_slot(uint32_t i = 0) const {
    return options_.workers * options_.slots_per_worker + i;
  }

  /// --- Maintenance ------------------------------------------------------------

  /// Quiesced checkpoint: flushes everything, records roots in the catalog,
  /// truncates the WAL. No transactions may be active (kAborted otherwise —
  /// use RequestCheckpoint for an online checkpoint that waits).
  Status CheckpointNow();

  /// Online checkpoint attempt: closes the transaction admission gate,
  /// waits up to checkpoint_quiesce_timeout_ms for active transactions and
  /// live undo to drain, then checkpoints and reopens the gate. kAborted on
  /// quiesce timeout (the caller backs off and retries; the workload is
  /// never aborted on the checkpoint's behalf).
  Status RequestCheckpoint();

  /// Counters for the background checkpointer (readable while it runs).
#define PHOEBE_CHECKPOINT_STATS(X)                                      \
  X(attempts)                                                           \
  X(completed)                                                          \
  X(quiesce_timeouts)                                                   \
  X(failures)                                                           \
  X(last_watermark) /* GSN watermark of the last completed checkpoint */

  struct CheckpointStats {
    PHOEBE_CHECKPOINT_STATS(PHOEBE_COUNTER_FIELD)

    template <typename Fn>
    void ForEach(Fn&& fn) const {
      PHOEBE_CHECKPOINT_STATS(PHOEBE_COUNTER_VISIT)
    }
  };
  const CheckpointStats& checkpoint_stats() const { return ckpt_stats_; }

  /// Test-only: invoked at named points inside the checkpoint body
  /// ("mid_page_writes", "after_page_writes", "before_catalog_rename",
  /// "before_wal_truncate", "after_wal_truncate"). Returning true aborts
  /// the checkpoint at that instant — the torture harness then simulates a
  /// crash and asserts recovery from exactly that on-disk state.
  void TEST_SetCheckpointCrashHook(std::function<bool(const char*)> hook) {
    ckpt_crash_hook_ = std::move(hook);
  }

  /// Runs GC to completion across all slots (quiesced).
  void DrainGc();

  /// Clean shutdown: DrainGc + CheckpointNow.
  Status Close();

  /// Test-only crash simulation: stops the background checkpointer,
  /// releases the directory lock and suppresses the destructor's clean
  /// shutdown, leaving all on-disk state exactly as a real crash would
  /// (WAL un-truncated, no checkpoint). The object must be leaked
  /// afterwards (its threads stay alive).
  void TEST_SimulateCrash();

  /// --- Components ------------------------------------------------------------

  const DatabaseOptions& options() const { return options_; }
  TxnManager* txn_manager() { return txn_mgr_.get(); }
  /// Per-slot scratch arena of `txn`: reset at the slot's next Begin, so
  /// slices allocated from it survive Commit/Abort (DESIGN.md 4g).
  Arena* ScratchArena(Transaction* txn) {
    return &txn_mgr_->slot(txn->slot_id()).scratch;
  }
  WalManager* wal() { return wal_.get(); }
  BufferPool* pool() { return pool_.get(); }
  BTreeRegistry* registry() { return registry_.get(); }
  GlobalClock* clock() { return &clock_; }
  EngineDeps* deps() { return &deps_; }
  BandwidthThrottle* throttle() { return throttle_.get(); }

  /// What the crash recovery at Open did (all zero after a clean start).
#define PHOEBE_RECOVERY_INFO(X)                                              \
  X(bool, ran)                                                               \
  X(uint64_t, records_replayed)                                              \
  X(uint64_t, committed_txns)                                                \
  X(uint64_t, skipped_uncommitted)                                           \
  /* WAL files whose tail was torn by the crash (clean prefix recovered) */  \
  X(uint64_t, torn_tails)                                                    \
  /* True when a clean checkpoint image bounded the replay */                \
  X(bool, used_checkpoint)                                                   \
  /* Checkpoint GSN watermark applied to the scan (0 = full replay) */       \
  X(uint64_t, watermark_gsn)                                                 \
  /* Records below the watermark, already in the checkpoint image */         \
  X(uint64_t, skipped_checkpointed)                                          \
  X(uint64_t, wal_bytes_scanned)                                             \
  X(double, elapsed_ms)

  struct RecoveryInfo {
#define PHOEBE_RECOVERY_FIELD(type, name) type name{};
    PHOEBE_RECOVERY_INFO(PHOEBE_RECOVERY_FIELD)
#undef PHOEBE_RECOVERY_FIELD

    template <typename Fn>
    void ForEach(Fn&& fn) const {
#define PHOEBE_RECOVERY_VISIT(type, name) fn(#name, static_cast<double>(name));
      PHOEBE_RECOVERY_INFO(PHOEBE_RECOVERY_VISIT)
#undef PHOEBE_RECOVERY_VISIT
    }
  };
  const RecoveryInfo& recovery_info() const { return recovery_info_; }

  /// Point-in-time snapshot of every layer's counters, in order: io.*,
  /// buffer.*, wal.*, checkpoint.*, recovery.*, txn.*, then — when
  /// `scheduler` is given — its totals as sched.* and each worker's as
  /// sched.w<N>.*, and last the process-wide allocation totals as alloc.*.
  /// Safe to call while transactions run; each counter is read on its own,
  /// so the snapshot is approximate but tear-free.
  MetricList Metrics(const Scheduler* scheduler = nullptr) const;

 private:
  explicit Database(const DatabaseOptions& options);

  Status Init();
  Status LoadCatalogAndRecover();
  Status PersistCatalog(bool clean);
  Status RunRecovery(uint64_t watermark_gsn, uint64_t checkpoint_ts);

  /// Checkpoint body. Caller holds ckpt_mu_ and has quiesced the system
  /// (admission gate closed, all slots idle, no live undo). Pauses the
  /// scheduler hooks for the duration of the page walk.
  Status CheckpointLocked();

  /// Returns non-OK when the test crash hook fires at `point`.
  Status CrashPoint(const char* point);

  /// Reclaims an aux slot at the end of its Commit or Abort: no scheduler
  /// worker collects aux slots, so the finishing transaction runs the
  /// slot's UNDO GC and, when that or its own rollback freed records,
  /// sweeps twin tables. Inside the hook pause barrier; scheduler slots
  /// return at once. `rolled_back` counts records the Abort freed.
  void ReclaimAuxSlot(uint32_t slot_id, size_t rolled_back);

  /// Scheduler-hook pause barrier: the checkpoint walk mutates pages and
  /// swips latch-free, so no housekeeping hook may run concurrently.
  bool EnterHook();
  void ExitHook();
  void PauseHooks();
  void ResumeHooks();

  void StartCheckpointer();
  void StopCheckpointer();
  void CheckpointerLoop();

  DatabaseOptions options_;
  Env* env_;
  GlobalClock clock_;
  std::unique_ptr<BandwidthThrottle> throttle_;
  std::unique_ptr<PageFile> data_file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BTreeRegistry> registry_;
  std::unique_ptr<TxnManager> txn_mgr_;
  std::unique_ptr<WalManager> wal_;
  std::unique_ptr<GlobalLockTable> lock_table_;
  std::unique_ptr<PgSnapshotManager> pg_snapshots_;
  std::vector<std::vector<uint64_t>> held_locks_;
  EngineDeps deps_;

  std::mutex ddl_mu_;
  RelationId next_relation_id_ = 1;
  std::vector<std::unique_ptr<Table>> tables_;
  std::map<std::string, Table*> tables_by_name_;
  std::map<RelationId, Table*> tables_by_id_;

  RecoveryInfo recovery_info_;
  bool closed_ = false;
  int lock_handle_ = -1;

  /// Serializes checkpoint attempts (background thread, RequestCheckpoint,
  /// CheckpointNow, Close).
  std::mutex ckpt_mu_;
  CheckpointStats ckpt_stats_;
  std::function<bool(const char*)> ckpt_crash_hook_;

  /// Hook pause barrier state.
  std::mutex hooks_mu_;
  std::condition_variable hooks_cv_;
  bool hooks_paused_ = false;
  int hooks_inflight_ = 0;

  /// Background checkpointer.
  std::thread checkpointer_;
  std::mutex ckpt_thread_mu_;
  std::condition_variable ckpt_thread_cv_;
  bool ckpt_stop_ = false;
};

}  // namespace phoebe

#endif  // PHOEBE_CORE_DATABASE_H_
