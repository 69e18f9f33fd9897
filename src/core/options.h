#ifndef PHOEBE_CORE_OPTIONS_H_
#define PHOEBE_CORE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "txn/transaction.h"

namespace phoebe {

class Env;

/// Engine configuration. The baseline_* switches turn on the traditional
/// RDBMS mechanisms (global lock table, O(n) snapshot scan, centralized WAL)
/// used by the comparison experiments (Exp 6-9).
struct DatabaseOptions {
  std::string path;               // data directory (created if absent)
  std::string wal_dir;            // defaults to <path>/wal (Exp 3 separates)

  /// Environment for all file I/O; nullptr selects Env::Default(). Tests
  /// inject a FaultInjectionEnv here to exercise crash/fault paths. Must
  /// outlive the Database.
  Env* env = nullptr;

  /// Main-storage budget (the "buffer size" of Exp 5).
  uint64_t buffer_bytes = 256ull << 20;

  uint32_t workers = 4;           // worker threads == buffer partitions
  uint32_t slots_per_worker = 8;  // task slots per worker (paper: 32)
  uint32_t aux_slots = 8;         // extra slots for loader/maintenance/tests

  bool wal_sync = true;           // fdatasync on WAL flush (paper: enabled)
  bool enable_rfa = true;         // Remote Flush Avoidance (Section 8)

  /// Baseline ("traditional RDBMS") switches.
  bool baseline_single_wal_writer = false;  // centralized, serialized WAL
  bool baseline_global_lock_table = false;  // global lock-manager hash table
  bool baseline_pg_snapshot = false;        // O(active) snapshot-by-scan

  IsolationLevel default_isolation = IsolationLevel::kReadCommitted;

  /// Temperature management (Section 5.2).
  bool enable_freeze = false;          // freeze pass in housekeeping
  uint32_t freeze_access_threshold = 2;  // accesses/epoch below -> freezable
  uint32_t freeze_epoch_age = 4;         // epochs untouched before freezing
  uint64_t warm_read_threshold = 64;     // frozen block reads before warming

  /// Exp 9 O-DB stand-in: cap data-file bandwidth (bytes/s; 0 = off).
  uint64_t io_bandwidth_limit = 0;

  /// Tuple-lock waits longer than this abort the waiting transaction
  /// (timeout-based deadlock resolution).
  uint64_t deadlock_timeout_ms = 100;

  /// Background checkpointer triggers (0 disables the trigger). A checkpoint
  /// is attempted when the WAL has flushed this many bytes since the last
  /// checkpoint, or when the interval elapses, whichever comes first.
  uint64_t checkpoint_wal_bytes = 0;
  uint64_t checkpoint_interval_ms = 0;

  /// How long one checkpoint attempt may stall new Begins while waiting for
  /// active transactions and live undo to drain. On timeout the checkpoint
  /// backs off (exponentially) and retries later; the workload is never
  /// aborted on its behalf.
  uint64_t checkpoint_quiesce_timeout_ms = 100;

  uint32_t total_slots() const {
    return workers * slots_per_worker + aux_slots;
  }
};

}  // namespace phoebe

#endif  // PHOEBE_CORE_OPTIONS_H_
