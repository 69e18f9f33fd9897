#ifndef PHOEBE_TXN_TRANSACTION_H_
#define PHOEBE_TXN_TRANSACTION_H_

#include <cstdint>

#include "common/constants.h"
#include "txn/undo.h"

namespace phoebe {

/// PostgreSQL-compatible snapshot isolation levels (Section 6.1).
enum class IsolationLevel : uint8_t {
  kReadCommitted = 0,  // snapshot refreshed per statement
  kRepeatableRead = 1, // snapshot fixed at transaction start
};

enum class TxnState : uint8_t {
  kIdle = 0,
  kActive = 1,
  kCommitted = 2,
  kAborted = 3,
};

/// A transaction descriptor. One per task slot, recycled across transactions
/// (Section 7.2: tuple locks and undo resources live with the slot).
class Transaction {
 public:
  Xid xid() const { return xid_; }
  Timestamp start_ts() const { return start_ts_; }
  Timestamp snapshot() const { return snapshot_; }
  IsolationLevel isolation() const { return isolation_; }
  TxnState state() const { return state_; }
  uint32_t slot_id() const { return slot_id_; }

  /// Head of this transaction's UNDO list (newest record first).
  UndoRecord* undo_head() const { return undo_head_; }
  void PushUndo(UndoRecord* rec) {
    rec->txn_next = undo_head_;
    undo_head_ = rec;
    ++undo_count_;
  }
  size_t undo_count() const { return undo_count_; }

  /// --- WAL / RFA commit-dependency tracking (Section 8) --------------------

  /// LSN of this transaction's last record in its slot's WAL writer; 0 if
  /// it logged nothing (LSNs start at 1), which is a read-only transaction.
  uint64_t last_lsn = 0;
  /// Highest GSN this transaction produced or observed.
  uint64_t max_gsn = 0;
  /// Set when the transaction touched a page last written by a different
  /// WAL writer whose log may not be durable yet -> commit must wait for the
  /// global flushed GSN (Remote Flush Avoidance: stays false for partitioned
  /// workloads, letting commits wait only on the local writer).
  bool remote_dependency = false;

  /// Statistics.
  uint64_t rows_read = 0;
  uint64_t rows_written = 0;

  /// Deadlock-timeout bookkeeping: the XID this transaction is currently
  /// waiting on and when the wait began. Waits exceeding the engine's
  /// deadlock timeout abort the waiter (timeout-based deadlock resolution,
  /// as in PostgreSQL's deadlock detector but latency-based).
  Xid waiting_on = 0;
  uint64_t wait_started_ns = 0;

 private:
  friend class TxnManager;

  Xid xid_ = 0;
  Timestamp start_ts_ = 0;
  Timestamp snapshot_ = 0;
  IsolationLevel isolation_ = IsolationLevel::kReadCommitted;
  TxnState state_ = TxnState::kIdle;
  uint32_t slot_id_ = 0;
  UndoRecord* undo_head_ = nullptr;
  size_t undo_count_ = 0;
};

}  // namespace phoebe

#endif  // PHOEBE_TXN_TRANSACTION_H_
