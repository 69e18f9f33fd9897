#ifndef PHOEBE_WAL_RECOVERY_H_
#define PHOEBE_WAL_RECOVERY_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/constants.h"
#include "common/status.h"
#include "io/env.h"
#include "wal/record.h"

namespace phoebe {

/// Crash-recovery scan over the per-slot WAL files (Section 8 + DESIGN.md
/// recovery model): parses every writer's log up to its first torn block,
/// determines the committed transaction set, and yields the committed data
/// records ordered by (GSN, writer, LSN) — the Distributed-Logging merge
/// order the paper describes.
class WalRecovery {
 public:
  struct ScanResult {
    /// Committed data records in replay order.
    std::vector<WalRecord> records;
    /// xid -> commit timestamp for every durable commit.
    std::unordered_map<Xid, Timestamp> commits;
    /// Highest timestamp observed anywhere (clock restart point).
    Timestamp max_ts = 0;
    uint64_t total_records = 0;
    uint64_t skipped_uncommitted = 0;
    /// Records at or below the checkpoint watermark: already reflected in
    /// the checkpoint image, so excluded from replay (they still feed
    /// max_ts — the clock must not restart below pre-checkpoint history).
    uint64_t skipped_checkpointed = 0;
    /// Total WAL bytes read by the scan.
    uint64_t bytes_scanned = 0;
    /// Files whose scan stopped at a torn (corrupt) tail block. Torn tails
    /// are expected after a crash and recovery keeps the clean prefix; a
    /// mid-log read error, by contrast, fails the whole scan — a flaky disk
    /// must never silently truncate history.
    uint64_t torn_tails = 0;
  };

  /// Scans all `wal_<i>.log` files under `dir`. Records with
  /// gsn <= watermark_gsn are counted but not replayed: the caller passes
  /// the catalog's checkpoint watermark when (and only when) the catalog is
  /// clean — a stale or unclean catalog must fall back to full replay with
  /// watermark 0.
  static Result<ScanResult> Scan(Env* env, const std::string& dir,
                                 uint64_t watermark_gsn = 0);

  /// Replays `result.records` through `apply` (stops on first error).
  static Status Replay(
      const ScanResult& result,
      const std::function<Status(const WalRecord&, Timestamp cts)>& apply);
};

}  // namespace phoebe

#endif  // PHOEBE_WAL_RECOVERY_H_
