#ifndef PHOEBE_TPCC_TPCC_DRIVER_H_
#define PHOEBE_TPCC_TPCC_DRIVER_H_

#include <string>
#include <vector>

#include "common/metrics.h"
#include "tpcc/tpcc_txns.h"

namespace phoebe {
namespace tpcc {

/// Driver configuration (HammerDB-TPROC-C style: no keying/think times; the
/// standard 45/43/4/4/4 mix).
struct DriverConfig {
  double seconds = 5.0;
  double warmup_seconds = 0.5;
  /// Thread execution model instead of the coroutine pool (Exp 6).
  bool thread_model = false;
  uint32_t thread_model_threads = 0;  // 0 = total slots of the scheduler
  /// Workload affinity: each task slot is bound to a home warehouse
  /// (worker-to-warehouse binding, enabled by default in the paper).
  bool affinity = true;
  bool pin_workers = false;
  uint64_t seed = 42;
  int pct_new_order = 45;
  int pct_payment = 43;
  int pct_order_status = 4;
  int pct_delivery = 4;
  int pct_stock_level = 4;
  /// Per-second time-series sampling (Exp 3/4 plots).
  bool sample_series = false;
  /// Bounded re-execution of system-aborted transactions (deadlock timeout,
  /// write-write conflict) with jittered exponential backoff between
  /// attempts. User-initiated aborts (the 1% NewOrder rollback) are never
  /// retried. 0 disables retries.
  uint32_t max_retries = 5;
  /// Count heap/arena allocations during the measured window (Profiler
  /// alloc tracking; the tpcc.*_per_txn metrics). Adds one counted atomic
  /// increment per allocation while enabled.
  bool track_allocs = true;
};

struct SeriesPoint {
  double t = 0;  // seconds since measurement start
  double tpmc = 0;
  double tpm = 0;
  double wal_mb_per_s = 0;
  double data_read_mb_per_s = 0;
  double data_write_mb_per_s = 0;
};

struct DriverResult {
  double seconds = 0;
  uint64_t commits = 0;
  uint64_t new_order_commits = 0;
  uint64_t user_aborts = 0;
  uint64_t sys_aborts = 0;
  /// System-aborted attempts that were re-executed by the driver.
  uint64_t retries = 0;
  double tpm = 0;
  double tpmc = 0;
  double wal_mb_per_s = 0;
  /// Mean time a committing transaction spent waiting for durability.
  double avg_commit_wait_us = 0;
  std::vector<SeriesPoint> series;

  /// Allocation profile of the measured window per committed transaction
  /// (whole process, all txn types; zero when DriverConfig::track_allocs is
  /// off).
  double heap_allocs_per_txn = 0;
  double heap_bytes_per_txn = 0;
  double arena_bytes_per_txn = 0;

  /// Database::Metrics snapshot taken as the run ended (with the
  /// scheduler's counters in the coroutine model), followed by this run's
  /// measured-window numbers as tpcc.*.
  MetricList metrics;

  /// One-line human-readable result.
  std::string Summary() const;
};

/// Runs the TPC-C mix against `workload` for the configured duration.
DriverResult RunTpcc(Workload* workload, const DriverConfig& config);

/// TPC-C consistency checks (clause 3.3.2.1-3.3.2.4): W_YTD = sum(D_YTD);
/// D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID); order/new-order/order-line
/// cardinality invariants. Returns OK when all hold.
Status CheckConsistency(Workload* workload);

}  // namespace tpcc
}  // namespace phoebe

#endif  // PHOEBE_TPCC_TPCC_DRIVER_H_
