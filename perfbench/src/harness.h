#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <time.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/database.h"
#include "runtime/scheduler.h"
#include "runtime/task.h"

namespace perfbench {

/// Off-CPU wait buckets of the trace: one per kernel WaitKind, plus the
/// harness's own backoff between retries of a system-aborted transaction.
enum WaitBucket : int {
  kWaitNone = 0,
  kWaitLatch,
  kWaitRead,
  kWaitXid,
  kWaitFlush,
  kWaitBackoff,
  kNumWaitBuckets,
};

/// Public layer functions the traced run times call by call. Only the
/// benchmark's own KV transactions make these calls where the benchmark can
/// see them; the TPC-C procedures make them inside the kernel.
enum Call : int {
  kCallBegin = 0,
  kCallIndexGet,
  kCallUpdate,
  kCallCommit,
  kNumCalls,
};

/// One transaction of a closed-loop client, from submission to its final
/// Status. The harness owns one per client and reuses it for the client's
/// next transaction once the completed one has been accounted.
struct Request {
  static constexpr uint32_t kMaxCalls = 32;

  uint32_t client = 0;
  int type = 0;  // workload-defined transaction type
  bool traced = false;
  uint64_t jitter = 0;  // seeds the retry backoff
  uint64_t submit_ns = 0;
  uint64_t end_ns = 0;

  // Outcome.
  bool user_abort = false;  // user-initiated rollback: complete, not failed
  bool failed = false;      // system abort after retries, or any other error
  uint32_t sys_aborts = 0;
  uint32_t retries = 0;
  phoebe::Status status;

  /// CPU time of the worker thread inside the request's resume slices, from
  /// the thread's CPU clock (every request, traced or not).
  uint64_t cpu_ns = 0;

  // Trace spans (traced requests only). Slices and waits are summed per
  // request; the first kMaxCalls layer calls are also kept one by one.
  uint64_t queue_ns = 0;
  uint64_t oncpu_ns = 0;
  uint64_t yields = 0;
  uint64_t wait_ns[kNumWaitBuckets] = {};
  uint32_t ncalls = 0;
  uint8_t call_kind[kMaxCalls] = {};
  uint32_t call_ns[kMaxCalls] = {};
  uint64_t call_total_ns[kNumCalls] = {};

  /// Clears the outcome and trace of the previous transaction.
  void Reset();
  void RecordCall(Call c, uint64_t ns);
};

/// Runs `fn` (one call into a layer's public function) and, when `r` is
/// traced, records its duration as a span of kind `c`.
template <typename Fn>
phoebe::Status TimedCall(Request* r, Call c, Fn&& fn) {
  if (!r->traced) return fn();
  const uint64_t t0 = phoebe::NowNanos();
  phoebe::Status st = fn();
  r->RecordCall(c, phoebe::NowNanos() - t0);
  return st;
}

/// A workload: owns its tables and per-client inputs, and turns a request
/// into a transaction coroutine.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Engine options of the measured database (path left empty).
  virtual phoebe::DatabaseOptions Options(uint32_t workers) const = 0;
  /// Engine options of the load. When their buffer size differs from
  /// Options()', the loaded database is checkpointed, closed and reopened
  /// with Options().
  virtual phoebe::DatabaseOptions LoadOptions(uint32_t workers) const {
    return Options(workers);
  }
  /// Creates and populates the workload's tables in a fresh database.
  virtual phoebe::Status Load(phoebe::Database* db) = 0;
  /// Finds the loaded tables again in the reopened database `db`.
  virtual phoebe::Status Attach(phoebe::Database* db) = 0;

  virtual int num_types() const = 0;
  virtual const char* type_name(int type) const = 0;
  /// The share of transactions of `type` in the workload's mix.
  virtual double type_weight(int type) const = 0;
  /// The write transaction whose tail is reported as write_txn_p99_us.
  virtual int write_type() const = 0;

  /// Draws client `r->client`'s next transaction (generator thread only);
  /// clients are numbered 0 to Harness::kClients - 1.
  virtual void Next(Request* r) = 0;
  /// Worker shard that client `client`'s transactions are submitted to.
  virtual uint32_t HomeWorker(uint32_t client, uint32_t workers) const = 0;
  /// Starts one attempt of `r` on a task slot.
  virtual phoebe::TxnTask Attempt(Request* r, phoebe::TaskEnv* env) = 0;
  /// True when a failed attempt was a user-initiated rollback.
  virtual bool UserAbort(const phoebe::Status& st, phoebe::TaskEnv* env) = 0;
  /// Sees every completed request, in the generator thread.
  virtual void OnComplete(const Request& r) {}
  /// Verifies the database after all transactions have drained.
  virtual phoebe::Status Check() = 0;
};

/// Process-wide and per-layer public counters, read at window boundaries so
/// that every per-layer count is a delta over the measured windows.
struct Counters {
  uint64_t data_bytes_read = 0;
  uint64_t data_bytes_written = 0;
  uint64_t data_reads = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_flushes = 0;
  uint64_t buffer_loads = 0;
  uint64_t buffer_evictions = 0;
  uint64_t sched_pulled = 0;
  uint64_t sched_stolen = 0;
  uint64_t sched_parks = 0;
  uint64_t wal_records_flushed = 0;
  uint64_t ckpt_completed = 0;
  uint64_t ckpt_quiesce_timeouts = 0;
  uint64_t heap_allocs = 0;
  uint64_t worker_cpu_ns = 0;  // CPU time of the scheduler's worker threads

  static Counters Read(phoebe::Database* db, const phoebe::Scheduler& sched);
  Counters& operator+=(const Counters& o);
  Counters operator-(const Counters& o) const;
};

/// A measured window: its length and whether requests submitted in it are
/// traced.
struct Window {
  double seconds = 0;
  bool traced = false;
};

/// Everything accounted for requests that completed inside windows of one
/// kind (traced or untraced).
struct Tally {
  double seconds = 0;
  uint64_t completed = 0;  // including failed
  uint64_t failed = 0;
  uint64_t user_aborts = 0;
  uint64_t sys_aborts = 0;
  uint64_t retries = 0;
  /// Consecutive slices of the windows, about kSubWindowNs each: the
  /// throughput is the median over them, so a stall of a second or two on
  /// a shared host moves one slice, not the result.
  struct SubWindow {
    double seconds = 0;
    uint64_t ok = 0;
    // Ok requests and their Request::cpu_ns, by type.
    std::vector<uint64_t> type_ok;
    std::vector<uint64_t> type_cpu_ns;
    std::vector<uint64_t> latency_ns;  // failed requests count as UINT64_MAX
    std::vector<uint64_t> write_latency_ns;
  };
  std::vector<SubWindow> subs;
  std::vector<uint64_t> type_count;  // committed, by type
  Counters counters;

  // Traced requests only.
  uint64_t traced = 0;
  std::vector<uint64_t> queue_ns;
  /// Per-request wait of each bucket, for requests that waited on it.
  std::vector<uint64_t> wait_ns[kNumWaitBuckets];
  uint64_t wait_total_ns[kNumWaitBuckets] = {};
  std::vector<uint64_t> call_ns[kNumCalls];
  uint64_t call_total_ns[kNumCalls] = {};
  uint64_t oncpu_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t yields = 0;
  std::vector<uint64_t> type_oncpu_ns;
  std::vector<uint64_t> type_traced;
  /// Self-check: requests whose CPU time (thread CPU clock) exceeds the wall
  /// time of their on-CPU slices, or whose layer calls exceed it.
  uint64_t breakdown_violations = 0;
};

/// Closed-loop load generator: a fixed set of clients, each with at most
/// one transaction outstanding and a think time between two, fed by one
/// thread into the kernel's scheduler. Latency runs from submission to the
/// final Status, retries included.
class Harness {
 public:
  /// Tolerance of the per-request self-check: a request's CPU time and its
  /// layer calls may exceed the wall time of its on-CPU slices by this much.
  static constexpr uint64_t kBreakdownToleranceNs = 1000;
  static constexpr uint32_t kMaxRetries = 5;
  static constexpr uint32_t kClients = 16;
  static constexpr uint64_t kProgressNs = 1'000'000'000;
  static constexpr uint64_t kSubWindowNs = 2'000'000'000;
  /// Mean client think time between two transactions (exponential). It
  /// keeps the kernel below saturation: saturated, throughput and latency
  /// follow the host's I/O stalls rather than the kernel.
  static constexpr double kThinkUs = 16000;

  using PhaseFn = std::function<void(const char*)>;

  Harness(phoebe::Database* db, Workload* workload, uint32_t workers,
          uint32_t slots_per_worker);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Runs `warmup_s` of load, then the windows back to back, then stops
  /// submitting and waits until every outstanding transaction has ended.
  /// `phase("measure")` is called when the first window opens.
  void Run(double warmup_s, const std::vector<Window>& windows,
           const PhaseFn& phase);

  const Tally& tally(bool traced) const { return tally_[traced ? 1 : 0]; }
  /// Requests completed over the whole run, warmup included.
  uint64_t total_completed() const { return total_completed_; }

 private:
  static phoebe::TxnTask Drive(Harness* h, Request* r, phoebe::TaskEnv* env);
  void Submit(Request* r);
  void Complete(Request* r);
  void Account(const Request& r, Tally* t, Tally::SubWindow* sub);
  /// Prints one "#PROGRESS" line of cumulative counters, so a stalled run
  /// shows where it stopped moving.
  void Progress(uint64_t elapsed_ns, size_t outstanding);
  /// Counters::Read plus the worker threads' CPU time.
  Counters ReadCounters() const;

  phoebe::Database* db_;
  Workload* wl_;
  uint32_t workers_;
  std::unique_ptr<phoebe::Scheduler> sched_;
  std::vector<Request> requests_;
  bool tracing_ = false;  // generator thread only
  /// CPU clock of each worker thread, set by the first transaction the
  /// worker resumes (0 until then).
  std::unique_ptr<std::atomic<clockid_t>[]> worker_clock_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Request*> completed_;  // guarded by mu_
  bool waiting_ = false;             // guarded by mu_

  Tally tally_[2];
  uint64_t total_completed_ = 0;
};

/// CPU time consumed by the calling thread so far.
uint64_t ThreadCpuNanos();

/// Nearest-rank quantile of `v` (reorders it); 0 when empty.
uint64_t Quantile(std::vector<uint64_t>* v, double q);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
