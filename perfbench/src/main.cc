// One run of one benchmark workload: set the database up several times,
// drive a closed loop through the warmup and measured windows, check the
// database, and print the metrics as one "#RESULT {json}" line.
//
//   perfbench --workload=tpcc-mem|kv-read --seed=N --seconds=S
//             --trace=0|1 --dir=DATA_DIR
//
// --trace=0 prints the end-to-end metrics; --trace=1 measures alternating
// untraced and traced windows and prints the per-layer metrics. Progress
// lines "#PHASE <name>" let the caller tell where a stalled run stopped.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/database.h"
#include "harness.h"
#include "io/env.h"
#include "workloads.h"

namespace perfbench {
namespace {

using phoebe::Database;
using phoebe::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
};

// Setups per run, whose median is setup_s, and the unmeasured warmup.
// setup_s is the process's CPU time (user + system, all threads) of one
// setup, which leaves out waits for the host's disk; the wall time is only
// printed.
constexpr int kSetups = 5;
constexpr double kWarmupSeconds = 6;
// Bound of trace.worker_cpu_share: the clocks are read at different
// instants, so allow for a few microseconds per window boundary.
constexpr double kMaxWorkerCpuShare = 1.01;

bool ParseArgs(int argc, char** argv, Args* a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    kv[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  for (const auto& [k, v] : kv) {
    if (k == "workload") a->workload = v;
    else if (k == "seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "seconds") a->seconds = std::atof(v.c_str());
    else if (k == "trace") a->trace = v == "1";
    else if (k == "dir") a->dir = v;
    else return false;
  }
  return !a->workload.empty() && !a->dir.empty() && a->seconds > 0;
}

const uint64_t g_start_ns = phoebe::NowNanos();

void Phase(const char* name) {
  printf("#PHASE %s %.3f\n", name,
         static_cast<double>(phoebe::NowNanos() - g_start_ns) * 1e-9);
  fflush(stdout);
}

[[noreturn]] void Fail(const char* what, const Status& st) {
  printf("#ERROR %s: %s\n", what, st.ToString().c_str());
  fflush(stdout);
  std::exit(1);
}

/// Writes every file under `dir` through to the device and returns their
/// total size. Without it the operating system writes the loaded data back
/// during the measured window.
uint64_t SyncDataDir(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    total += e.file_size();
    int fd = ::open(e.path().c_str(), O_RDONLY);
    if (fd < 0 || ::fsync(fd) != 0) {
      Fail("sync data dir", Status::IOError(e.path().string()));
    }
    ::close(fd);
  }
  return total;
}

/// User plus system CPU time of the whole process so far.
double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Metrics in insertion order, printed as the JSON "metrics" object.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char value[32];
      snprintf(value, sizeof(value), "%.17g", items_[i].value);
      out += (i == 0 ? "\"" : ", \"") + items_[i].name + "\": {\"value\": " +
             value + ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

double Us(uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

double PerTxn(double x, uint64_t n) {
  return n == 0 ? 0 : x / static_cast<double>(n);
}

/// Throughput and CPU time per transaction as medians over the sub-windows
/// of a tally, and latency percentiles over all of its requests. The CPU
/// time of a sub-window is the mean of each type weighted by the type's
/// share of the mix, so that how many heavy transactions a sub-window drew
/// does not move it.
struct Summary {
  double txn_per_s = 0;
  double cpu_us_per_txn = 0;
  double p50_us = 0;
  double p99_us = 0;
  double write_p99_us = 0;
  size_t samples = 0;
  size_t write_samples = 0;
};

Summary Summarize(const Workload& wl, const Tally& t, bool print) {
  std::vector<double> tps, cpu_us;
  std::vector<uint64_t> latency, write_latency;
  for (const Tally::SubWindow& s : t.subs) {
    tps.push_back(static_cast<double>(s.ok) / s.seconds);
    double cpu = 0;
    for (int k = 0; k < wl.num_types(); ++k) {
      const size_t i = static_cast<size_t>(k);
      cpu += wl.type_weight(k) * PerTxn(Us(s.type_cpu_ns[i]), s.type_ok[i]);
    }
    cpu_us.push_back(cpu);
    latency.insert(latency.end(), s.latency_ns.begin(), s.latency_ns.end());
    write_latency.insert(write_latency.end(), s.write_latency_ns.begin(),
                         s.write_latency_ns.end());
    if (print) {
      printf("#SUBWINDOW seconds=%.3f txn_per_s=%.1f cpu_us_per_txn=%.3f\n",
             s.seconds, tps.back(), cpu_us.back());
    }
  }
  Summary m;
  m.txn_per_s = Median(tps);
  m.cpu_us_per_txn = Median(cpu_us);
  m.p50_us = Us(Quantile(&latency, 0.50));
  m.p99_us = Us(Quantile(&latency, 0.99));
  m.write_p99_us = Us(Quantile(&write_latency, 0.99));
  m.samples = latency.size();
  m.write_samples = write_latency.size();
  return m;
}

/// The end-to-end metrics, from the untraced window. Latency and CPU time
/// per transaction are printed but not among them: on a shared virtual
/// machine their run-to-run spread is wider than any regression bound (see
/// README.md).
void EndToEnd(Workload* wl, const Tally& t, double setup_s, double rss_mb,
              double disk_mb, Metrics* m) {
  const Summary med = Summarize(*wl, t, /*print=*/true);
  m->Add("txn_per_s", med.txn_per_s, "1/s");
  m->Add("setup_s", setup_s, "s");
  m->Add("peak_rss_mb", rss_mb, "MB");
  const Counters& c = t.counters;
  m->Add("write_bytes_per_txn",
         PerTxn(static_cast<double>(c.wal_bytes + c.data_bytes_written),
                t.completed),
         "B");
  m->Add("setup_disk_mb", disk_mb, "MB");

  printf("#INFO cpu_us_per_txn=%.3f txn_p50_us=%.3f txn_p99_us=%.3f "
         "write_txn_p99_us=%.3f "
         "subwindows=%zu samples=%zu write_samples=%zu failed_frac=%.6g "
         "user_aborts=%" PRIu64 " sys_aborts=%" PRIu64 " retries=%" PRIu64,
         med.cpu_us_per_txn, med.p50_us, med.p99_us, med.write_p99_us,
         t.subs.size(), med.samples,
         med.write_samples,
         PerTxn(static_cast<double>(t.failed), t.completed), t.user_aborts,
         t.sys_aborts, t.retries);
  for (int i = 0; i < wl->num_types(); ++i) {
    printf(" %s=%" PRIu64, wl->type_name(i), t.type_count[static_cast<size_t>(i)]);
  }
  const int w = wl->write_type();
  if (std::string(wl->type_name(w)) == "new_order") {
    printf(" tpmC=%.1f",
           static_cast<double>(t.type_count[static_cast<size_t>(w)]) /
               t.seconds * 60);
  }
  printf("\n");
}

/// Share of the worker threads' CPU time over the traced windows that the
/// traced transactions' slices account for. The slices are read from the
/// running thread's CPU clock, the total from every worker's clock at the
/// window boundaries, so a value above 1 means the trace counts time twice.
double WorkerCpuShare(const Tally& t) {
  return PerTxn(double(t.cpu_ns), t.counters.worker_cpu_ns);
}

/// The per-layer metrics, from the traced windows, plus the latency of the
/// interleaved untraced windows `u`.
void PerLayer(Workload* wl, Tally t, const Tally& u, Metrics* m) {
  const uint64_t n = t.completed;
  const uint64_t nt = t.traced;
  const Counters& c = t.counters;
  const double tps = static_cast<double>(n - t.failed) / t.seconds;
  const double untraced_tps =
      static_cast<double>(u.completed - u.failed) / u.seconds;

  const Summary lat = Summarize(*wl, u, /*print=*/false);
  m->Add("latency.txn_p50_us", lat.p50_us, "us");
  m->Add("latency.txn_p99_us", lat.p99_us, "us");
  m->Add("latency.write_txn_p99_us", lat.write_p99_us, "us");

  m->Add("runtime.queue_us_p50", Us(Quantile(&t.queue_ns, 0.50)), "us");
  m->Add("runtime.queue_us_p99", Us(Quantile(&t.queue_ns, 0.99)), "us");
  m->Add("runtime.oncpu_us_per_txn", Us(t.oncpu_ns) / std::max<uint64_t>(nt, 1),
         "us");
  m->Add("runtime.cpu_us_per_txn", Us(t.cpu_ns) / std::max<uint64_t>(nt, 1),
         "us");
  // Wall time of slices the worker thread spent off the CPU: blocked inside
  // the kernel (e.g. Begin at a closed checkpoint admission gate) or
  // preempted.
  m->Add("runtime.blocked_us_per_txn",
         Us(t.oncpu_ns - std::min(t.oncpu_ns, t.cpu_ns)) /
             std::max<uint64_t>(nt, 1),
         "us");
  m->Add("runtime.yields_per_txn", PerTxn(double(t.yields), nt), "count");
  m->Add("runtime.steal_frac",
         PerTxn(double(c.sched_stolen), c.sched_pulled + c.sched_stolen),
         "frac");
  m->Add("runtime.parks_per_s", double(c.sched_parks) / t.seconds, "1/s");

  m->Add("wal.commit_wait_us_p50", Us(Quantile(&t.wait_ns[kWaitFlush], 0.50)),
         "us");
  m->Add("wal.commit_wait_us_p99", Us(Quantile(&t.wait_ns[kWaitFlush], 0.99)),
         "us");
  m->Add("wal.txn_per_flush", PerTxn(double(n), c.wal_flushes), "count");
  m->Add("wal.records_per_flush",
         PerTxn(double(c.wal_records_flushed), c.wal_flushes), "count");
  m->Add("wal.bytes_per_txn", PerTxn(double(c.wal_bytes), n), "B");

  m->Add("txn.lock_wait_us_p99", Us(Quantile(&t.wait_ns[kWaitXid], 0.99)),
         "us");
  m->Add("txn.sys_abort_frac",
         PerTxn(double(t.sys_aborts), n + t.retries), "frac");
  m->Add("txn.retries_per_txn", PerTxn(double(t.retries), n), "count");
  m->Add("txn.begin_us", Us(t.call_total_ns[kCallBegin]) / std::max<uint64_t>(nt, 1),
         "us");
  m->Add("txn.commit_oncpu_us",
         Us(t.call_total_ns[kCallCommit]) / std::max<uint64_t>(nt, 1), "us");

  m->Add("buffer.loads_per_txn", PerTxn(double(c.buffer_loads), n), "count");
  m->Add("buffer.evictions_per_txn", PerTxn(double(c.buffer_evictions), n),
         "count");
  m->Add("buffer.latch_wait_us_per_txn",
         Us(t.wait_total_ns[kWaitLatch]) / std::max<uint64_t>(nt, 1), "us");

  m->Add("io.read_wait_us_p50", Us(Quantile(&t.wait_ns[kWaitRead], 0.50)), "us");
  m->Add("io.read_wait_us_p99", Us(Quantile(&t.wait_ns[kWaitRead], 0.99)), "us");
  m->Add("io.page_reads_per_txn", PerTxn(double(c.data_reads), n), "count");
  m->Add("io.read_bytes_per_txn", PerTxn(double(c.data_bytes_read), n), "B");
  m->Add("io.data_write_bytes_per_txn", PerTxn(double(c.data_bytes_written), n),
         "B");

  m->Add("core.index_get_us_p50", Us(Quantile(&t.call_ns[kCallIndexGet], 0.50)),
         "us");
  m->Add("core.index_get_us_p99", Us(Quantile(&t.call_ns[kCallIndexGet], 0.99)),
         "us");
  m->Add("core.update_us_p50", Us(Quantile(&t.call_ns[kCallUpdate], 0.50)), "us");
  m->Add("core.checkpoints", double(c.ckpt_completed), "count");
  m->Add("core.ckpt_quiesce_timeouts", double(c.ckpt_quiesce_timeouts), "count");

  m->Add("common.heap_allocs_per_txn", PerTxn(double(c.heap_allocs), n), "count");

  // Every workload prints the TPC-C procedures' on-CPU time, 0 where it
  // runs none of them.
  for (const char* name : kTpccTypeNames) {
    double v = 0;
    for (int k = 0; k < wl->num_types(); ++k) {
      if (std::string(wl->type_name(k)) == name) {
        v = Us(t.type_oncpu_ns[size_t(k)]) /
            std::max<uint64_t>(t.type_traced[size_t(k)], 1);
      }
    }
    m->Add(std::string("tpcc.") + name + "_oncpu_us", v, "us");
  }

  m->Add("trace.txn_per_s", tps, "1/s");
  m->Add("trace.overhead_frac", untraced_tps > 0 ? 1.0 - tps / untraced_tps : 0,
         "frac");
  m->Add("trace.worker_cpu_share", WorkerCpuShare(t), "frac");
  m->Add("trace.breakdown_violations", double(t.breakdown_violations), "count");
  m->Add("trace.traced_txns", double(nt), "count");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: perfbench --workload=NAME --seed=N --seconds=S "
            "--trace=0|1 --dir=DIR\n");
    return 2;
  }
#ifndef __OPTIMIZE__
  fprintf(stderr, "perfbench: refusing to measure a non-optimised build (%s)\n",
          PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  printf("#BUILD compiler=\"%s\" build_type=%s optimized=1\n", PERFBENCH_COMPILER,
         PERFBENCH_BUILD_TYPE);

  std::unique_ptr<Workload> wl;
  if (args.workload == "tpcc-mem") {
    wl = MakeTpccWorkload(args.seed);
  } else if (args.workload == "kv-read") {
    wl = MakeKvWorkload(args.seed);
  } else {
    fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // At most half the cores run kernel workers; the rest are left to the
  // load generator, WAL flushers and I/O threads.
  const uint32_t workers =
      std::clamp(std::thread::hardware_concurrency() / 2, 1u, 2u);
  phoebe::Env* env = phoebe::Env::Default();

  Phase("setup");
  const phoebe::DatabaseOptions load_opts = wl->LoadOptions(workers);
  phoebe::DatabaseOptions opts = wl->Options(workers);
  std::vector<double> setup_wall_s, setup_s;
  std::unique_ptr<Database> db;
  std::string path;
  for (int i = 0; i < kSetups; ++i) {
    if (db != nullptr) {
      db.reset();
      (void)env->RemoveDirRecursive(path);
    }
    path = args.dir + "/db" + std::to_string(i);
    (void)env->RemoveDirRecursive(path);
    Status st = env->CreateDir(args.dir);
    if (!st.ok()) Fail("create data dir", st);
    const uint64_t t0 = phoebe::NowNanos();
    const double cpu0 = ProcessCpuSeconds();
    phoebe::DatabaseOptions o = load_opts;
    o.path = path;
    auto opened = Database::Open(o);
    if (!opened.ok()) Fail("open", opened.status());
    db = std::move(opened.value());
    st = wl->Load(db.get());
    if (!st.ok()) Fail("load", st);
    setup_wall_s.push_back(static_cast<double>(phoebe::NowNanos() - t0) * 1e-9);
    setup_s.push_back(ProcessCpuSeconds() - cpu0);
  }
  // The run starts from a checkpoint with every file on the device, so
  // neither the kernel nor the operating system writes the load back
  // during the measured window.
  db->DrainGc();
  Status st = db->CheckpointNow();
  if (!st.ok()) Fail("checkpoint", st);
  if (load_opts.buffer_bytes != opts.buffer_bytes) {
    db.reset();
    opts.path = path;
    auto opened = Database::Open(opts);
    if (!opened.ok()) Fail("reopen", opened.status());
    db = std::move(opened.value());
    st = wl->Attach(db.get());
    if (!st.ok()) Fail("attach", st);
  }
  const double disk_mb = static_cast<double>(SyncDataDir(path)) / (1 << 20);

  Phase("warmup");
  std::vector<Window> windows;
  if (args.trace) {
    // ABBA order cancels a linear drift between the traced and untraced
    // halves, so their throughputs give the tracing overhead.
    const double q = args.seconds / 4;
    windows = {{q, false}, {q, true}, {q, true}, {q, false}};
  } else {
    windows = {{args.seconds, false}};
  }
  Metrics m;
  Status check;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool self_check_ok = true;
  {
    Harness h(db.get(), wl.get(), workers, opts.slots_per_worker);
    h.Run(kWarmupSeconds, windows, Phase);
    Phase("check");
    check = wl->Check();

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024;
    const Tally& untraced = h.tally(false);
    if (args.trace) {
      const Tally& traced = h.tally(true);
      PerLayer(wl.get(), traced, untraced, &m);
      self_check_ok = traced.breakdown_violations == 0 && traced.traced > 0 &&
                      WorkerCpuShare(traced) <= kMaxWorkerCpuShare;
      attempted = traced.completed;
      failed = traced.failed;
    } else {
      EndToEnd(wl.get(), untraced, Median(setup_s), rss_mb, disk_mb, &m);
      attempted = untraced.completed;
      failed = untraced.failed;
    }
    printf("#INFO workers=%u clients=%u setup_s=", workers, Harness::kClients);
    for (size_t i = 0; i < setup_s.size(); ++i) {
      printf("%s%.3f", i == 0 ? "" : ",", setup_s[i]);
    }
    printf(" setup_wall_s=");
    for (size_t i = 0; i < setup_wall_s.size(); ++i) {
      printf("%s%.3f", i == 0 ? "" : ",", setup_wall_s[i]);
    }
    printf(" completed_total=%" PRIu64 "\n", h.total_completed());
  }
  if (!check.ok()) printf("#ERROR check: %s\n", check.ToString().c_str());
  if (!self_check_ok) printf("#ERROR trace self-check failed\n");
  const bool correct = check.ok() && self_check_ok && attempted > 0;
  printf("#RESULT {\"correct\": %s, \"attempted\": %" PRIu64
         ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
         correct ? "true" : "false", attempted, failed, m.Json().c_str());
  Phase("teardown");
  db.reset();
  (void)env->RemoveDirRecursive(args.dir);
  Phase("done");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
