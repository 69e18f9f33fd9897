// Exp 8: PhoebeDB vs the PostgreSQL-style baseline engine mode (global
// lock-manager hash table, O(active) snapshot-by-scan, centralized single
// WAL writer, thread-per-transaction execution). Also reports CPU cycles
// per NewOrder and Payment transaction (Figure 9's 5.6x / 2.5x reductions).
#include "bench/bench_common.h"
#include "common/profiler.h"

using namespace phoebe;
using namespace phoebe::bench;

namespace {

struct ModeResult {
  double tpm = 0;
  double tpmc = 0;
  double cycles_new_order = 0;
  double cycles_payment = 0;
};

double CyclesPerTxn(const Flags& flags, TpccInstance* inst, bool baseline,
                    int pct_new_order, int pct_payment) {
  Profiler::Reset();
  Profiler::Enable(true);
  tpcc::DriverConfig cfg = DefaultDriver(flags);
  cfg.seconds = flags.Double("cycle-seconds", 2.0);
  cfg.warmup_seconds = 0.2;
  cfg.pct_new_order = pct_new_order;
  cfg.pct_payment = pct_payment;
  cfg.pct_order_status = 0;
  cfg.pct_delivery = 0;
  cfg.pct_stock_level = 100 - pct_new_order - pct_payment;
  cfg.thread_model = baseline;  // baseline runs thread-per-transaction
  tpcc::RunTpcc(inst->workload.get(), cfg);
  Profiler::Enable(false);
  Profiler::Totals agg = Profiler::Aggregate();
  if (agg.txn_count == 0) return 0;
  return static_cast<double>(agg.total_cycles) /
         static_cast<double>(agg.txn_count);
}

ModeResult RunMode(const Flags& flags, bool baseline) {
  DatabaseOptions opts = DefaultOptions(flags);
  opts.baseline_single_wal_writer = baseline;
  opts.baseline_global_lock_table = baseline;
  opts.baseline_pg_snapshot = baseline;
  int warehouses = static_cast<int>(flags.Int("warehouses", 2));
  auto inst = SetupTpcc(baseline ? "exp8_base" : "exp8_phoebe", opts,
                        DefaultScale(flags, warehouses));
  tpcc::DriverConfig cfg = DefaultDriver(flags);
  cfg.thread_model = baseline;
  if (baseline) {
    cfg.thread_model_threads = opts.workers * opts.slots_per_worker;
  }
  ModeResult r;
  tpcc::DriverResult d = tpcc::RunTpcc(inst->workload.get(), cfg);
  PrintMetrics(d);
  r.tpm = d.tpm;
  r.tpmc = d.tpmc;
  r.cycles_new_order = CyclesPerTxn(flags, inst.get(), baseline, 100, 0);
  r.cycles_payment = CyclesPerTxn(flags, inst.get(), baseline, 0, 100);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  printf("# Exp 8: PhoebeDB vs traditional (PostgreSQL-style) baseline\n");
  ModeResult phoebe = RunMode(flags, /*baseline=*/false);
  ModeResult base = RunMode(flags, /*baseline=*/true);

  printf("%-22s %-12s %-12s %-18s %-18s\n", "engine", "tpm", "tpmC",
         "cycles/NewOrder", "cycles/Payment");
  printf("%-22s %-12.0f %-12.0f %-18.0f %-18.0f\n", "phoebe", phoebe.tpm,
         phoebe.tpmc, phoebe.cycles_new_order, phoebe.cycles_payment);
  printf("%-22s %-12.0f %-12.0f %-18.0f %-18.0f\n", "baseline", base.tpm,
         base.tpmc, base.cycles_new_order, base.cycles_payment);
  if (base.tpm > 0) {
    printf("# throughput speedup: %.1fx tpm (paper: 27x vs PostgreSQL on "
           "104 vCPUs)\n", phoebe.tpm / base.tpm);
  }
  if (phoebe.cycles_new_order > 0 && phoebe.cycles_payment > 0) {
    printf("# cycle reduction: NewOrder %.1fx, Payment %.1fx "
           "(paper Fig 9: 5.6x / 2.5x)\n",
           base.cycles_new_order / phoebe.cycles_new_order,
           base.cycles_payment / phoebe.cycles_payment);
  }
  return 0;
}
