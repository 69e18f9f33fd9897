// Exp 7 (Figure 12): per-transaction cycle breakdown by engine component
// (WAL, MVCC, latching, buffer manager, GC, locking, effective
// computation), with workload affinity on and off. The paper reports
// instruction counts; scoped rdtsc cycle shares reproduce the relative
// distribution (see DESIGN.md substitutions).
#include "bench/bench_common.h"
#include "common/profiler.h"

using namespace phoebe;
using namespace phoebe::bench;

namespace {

void RunAndReport(const Flags& flags, bool affinity) {
  DatabaseOptions opts = DefaultOptions(flags);
  int warehouses = static_cast<int>(flags.Int("warehouses", 2));
  auto inst = SetupTpcc(affinity ? "exp7_aff" : "exp7_noaff", opts,
                        DefaultScale(flags, warehouses));
  Profiler::Reset();
  Profiler::Enable(true);
  tpcc::DriverConfig cfg = DefaultDriver(flags);
  cfg.affinity = affinity;
  tpcc::DriverResult r = tpcc::RunTpcc(inst->workload.get(), cfg);
  Profiler::Enable(false);
  Profiler::Totals agg = Profiler::Aggregate();

  printf("\n# affinity=%s  (tpmC=%.0f, %llu txns profiled)\n",
         affinity ? "true" : "false", r.tpmc,
         static_cast<unsigned long long>(agg.txn_count));
  PrintMetrics(r);
  if (agg.txn_count == 0 || agg.total_cycles == 0) {
    printf("# no samples\n");
    return;
  }
  uint64_t component_sum = 0;
  for (int i = 0; i < Profiler::kN; ++i) component_sum += agg.cycles[i];
  uint64_t effective = agg.total_cycles > component_sum
                           ? agg.total_cycles - component_sum
                           : 0;
  printf("%-22s %-16s %-8s\n", "component", "cycles/txn", "share");
  for (int i = 0; i < Profiler::kN; ++i) {
    printf("%-22s %-16.0f %6.1f%%\n",
           ComponentName(static_cast<Component>(i)),
           static_cast<double>(agg.cycles[i]) / agg.txn_count,
           100.0 * agg.cycles[i] / agg.total_cycles);
  }
  printf("%-22s %-16.0f %6.1f%%\n", "EffectiveComputation",
         static_cast<double>(effective) / agg.txn_count,
         100.0 * effective / agg.total_cycles);
  printf("%-22s %-16.0f %6.1f%%\n", "Total",
         static_cast<double>(agg.total_cycles) / agg.txn_count, 100.0);

  // Allocation breakdown (alloc tracking spans the driver's measured
  // window): per-component heap allocations attributed via the same scoped
  // component markers; the whole-process rates are the snapshot's
  // tpcc.*_per_txn entries.
  if (r.heap_allocs_per_txn > 0) {
    printf("\n%-22s %-18s %-18s\n", "component", "heap_allocs/txn",
           "heap_bytes/txn");
    for (int i = 0; i < Profiler::kN; ++i) {
      if (agg.heap_allocs[i] == 0) continue;
      printf("%-22s %-18.2f %-18.0f\n",
             ComponentName(static_cast<Component>(i)),
             static_cast<double>(agg.heap_allocs[i]) / r.commits,
             static_cast<double>(agg.heap_bytes[i]) / r.commits);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  printf("# Exp 7 (Fig 12): per-transaction cycle breakdown\n");
  RunAndReport(flags, /*affinity=*/true);
  RunAndReport(flags, /*affinity=*/false);
  return 0;
}
