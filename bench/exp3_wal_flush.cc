// Exp 3 (Figure 7b): WAL flushing throughput (MB/s) over time under the
// parallel per-task-slot WAL design, plus the RFA ablation (--no-rfa
// reverts commits to waiting on the global flushed GSN). Use --wal-dir to
// place the log on a separate device, as the paper does.
#include "bench/bench_common.h"

using namespace phoebe;
using namespace phoebe::bench;

namespace {

tpcc::DriverResult RunOne(const Flags& flags, bool rfa) {
  DatabaseOptions opts = DefaultOptions(flags);
  opts.enable_rfa = rfa;
  std::string wal_dir = flags.Str("wal-dir", "");
  if (!wal_dir.empty()) opts.wal_dir = wal_dir + (rfa ? "/rfa" : "/norfa");
  int warehouses = static_cast<int>(flags.Int("warehouses", 2));
  auto inst = SetupTpcc(std::string("exp3_") + (rfa ? "rfa" : "norfa"), opts,
                        DefaultScale(flags, warehouses));
  tpcc::DriverConfig cfg = DefaultDriver(flags);
  cfg.sample_series = true;
  return tpcc::RunTpcc(inst->workload.get(), cfg);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  bool ablate = flags.Bool("ablate-rfa", true);

  printf("# Exp 3 (Fig 7b): WAL flush throughput over time (parallel "
         "per-slot writers)\n");
  tpcc::DriverResult with_rfa = RunOne(flags, /*rfa=*/true);
  printf("%-8s %-12s %-10s\n", "t(s)", "wal_MB/s", "tpmC");
  for (const auto& pt : with_rfa.series) {
    printf("%-8.1f %-12.2f %-10.0f\n", pt.t, pt.wal_mb_per_s, pt.tpmc);
  }
  printf("# avg: %.2f MB/s, tpmC=%.0f\n", with_rfa.wal_mb_per_s,
         with_rfa.tpmc);
  // wal.* (pipeline) and io.wal_* (flush) counters of the RFA run.
  PrintMetrics(with_rfa);

  if (ablate) {
    tpcc::DriverResult no_rfa = RunOne(flags, /*rfa=*/false);
    printf("\n# RFA ablation (commits wait for the global flushed GSN)\n");
    printf("%-22s %-12s %-12s %-18s\n", "config", "wal_MB/s", "tpmC",
           "commit_wait(us)");
    printf("%-22s %-12.2f %-12.0f %-18.1f\n", "rfa=on",
           with_rfa.wal_mb_per_s, with_rfa.tpmc,
           with_rfa.avg_commit_wait_us);
    printf("%-22s %-12.2f %-12.0f %-18.1f\n", "rfa=off",
           no_rfa.wal_mb_per_s, no_rfa.tpmc, no_rfa.avg_commit_wait_us);
    printf("# rfa: %.2fx tpmC, %.2fx lower commit wait\n",
           no_rfa.tpmc > 0 ? with_rfa.tpmc / no_rfa.tpmc : 0.0,
           with_rfa.avg_commit_wait_us > 0
               ? no_rfa.avg_commit_wait_us / with_rfa.avg_commit_wait_us
               : 0.0);
    PrintMetrics(no_rfa);
  }
  return 0;
}
