// Exp 1 (Figure 7a): tpmC throughput as warehouses and workers scale
// together. The paper runs {1, 10, 25, 50, 100} warehouses/workers on 104
// vCPUs; the default here scales the same sweep shape to the host.
#include <algorithm>

#include "bench/bench_common.h"

using namespace phoebe;
using namespace phoebe::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  unsigned hw = std::thread::hardware_concurrency();
  std::vector<int> sweep = flags.IntList(
      "sweep", {1, 2, static_cast<int>(hw / 2), static_cast<int>(hw)});
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());

  printf("# Exp 1 (Fig 7a): tpmC vs warehouses (workers scale with "
         "warehouses)\n");
  printf("%-12s %-8s %-12s %-12s %-10s\n", "warehouses", "workers", "tpmC",
         "tpm", "aborts");
  for (int n : sweep) {
    if (n < 1) continue;
    DatabaseOptions opts = DefaultOptions(flags);
    opts.workers = static_cast<uint32_t>(n);
    opts.slots_per_worker =
        static_cast<uint32_t>(flags.Int("slots", 8));
    tpcc::ScaleConfig scale = DefaultScale(flags, n);
    auto inst = SetupTpcc("exp1_w" + std::to_string(n), opts, scale);
    tpcc::DriverConfig cfg = DefaultDriver(flags);
    tpcc::DriverResult r = tpcc::RunTpcc(inst->workload.get(), cfg);
    printf("%-12d %-8u %-12.0f %-12.0f %-10llu\n", n, opts.workers, r.tpmc,
           r.tpm,
           static_cast<unsigned long long>(r.user_aborts + r.sys_aborts));
    PrintMetrics(r);
  }
  return 0;
}
