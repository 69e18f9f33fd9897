// Exp 2 (Figure 8): throughput as the worker count increases at fixed
// warehouse count. The paper scales nearly linearly to 52 physical cores,
// with mild per-worker degradation beyond. On an N-core host the knee sits
// at N; past it the curve shows the same beyond-physical-cores flattening.
#include <algorithm>

#include "bench/bench_common.h"

using namespace phoebe;
using namespace phoebe::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  unsigned hw = std::thread::hardware_concurrency();
  std::vector<int> def = {1, 2};
  if (hw >= 4) def.push_back(static_cast<int>(hw / 2));
  def.push_back(static_cast<int>(hw));
  def.push_back(static_cast<int>(hw * 2));
  std::vector<int> sweep = flags.IntList("sweep", def);
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
  int warehouses = static_cast<int>(flags.Int("warehouses", 4));

  printf("# Exp 2 (Fig 8): throughput vs worker count (%d warehouses, "
         "%u hw threads)\n", warehouses, hw);
  printf("%-8s %-12s %-12s %-14s\n", "workers", "tpmC", "tpm",
         "tpm/worker");
  for (int n : sweep) {
    if (n < 1) continue;
    DatabaseOptions opts = DefaultOptions(flags);
    opts.workers = static_cast<uint32_t>(n);
    tpcc::ScaleConfig scale = DefaultScale(flags, warehouses);
    auto inst = SetupTpcc("exp2_n" + std::to_string(n), opts, scale);
    tpcc::DriverConfig cfg = DefaultDriver(flags);
    tpcc::DriverResult r = tpcc::RunTpcc(inst->workload.get(), cfg);
    printf("%-8d %-12.0f %-12.0f %-14.0f\n", n, r.tpmc, r.tpm, r.tpm / n);
    // The snapshot's sched.* counters show how much each point pulled
    // locally vs stole (scripts/bench_smoke.sh reads them).
    PrintMetrics(r);
  }
  return 0;
}
