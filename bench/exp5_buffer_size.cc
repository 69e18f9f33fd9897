// Exp 5 (Figure 10): throughput vs Main Storage (buffer) size. Larger
// buffers reduce hot<->cold exchange until the hot set fits, after which
// returns diminish (the paper's knee sits at ~25% of the data size).
#include "bench/bench_common.h"

using namespace phoebe;
using namespace phoebe::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::vector<int> sweep_mb = flags.IntList("sweep-mb", {6, 12, 24, 48});
  int warehouses = static_cast<int>(flags.Int("warehouses", 2));

  printf("# Exp 5 (Fig 10): tpm vs buffer size (%d warehouses)\n",
         warehouses);
  printf("%-12s %-12s %-12s %-12s\n", "buffer_MB", "tpmC", "tpm",
         "page_reads");
  for (int mb : sweep_mb) {
    DatabaseOptions opts = DefaultOptions(flags);
    opts.buffer_bytes = static_cast<uint64_t>(mb) << 20;
    tpcc::ScaleConfig scale = DefaultScale(flags, warehouses);
    scale.customers_per_district =
        static_cast<int>(flags.Int("customers", 400));
    scale.initial_orders_per_district =
        static_cast<int>(flags.Int("orders", 400));
    scale.undelivered_tail = scale.initial_orders_per_district * 3 / 10;
    auto inst = SetupTpcc("exp5_" + std::to_string(mb), opts, scale);
    IoStats::Global().Reset();
    tpcc::DriverConfig cfg = DefaultDriver(flags);
    tpcc::DriverResult r = tpcc::RunTpcc(inst->workload.get(), cfg);
    printf("%-12d %-12.0f %-12.0f %-12llu\n", mb, r.tpmc, r.tpm,
           static_cast<unsigned long long>(
               IoStats::Global().data_reads.load()));
    PrintMetrics(r);
  }
  return 0;
}
