// Exp 4 (Figure 7c/d): data read/write disk throughput and tpmC over time
// when the data set greatly exceeds Main Storage. The paper reserves 1 GB
// of buffer per warehouse while data grows to ~5x that; this bench shrinks
// the buffer until most pages live on disk and samples the exchange
// traffic per second.
#include "bench/bench_common.h"

using namespace phoebe;
using namespace phoebe::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  DatabaseOptions opts = DefaultOptions(flags);
  // Deliberately small Main Storage so hot<->cold exchange is continuous.
  opts.buffer_bytes = static_cast<uint64_t>(flags.Int("buffer-mb", 8)) << 20;
  int warehouses = static_cast<int>(flags.Int("warehouses", 2));
  tpcc::ScaleConfig scale = DefaultScale(flags, warehouses);
  // Grow the data set: more customers/orders than the CI default.
  scale.customers_per_district =
      static_cast<int>(flags.Int("customers", 600));
  scale.initial_orders_per_district =
      static_cast<int>(flags.Int("orders", 600));
  scale.undelivered_tail = scale.initial_orders_per_district * 3 / 10;

  auto inst = SetupTpcc("exp4", opts, scale);
  uint64_t data_pages = inst->db->pool()->page_file()->num_pages();
  printf("# Exp 4 (Fig 7c/d): disk I/O during buffer<->disk exchange\n");
  printf("# buffer=%lluMB, on-disk pages after load=%llu (%.0f MB)\n",
         static_cast<unsigned long long>(opts.buffer_bytes >> 20),
         static_cast<unsigned long long>(data_pages),
         static_cast<double>(data_pages) * kPageSize / 1e6);

  tpcc::DriverConfig cfg = DefaultDriver(flags);
  cfg.seconds = flags.Double("seconds", 8.0);
  cfg.sample_series = true;
  tpcc::DriverResult r = tpcc::RunTpcc(inst->workload.get(), cfg);

  printf("%-8s %-14s %-14s %-10s\n", "t(s)", "read_MB/s", "write_MB/s",
         "tpmC");
  for (const auto& pt : r.series) {
    printf("%-8.1f %-14.2f %-14.2f %-10.0f\n", pt.t, pt.data_read_mb_per_s,
           pt.data_write_mb_per_s, pt.tpmc);
  }
  // Page-read/write totals (io.*) and evictions (buffer.*) of the run.
  PrintMetrics(r);
  return 0;
}
