// Exp 9: comparison against an I/O-bandwidth-bound commercial RDBMS
// stand-in ("O-DB"). The paper observes O-DB capped at ~77% CPU by disk
// bandwidth; here the stand-in is the baseline engine with a token-bucket
// bandwidth throttle on the data file.
#include "bench/bench_common.h"

using namespace phoebe;
using namespace phoebe::bench;

namespace {

double RunConfig(const Flags& flags, const char* name, bool baseline,
                 uint64_t bandwidth_limit) {
  DatabaseOptions opts = DefaultOptions(flags);
  opts.baseline_single_wal_writer = baseline;
  opts.baseline_global_lock_table = baseline;
  opts.baseline_pg_snapshot = baseline;
  opts.io_bandwidth_limit = bandwidth_limit;
  // Small buffer so the workload actually touches the (throttled) disk.
  opts.buffer_bytes = static_cast<uint64_t>(flags.Int("buffer-mb", 8)) << 20;
  int warehouses = static_cast<int>(flags.Int("warehouses", 2));
  tpcc::ScaleConfig scale = DefaultScale(flags, warehouses);
  scale.customers_per_district = static_cast<int>(flags.Int("customers", 600));
  scale.initial_orders_per_district =
      static_cast<int>(flags.Int("orders", 600));
  scale.undelivered_tail = scale.initial_orders_per_district * 3 / 10;
  auto inst = SetupTpcc(std::string("exp9_") + name, opts, scale);
  tpcc::DriverConfig cfg = DefaultDriver(flags);
  cfg.thread_model = baseline;
  tpcc::DriverResult r = tpcc::RunTpcc(inst->workload.get(), cfg);
  printf("%-26s %-12.0f %-12.0f\n", name, r.tpm, r.tpmc);
  PrintMetrics(r);
  return r.tpm;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  uint64_t limit_mb = static_cast<uint64_t>(flags.Int("odb-bw-mb", 20));
  printf("# Exp 9: PhoebeDB vs I/O-bandwidth-bound O-DB stand-in "
         "(throttle=%lluMB/s)\n", static_cast<unsigned long long>(limit_mb));
  printf("%-26s %-12s %-12s\n", "config", "tpm", "tpmC");
  double phoebe = RunConfig(flags, "phoebe", false, 0);
  double odb = RunConfig(flags, "odb(throttled baseline)", true,
                         limit_mb << 20);
  if (odb > 0) {
    printf("# speedup: %.1fx tpm (paper: 30M vs 3.2M tpm = 9.4x)\n",
           phoebe / odb);
  }
  return 0;
}
