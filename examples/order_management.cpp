// Order-management demo: runs a scaled TPC-C workload end to end through
// the public workload API (the paper's evaluation scenario), then verifies
// the TPC-C consistency invariants and prints per-transaction-type counts
// and the engine's metrics snapshot.
//
//   ./build/examples/order_management [warehouses] [seconds]
#include <cstdio>

#include "tpcc/tpcc_driver.h"
#include "tpcc/tpcc_loader.h"

using namespace phoebe;
using namespace phoebe::tpcc;

int main(int argc, char** argv) {
  int warehouses = argc > 1 ? atoi(argv[1]) : 2;
  double seconds = argc > 2 ? atof(argv[2]) : 3.0;

  std::string dir = "/tmp/phoebe_order_mgmt";
  (void)Env::Default()->RemoveDirRecursive(dir);
  DatabaseOptions options;
  options.path = dir;
  options.workers = 2;
  options.slots_per_worker = 8;
  options.buffer_bytes = 128ull << 20;
  auto db = Database::Open(options);
  if (!db.ok()) {
    fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    return 1;
  }

  ScaleConfig scale;
  scale.warehouses = warehouses;
  scale.customers_per_district = 120;
  scale.items = 2000;
  scale.initial_orders_per_district = 120;
  scale.undelivered_tail = 36;
  printf("loading %d warehouse(s)...\n", warehouses);
  auto tables = LoadTpcc(db.value().get(), scale);
  if (!tables.ok()) {
    fprintf(stderr, "load: %s\n", tables.status().ToString().c_str());
    return 1;
  }

  Workload workload;
  workload.db = db.value().get();
  workload.tables = tables.value();
  workload.scale = scale;

  DriverConfig cfg;
  cfg.seconds = seconds;
  cfg.warmup_seconds = 0.3;
  printf("running the 45/43/4/4/4 TPC-C mix for %.1fs...\n", seconds);
  DriverResult r = RunTpcc(&workload, cfg);
  printf("%s\n", r.Summary().c_str());
  // Every layer's counters plus the run's tpcc.* numbers, as one JSON line.
  printf("#METRICS %s\n", MetricsJson(r.metrics).c_str());
  printf("  new_order:    %llu\n",
         static_cast<unsigned long long>(workload.new_order_commits.load()));
  printf("  payment:      %llu\n",
         static_cast<unsigned long long>(workload.payment_commits.load()));
  printf("  order_status: %llu\n",
         static_cast<unsigned long long>(
             workload.order_status_commits.load()));
  printf("  delivery:     %llu\n",
         static_cast<unsigned long long>(workload.delivery_commits.load()));
  printf("  stock_level:  %llu\n",
         static_cast<unsigned long long>(
             workload.stock_level_commits.load()));

  Status st = CheckConsistency(&workload);
  printf("TPC-C consistency checks: %s\n", st.ToString().c_str());
  (void)db.value()->Close();
  return st.ok() ? 0 : 1;
}
