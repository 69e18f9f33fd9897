#ifndef PHOEBE_BENCH_BENCH_COMMON_H_
#define PHOEBE_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "io/io_stats.h"
#include "tpcc/tpcc_driver.h"
#include "tpcc/tpcc_loader.h"

namespace phoebe {
namespace bench {

/// Minimal --key=value flag parser shared by the experiment binaries.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        kv_[arg.substr(2)] = "true";
      } else {
        kv_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  int64_t Int(const std::string& key, int64_t def) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? def : atoll(it->second.c_str());
  }
  double Double(const std::string& key, double def) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? def : atof(it->second.c_str());
  }
  bool Bool(const std::string& key, bool def) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return def;
    return it->second != "false" && it->second != "0";
  }
  std::string Str(const std::string& key, const std::string& def) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? def : it->second;
  }
  /// Comma-separated int list.
  std::vector<int> IntList(const std::string& key,
                           std::vector<int> def) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return def;
    std::vector<int> out;
    const char* p = it->second.c_str();
    while (*p) {
      out.push_back(atoi(p));
      p = strchr(p, ',');
      if (!p) break;
      ++p;
    }
    return out;
  }

 private:
  std::map<std::string, std::string> kv_;
};

/// A fresh scratch directory for a bench run.
inline std::string ScratchDir(const std::string& name) {
  std::string path = "/tmp/phoebe_bench_" + name + "_" +
                     std::to_string(::getpid());
  (void)Env::Default()->RemoveDirRecursive(path);
  (void)Env::Default()->CreateDir(path);
  return path;
}

struct TpccInstance {
  std::unique_ptr<Database> db;
  std::unique_ptr<tpcc::Workload> workload;
  std::string dir;

  ~TpccInstance() {
    workload.reset();
    db.reset();
    if (!dir.empty()) (void)Env::Default()->RemoveDirRecursive(dir);
  }
};

/// Opens a database + loads TPC-C at the given scale.
inline std::unique_ptr<TpccInstance> SetupTpcc(const std::string& name,
                                               DatabaseOptions opts,
                                               tpcc::ScaleConfig scale) {
  auto inst = std::make_unique<TpccInstance>();
  inst->dir = ScratchDir(name);
  opts.path = inst->dir;
  auto db = Database::Open(opts);
  if (!db.ok()) {
    fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    exit(1);
  }
  inst->db = std::move(db.value());
  auto tables = tpcc::LoadTpcc(inst->db.get(), scale);
  if (!tables.ok()) {
    fprintf(stderr, "load failed: %s\n", tables.status().ToString().c_str());
    exit(1);
  }
  inst->workload = std::make_unique<tpcc::Workload>();
  inst->workload->db = inst->db.get();
  inst->workload->tables = tables.value();
  inst->workload->scale = scale;
  IoStats::Global().Reset();
  return inst;
}

/// Default CI-scale TPC-C sizing (paper runs use spec scale; pass
/// --spec-scale to approximate it).
inline tpcc::ScaleConfig DefaultScale(const Flags& flags, int warehouses) {
  tpcc::ScaleConfig scale;
  scale.warehouses = warehouses;
  if (flags.Bool("spec-scale", false)) {
    scale = tpcc::ScaleConfig::Spec(warehouses);
  } else {
    scale.customers_per_district =
        static_cast<int>(flags.Int("customers", 120));
    scale.items = static_cast<int>(flags.Int("items", 2000));
    scale.initial_orders_per_district =
        static_cast<int>(flags.Int("orders", 120));
    scale.undelivered_tail = scale.initial_orders_per_district * 3 / 10;
  }
  scale.load_threads = static_cast<int>(flags.Int("load-threads", 4));
  return scale;
}

inline DatabaseOptions DefaultOptions(const Flags& flags) {
  DatabaseOptions opts;
  opts.workers = static_cast<uint32_t>(
      flags.Int("workers", std::min(4u, std::thread::hardware_concurrency())));
  opts.slots_per_worker =
      static_cast<uint32_t>(flags.Int("slots", 8));
  opts.buffer_bytes =
      static_cast<uint64_t>(flags.Int("buffer-mb", 256)) << 20;
  opts.wal_sync = flags.Bool("wal-sync", true);
  opts.aux_slots = static_cast<uint32_t>(flags.Int("aux-slots", 8));
  // Background checkpointer triggers (0 = disabled, the default: checkpoint
  // only at Close). E.g. --checkpoint-wal-mb=64 --checkpoint-interval-ms=5000.
  opts.checkpoint_wal_bytes =
      static_cast<uint64_t>(flags.Int("checkpoint-wal-mb", 0)) << 20;
  opts.checkpoint_interval_ms =
      static_cast<uint64_t>(flags.Int("checkpoint-interval-ms", 0));
  opts.checkpoint_quiesce_timeout_ms =
      static_cast<uint64_t>(flags.Int("checkpoint-quiesce-ms", 100));
  return opts;
}

/// Prints the run's metrics snapshot as one machine-readable line,
/// `#METRICS {json}` (read by scripts/bench_smoke.sh).
inline void PrintMetrics(const tpcc::DriverResult& r) {
  printf("#METRICS %s\n", MetricsJson(r.metrics).c_str());
  fflush(stdout);
}

inline tpcc::DriverConfig DefaultDriver(const Flags& flags) {
  tpcc::DriverConfig cfg;
  cfg.seconds = flags.Double("seconds", 5.0);
  cfg.warmup_seconds = flags.Double("warmup", 0.5);
  cfg.affinity = flags.Bool("affinity", true);
  cfg.pin_workers = flags.Bool("pin", false);
  cfg.seed = static_cast<uint64_t>(flags.Int("seed", 42));
  cfg.max_retries = static_cast<uint32_t>(flags.Int("max-retries", 5));
  return cfg;
}

}  // namespace bench
}  // namespace phoebe

#endif  // PHOEBE_BENCH_BENCH_COMMON_H_
