#ifndef PHOEBE_COMMON_METRICS_H_
#define PHOEBE_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace phoebe {

/// One entry of the engine-wide metrics snapshot (Database::Metrics): a
/// dotted name such as "wal.records_flushed" and its value.
struct Metric {
  std::string name;
  double value = 0;
};

/// Flat, ordered snapshot: each layer's counters under its own prefix.
using MetricList = std::vector<Metric>;

/// Counter structs declare their fields once, as an X-list macro
/// `PHOEBE_<LAYER>_STATS(X)` that invokes `X(field)` per counter. These
/// generators expand such a list into the atomic fields, a relaxed Reset and
/// the ForEach(fn(name, value)) visit that AppendMetrics consumes.
#define PHOEBE_COUNTER_FIELD(name) std::atomic<uint64_t> name{0};
#define PHOEBE_COUNTER_RESET(name) name.store(0, std::memory_order_relaxed);
#define PHOEBE_COUNTER_VISIT(name) \
  fn(#name, static_cast<double>(name.load(std::memory_order_relaxed)));

/// Appends "<prefix><field>" for every counter `stats.ForEach` visits.
template <typename Stats>
void AppendMetrics(const std::string& prefix, const Stats& stats,
                   MetricList* out) {
  stats.ForEach([&](const char* name, double value) {
    out->push_back({prefix + name, value});
  });
}

/// The snapshot as one line of JSON, one key per entry, in order:
/// {"io.data_reads": 12, "recovery.elapsed_ms": 0.25, ...}. Integral values
/// print as integers, non-finite ones as null.
std::string MetricsJson(const MetricList& metrics);

}  // namespace phoebe

#endif  // PHOEBE_COMMON_METRICS_H_
