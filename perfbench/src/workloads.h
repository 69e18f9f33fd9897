#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>

#include "harness.h"

namespace perfbench {

/// The flush policy of every workload: a commit waits until its WAL record
/// is written, not until it is fdatasync'ed. On shared virtual disks the
/// fdatasync latency swings several-fold over tens of seconds, and with one
/// fdatasync per commit every timing would measure the host's disk.
constexpr bool kWalSync = false;

/// Task slots per scheduler worker: 2 workers x 8 slots serve the 16
/// clients.
constexpr uint32_t kSlotsPerWorker = 8;

/// The TPC-C transaction types, in the order of the workload's type ids.
inline constexpr const char* kTpccTypeNames[] = {
    "new_order", "payment", "order_status", "delivery", "stock_level"};

/// Spec-scale TPC-C, 2 warehouses, standard mix, 16 clients.
std::unique_ptr<Workload> MakeTpccWorkload(uint64_t seed);

/// Read-mostly key-value mix over a 1M-row table owned by the benchmark,
/// with a buffer below its data and background checkpoints on a WAL-size
/// trigger.
std::unique_ptr<Workload> MakeKvWorkload(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
