#ifndef PHOEBE_IO_IO_STATS_H_
#define PHOEBE_IO_IO_STATS_H_

#include "common/metrics.h"

namespace phoebe {

/// Process-wide I/O counters, split into data-page and WAL traffic. The
/// disk-throughput experiments (Exp 3 and Exp 4) sample these per second.
/// The degradation counters (retries, CRC re-reads, quarantines, injected
/// faults, sync failures) make graceful-degradation behaviour observable in
/// the metrics snapshot and the fault-injection test suites.
#define PHOEBE_IO_STATS(X)                                                  \
  X(data_bytes_read)                                                        \
  X(data_bytes_written)                                                     \
  X(data_reads)                                                             \
  X(data_writes)                                                            \
  X(wal_bytes_written)                                                      \
  X(wal_flushes)                                                            \
  X(read_retries)      /* transient read errors retried */                  \
  X(write_retries)     /* transient write errors retried */                 \
  X(crc_rereads)       /* page/block CRC mismatch re-reads */               \
  X(pages_quarantined) /* pages failed twice, fenced off */                 \
  X(injected_faults)   /* faults injected by a test Env */                  \
  X(wal_sync_failures) /* WAL fsync errors (fail-stop) */

struct IoStats {
  PHOEBE_IO_STATS(PHOEBE_COUNTER_FIELD)

  static IoStats& Global() {
    static IoStats* s = new IoStats();
    return *s;
  }

  void Reset() { PHOEBE_IO_STATS(PHOEBE_COUNTER_RESET) }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    PHOEBE_IO_STATS(PHOEBE_COUNTER_VISIT)
  }
};

}  // namespace phoebe

#endif  // PHOEBE_IO_IO_STATS_H_
