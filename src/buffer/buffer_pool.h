#ifndef PHOEBE_BUFFER_BUFFER_POOL_H_
#define PHOEBE_BUFFER_BUFFER_POOL_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "buffer/buffer_frame.h"
#include "buffer/swip.h"
#include "common/metrics.h"
#include "common/status.h"
#include "io/async_io.h"
#include "io/page_file.h"

namespace phoebe {

/// Partitioned buffer pool (Section 7.1: each worker thread manages its own
/// buffer pool partition and handles page swaps locally). The pool owns the
/// frame descriptors, the page region, the free lists, and the cooling
/// FIFOs; the B-Tree layer owns the swizzling policy (which pages to
/// cool/evict) because only it can locate parent swips safely.
///
/// The page region is one anonymous mapping that the OS commits on first
/// touch, so resident memory follows the pages in use, not `buffer_bytes`.
class BufferPool {
 public:
  /// Memory `buffer_bytes` is charged per frame: descriptor plus page.
  static constexpr size_t kBytesPerFrame = sizeof(BufferFrame) + kPageSize;

  struct Options {
    uint64_t buffer_bytes = 64ull << 20;  // total across partitions
    uint32_t partitions = 1;
    uint32_t io_threads = 2;
    /// Eviction begins when a partition's free frames drop below this
    /// fraction of its frame count.
    double free_low_watermark = 0.10;
  };

  /// `page_file` stores evicted (cold) pages; it must outlive the pool.
  BufferPool(const Options& options, PageFile* page_file);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Grabs a free frame from `partition` (state -> kHot). Returns nullptr if
  /// the partition (and, as fallback, every other partition) is exhausted;
  /// the caller must then trigger eviction.
  BufferFrame* AllocateFrame(uint32_t partition);

  /// Returns a frame to its partition's free list (caller holds no latch and
  /// guarantees no swip references the frame).
  void FreeFrame(BufferFrame* bf);

  /// Synchronously reads page `id` into `bf->page` and verifies its CRC.
  Status LoadPageSync(PageId id, BufferFrame* bf);

  /// Page-checksum helpers (CRC32C over the page with the crc field
  /// zeroed). Stamped at write-back, verified after every load.
  static void StampPageCrc(char* page);
  static Status VerifyPageCrc(const char* page, PageId id);

  /// Starts an asynchronous read of page `id` into `req->buf`.
  void LoadPageAsync(AsyncIoEngine::Request* req, PageFile* file, PageId id,
                     char* buf);

  /// Writes `bf->page` to disk, allocating a page id on first eviction.
  /// Clears the dirty bit on success.
  Status WriteBack(BufferFrame* bf);

  /// Batched write-back: submits all `n` frames to the async I/O engine in
  /// one batch (CRC stamping happens on the I/O threads) and waits for the
  /// whole batch. Per-frame results land in `statuses` (must hold `n`);
  /// returns the first non-OK status. Dirty bits clear per-frame on success.
  Status WriteBackBatch(BufferFrame* const* frames, size_t n,
                        Status* statuses);

  /// Cooling FIFO management. Push: frame enters cooling stage; Pop: oldest
  /// cooling frame of the partition (nullptr if none).
  void PushCooling(BufferFrame* bf);
  BufferFrame* PopCooling(uint32_t partition);
  /// Removes `bf` from its cooling FIFO if still present (second chance).
  /// O(1): flips the frame's tombstone flag; the stale deque entry is
  /// skipped lazily by PopCooling.
  bool RemoveCooling(BufferFrame* bf);

  /// True when the partition's free list is below the low watermark and the
  /// owner worker should run a page-swap housekeeping pass.
  bool NeedsEviction(uint32_t partition) const;

  /// Random access to a partition's frame array (for eviction victim
  /// probing). `idx` is taken modulo the partition size.
  BufferFrame* FrameAt(uint32_t partition, size_t idx) {
    partition %= partitions();
    return &frames_[partition * frames_per_partition_ +
                    (idx % frames_per_partition_)];
  }

  /// Invokes `fn` on every frame in the pool. Teardown/diagnostics only:
  /// takes no latches, so all concurrent frame users must be quiesced.
  template <typename Fn>
  void ForEachFrame(Fn fn) {
    for (size_t i = 0; i < num_frames_; ++i) fn(&frames_[i]);
  }

  size_t FreeFrames(uint32_t partition) const;
  size_t CoolingFrames(uint32_t partition) const;
  uint32_t partitions() const {
    return static_cast<uint32_t>(parts_.size());
  }
  size_t frames_per_partition() const { return frames_per_partition_; }
  AsyncIoEngine* io_engine() { return &io_; }
  PageFile* page_file() { return page_file_; }

  /// Epoch counter advanced by housekeeping; used for temperature tracking.
  uint32_t current_epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  void AdvanceEpoch() { epoch_.fetch_add(1, std::memory_order_relaxed); }

#define PHOEBE_BUFFER_POOL_STATS(X) \
  X(allocations)                    \
  X(evictions)                      \
  X(loads)                          \
  X(alloc_failures)

  struct Stats {
    PHOEBE_BUFFER_POOL_STATS(PHOEBE_COUNTER_FIELD)

    template <typename Fn>
    void ForEach(Fn&& fn) const {
      PHOEBE_BUFFER_POOL_STATS(PHOEBE_COUNTER_VISIT)
    }
  };
  Stats& stats() { return stats_; }

 private:
  struct Partition {
    mutable std::mutex mu;
    std::vector<BufferFrame*> free_list;
    std::deque<BufferFrame*> cooling;
    /// Entries in `cooling` whose in_cooling flag is still set (the deque
    /// itself may carry tombstoned entries awaiting a lazy skip).
    size_t live_cooling = 0;
  };

  PageFile* page_file_;
  AsyncIoEngine io_;
  std::vector<std::unique_ptr<Partition>> parts_;
  std::unique_ptr<BufferFrame[]> frames_;  // dense descriptor array
  char* pages_ = nullptr;                  // page region, kPageSize per frame
  size_t num_frames_ = 0;
  size_t frames_per_partition_ = 0;
  double low_watermark_;
  std::atomic<uint32_t> epoch_{1};
  Stats stats_;
};

}  // namespace phoebe

#endif  // PHOEBE_BUFFER_BUFFER_POOL_H_
