#ifndef PHOEBE_BUFFER_BUFFER_FRAME_H_
#define PHOEBE_BUFFER_BUFFER_FRAME_H_

#include <atomic>
#include <cstdint>

#include "common/constants.h"
#include "common/latch.h"

namespace phoebe {

class BTree;

/// Lifecycle of a buffer frame.
enum class FrameState : uint8_t {
  kFree = 0,     // on the partition free list
  kHot = 1,      // resident, referenced by a HOT swip
  kCooling = 2,  // resident, staged in the cooling FIFO
};

/// A buffer frame descriptor: 128 bytes of header pointing at kPageSize of
/// page content. The pool keeps the descriptors in one dense array and the
/// pages in a separate lazily committed region (DESIGN.md 4i), each
/// partition owning a contiguous run of both (Section 7.1: buffer
/// management is partitioned by worker to avoid cross-thread contention).
struct alignas(64) BufferFrame {
  /// Protects the page content (hybrid: optimistic traversal, pessimistic
  /// leaf operations).
  HybridLatch latch;

  /// On-disk page id, kInvalidPageId while the page has never been evicted.
  PageId page_id = kInvalidPageId;

  /// Owning tree and parent frame (nullptr for roots). Maintained by the
  /// B-Tree under exclusive latches; used to locate the parent swip during
  /// unswizzling.
  BTree* btree = nullptr;
  BufferFrame* parent = nullptr;

  /// Buffer partition that owns this frame.
  uint16_t partition = 0;

  std::atomic<FrameState> state{FrameState::kFree};
  std::atomic<bool> dirty{false};

  /// True while an entry for this frame sits in its partition's cooling
  /// FIFO. RemoveCooling clears it in O(1) (lazy tombstone); PopCooling
  /// skips deque entries whose flag is already clear.
  std::atomic<bool> in_cooling{false};

  /// Page GSN for the parallel-WAL RFA protocol (Section 8): the GSN of the
  /// last log record that modified this page, and the id of the WAL writer
  /// (task slot) that produced it.
  std::atomic<uint64_t> page_gsn{0};
  std::atomic<uint32_t> last_writer{~0u};

  /// Temperature tracking (Section 5.2): OLTP access count and the epoch of
  /// the last OLTP access, driving hot/cold/frozen classification.
  std::atomic<uint32_t> access_count{0};
  std::atomic<uint32_t> last_access_epoch{0};

  /// Page-level twin table (Section 6.2) mapping tuple slots to UNDO version
  /// chains. Owned by the txn layer (opaque here to avoid a layering cycle).
  /// A frame with a live twin table is not evictable.
  std::atomic<void*> twin{nullptr};

  /// Steady-state fast path for TxnManager::RegisterTwin: set once when the
  /// frame enters the twin registry, so repeat writers to an already-
  /// attached page skip the registry shard lock entirely. Cleared by the
  /// sweeper (under the frame's exclusive latch) before it destroys the
  /// twin table, and by ResetHeader.
  std::atomic<bool> twin_registered{false};

  /// Page content (kPageSize bytes, 4 KiB-aligned), owned by the pool.
  char* page = nullptr;

  void Touch(uint32_t epoch) {
    access_count.fetch_add(1, std::memory_order_relaxed);
    last_access_epoch.store(epoch, std::memory_order_relaxed);
  }

  void ResetHeader() {
    twin.store(nullptr, std::memory_order_relaxed);
    twin_registered.store(false, std::memory_order_relaxed);
    in_cooling.store(false, std::memory_order_relaxed);
    page_id = kInvalidPageId;
    btree = nullptr;
    parent = nullptr;
    dirty.store(false, std::memory_order_relaxed);
    page_gsn.store(0, std::memory_order_relaxed);
    last_writer.store(~0u, std::memory_order_relaxed);
    access_count.store(0, std::memory_order_relaxed);
    last_access_epoch.store(0, std::memory_order_relaxed);
  }
};

static_assert(sizeof(BufferFrame) == 128, "frame descriptor is two lines");

}  // namespace phoebe

#endif  // PHOEBE_BUFFER_BUFFER_FRAME_H_
