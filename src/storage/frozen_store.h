#ifndef PHOEBE_STORAGE_FROZEN_STORE_H_
#define PHOEBE_STORAGE_FROZEN_STORE_H_

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/constants.h"
#include "common/status.h"
#include "io/env.h"
#include "storage/frozen_block.h"
#include "storage/schema.h"

namespace phoebe {

/// Frozen storage layer for one table (Section 5.2): the on-disk Data Block
/// File of compressed, immutable blocks holding rows with
/// row_id <= max_frozen_row_id, plus:
///   - a manifest (append-only) so blocks are discoverable after restart,
///   - a tombstone set for frozen rows that were deleted or warmed
///     (out-of-place updates: frozen data is never rewritten),
///   - a decoded-block LRU cache for point reads,
///   - per-block read counters driving read-warming decisions.
class FrozenStore {
 public:
  /// Opens (or creates) the store under `dir` with file stem `name`.
  static Result<std::unique_ptr<FrozenStore>> Open(Env* env,
                                                   const std::string& dir,
                                                   const std::string& name,
                                                   const Schema* schema);

  /// Capacity of the decoded-block cache, in blocks.
  static constexpr size_t kCacheBlocks = 64;

  /// Appends a block of frozen rows (sorted, strictly increasing ids all
  /// greater than max_frozen_row_id) and durably records it in the manifest.
  /// Advances max_frozen_row_id to `range_end` (the end of the frozen leaf's
  /// row-id range, which may exceed the last live row id).
  Status FreezeBlock(const std::vector<RowId>& row_ids,
                     const std::vector<std::string>& rows, RowId range_end);

  /// Reads the frozen row `rid`. kNotFound when out of range, tombstoned, or
  /// absent (deleted before freezing). Bumps the block's read counter.
  Status ReadRow(RowId rid, std::string* row_out);

  /// Marks a frozen row deleted (delete or warm-out). Idempotent.
  void MarkDeleted(RowId rid);
  bool IsDeleted(RowId rid) const;

  /// Scans all live frozen rows in row-id order.
  Status Scan(const std::function<bool(RowId, const std::string&)>& cb);

  /// Columnar projection over all live frozen rows of an integer column:
  /// decodes only that column's stream per block (no row materialization,
  /// no block cache pollution).
  Status ScanColumnInt64(uint32_t col,
                         const std::function<bool(RowId, int64_t)>& cb);
  Status ScanColumnDouble(uint32_t col,
                          const std::function<bool(RowId, double)>& cb);

  /// Rows whose block's read count exceeds `threshold` are warming
  /// candidates; returns the block's live row ids (capped at `limit`).
  std::vector<RowId> HotFrozenRows(uint64_t threshold, size_t limit);

  RowId max_frozen_row_id() const {
    std::lock_guard<std::mutex> lk(mu_);
    return max_frozen_row_id_;
  }

  size_t num_blocks() const {
    std::lock_guard<std::mutex> lk(mu_);
    return blocks_.size();
  }

  /// Persists the tombstone set + max_frozen_row_id (checkpoint).
  Status Checkpoint();

  /// Deletes all on-disk state (crash recovery rebuilds tables from WAL with
  /// everything unfrozen; see DESIGN.md).
  static Status Destroy(Env* env, const std::string& dir,
                        const std::string& name);

 private:
  struct BlockMeta {
    uint64_t offset = 0;
    uint32_t size = 0;
    RowId first = 0;
    RowId last = 0;
    uint64_t reads = 0;
  };

  FrozenStore(Env* env, std::string dir, std::string name,
              const Schema* schema)
      : env_(env), dir_(std::move(dir)), name_(std::move(name)),
        schema_(schema) {}

  Status LoadManifest();
  Status LoadTombstones();

  /// Returns the decoded block containing `rid` (nullptr if none). Caller
  /// holds mu_, which also guards the cache.
  Result<std::shared_ptr<FrozenBlockCodec::DecodedBlock>> GetBlockLocked(
      RowId rid, BlockMeta** meta_out);

  /// Decoded-block cache (caller holds mu_). Lookup moves the hit to the
  /// LRU front; insert evicts the tail once over kCacheBlocks.
  std::shared_ptr<FrozenBlockCodec::DecodedBlock> CacheLookup(RowId first);
  void CacheInsert(RowId first,
                   std::shared_ptr<FrozenBlockCodec::DecodedBlock> block);

  Env* env_;
  std::string dir_;
  std::string name_;
  const Schema* schema_;

  std::unique_ptr<File> block_file_;
  std::unique_ptr<File> manifest_;

  mutable std::mutex mu_;
  std::map<RowId, BlockMeta> blocks_;  // keyed by first row id
  std::unordered_set<RowId> tombstones_;
  RowId max_frozen_row_id_ = 0;

  /// Decoded-block LRU keyed by block first-row-id, guarded by mu_. The
  /// scan paths (ScanColumn*) bypass the cache entirely and read extents
  /// directly, so a table scan cannot wipe the point-read working set.
  std::list<std::pair<RowId, std::shared_ptr<FrozenBlockCodec::DecodedBlock>>>
      cache_;
};

}  // namespace phoebe

#endif  // PHOEBE_STORAGE_FROZEN_STORE_H_
