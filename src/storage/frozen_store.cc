#include "storage/frozen_store.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc32.h"
#include "io/io_retry.h"
#include "io/io_stats.h"

namespace phoebe {

namespace {

std::string BlockPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".blocks";
}
std::string ManifestPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".manifest";
}
std::string TombstonePath(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".tombstones";
}

// Manifest record: [u64 offset][u32 size][u64 first][u64 last]
// [u64 range_end][u32 masked crc]
constexpr size_t kManifestRecordSize = 8 + 4 + 8 + 8 + 8 + 4;

}  // namespace

Result<std::unique_ptr<FrozenStore>> FrozenStore::Open(
    Env* env, const std::string& dir, const std::string& name,
    const Schema* schema) {
  std::unique_ptr<FrozenStore> store(new FrozenStore(env, dir, name, schema));
  Env::OpenOptions opts;
  Status st = env->OpenFile(BlockPath(dir, name), opts, &store->block_file_);
  if (!st.ok()) return Result<std::unique_ptr<FrozenStore>>(st);
  st = env->OpenFile(ManifestPath(dir, name), opts, &store->manifest_);
  if (!st.ok()) return Result<std::unique_ptr<FrozenStore>>(st);
  st = store->LoadManifest();
  if (!st.ok()) return Result<std::unique_ptr<FrozenStore>>(st);
  st = store->LoadTombstones();
  if (!st.ok()) return Result<std::unique_ptr<FrozenStore>>(st);
  return Result<std::unique_ptr<FrozenStore>>(std::move(store));
}

Status FrozenStore::Destroy(Env* env, const std::string& dir,
                            const std::string& name) {
  PHOEBE_RETURN_IF_ERROR(env->RemoveFile(BlockPath(dir, name)));
  PHOEBE_RETURN_IF_ERROR(env->RemoveFile(ManifestPath(dir, name)));
  return env->RemoveFile(TombstonePath(dir, name));
}

Status FrozenStore::LoadManifest() {
  uint64_t size = manifest_->Size();
  uint64_t records = size / kManifestRecordSize;
  std::string buf(kManifestRecordSize, '\0');
  for (uint64_t i = 0; i < records; ++i) {
    size_t got = 0;
    PHOEBE_RETURN_IF_ERROR(manifest_->Read(i * kManifestRecordSize,
                                           kManifestRecordSize, buf.data(),
                                           &got));
    if (got != kManifestRecordSize) break;
    uint32_t crc = DecodeFixed32(buf.data() + kManifestRecordSize - 4);
    if (MaskCrc(Crc32c(buf.data(), kManifestRecordSize - 4)) != crc) {
      break;  // torn tail record: ignore it and everything after
    }
    BlockMeta meta;
    meta.offset = DecodeFixed64(buf.data());
    meta.size = DecodeFixed32(buf.data() + 8);
    meta.first = DecodeFixed64(buf.data() + 12);
    meta.last = DecodeFixed64(buf.data() + 20);
    RowId range_end = DecodeFixed64(buf.data() + 28);
    if (meta.size > 0) blocks_[meta.first] = meta;
    max_frozen_row_id_ = std::max(max_frozen_row_id_, range_end);
  }
  return Status::OK();
}

Status FrozenStore::LoadTombstones() {
  const std::string path = TombstonePath(dir_, name_);
  if (!env_->FileExists(path)) return Status::OK();
  std::unique_ptr<File> f;
  Env::OpenOptions opts;
  opts.create = false;
  opts.read_only = true;
  PHOEBE_RETURN_IF_ERROR(env_->OpenFile(path, opts, &f));
  uint64_t n = f->Size() / 8;
  std::string buf(static_cast<size_t>(n) * 8, '\0');
  size_t got = 0;
  PHOEBE_RETURN_IF_ERROR(f->Read(0, buf.size(), buf.data(), &got));
  for (uint64_t i = 0; i + 8 <= got; i += 8) {
    tombstones_.insert(DecodeFixed64(buf.data() + i));
  }
  return Status::OK();
}

Status FrozenStore::Checkpoint() {
  std::lock_guard<std::mutex> lk(mu_);
  std::unique_ptr<File> f;
  Env::OpenOptions opts;
  opts.truncate = true;
  PHOEBE_RETURN_IF_ERROR(
      env_->OpenFile(TombstonePath(dir_, name_), opts, &f));
  std::string buf;
  buf.reserve(tombstones_.size() * 8);
  for (RowId rid : tombstones_) PutFixed64(&buf, rid);
  PHOEBE_RETURN_IF_ERROR(f->Write(0, buf));
  PHOEBE_RETURN_IF_ERROR(f->Sync());
  PHOEBE_RETURN_IF_ERROR(block_file_->Sync());
  return manifest_->Sync();
}

Status FrozenStore::FreezeBlock(const std::vector<RowId>& row_ids,
                                const std::vector<std::string>& rows,
                                RowId range_end) {
  std::string encoded_block;
  if (!row_ids.empty()) {
    Result<std::string> encoded =
        FrozenBlockCodec::Encode(*schema_, row_ids, rows);
    if (!encoded.ok()) return encoded.status();
    encoded_block = std::move(encoded.value());
  }

  std::lock_guard<std::mutex> lk(mu_);
  if (!row_ids.empty() && row_ids.front() <= max_frozen_row_id_) {
    return Status::InvalidArgument("freeze below max_frozen_row_id");
  }
  BlockMeta meta;
  if (!encoded_block.empty()) {
    uint64_t offset = block_file_->Size();
    PHOEBE_RETURN_IF_ERROR(block_file_->Write(offset, encoded_block));
    PHOEBE_RETURN_IF_ERROR(block_file_->Sync());
    meta.offset = offset;
    meta.size = static_cast<uint32_t>(encoded_block.size());
    meta.first = row_ids.front();
    meta.last = row_ids.back();
  }
  // Empty leaves still advance the watermark via a manifest-only record
  // (size == 0).

  std::string rec;
  PutFixed64(&rec, meta.offset);
  PutFixed32(&rec, meta.size);
  PutFixed64(&rec, meta.first);
  PutFixed64(&rec, meta.last);
  PutFixed64(&rec, range_end);
  PutFixed32(&rec, MaskCrc(Crc32c(rec.data(), rec.size())));
  PHOEBE_RETURN_IF_ERROR(manifest_->Append(rec));
  PHOEBE_RETURN_IF_ERROR(manifest_->Sync());

  if (meta.size > 0) blocks_[meta.first] = meta;
  max_frozen_row_id_ = std::max(max_frozen_row_id_, range_end);
  return Status::OK();
}

Result<std::shared_ptr<FrozenBlockCodec::DecodedBlock>>
FrozenStore::GetBlockLocked(RowId rid, BlockMeta** meta_out) {
  using R = Result<std::shared_ptr<FrozenBlockCodec::DecodedBlock>>;
  auto it = blocks_.upper_bound(rid);
  if (it == blocks_.begin()) return R(Status::NotFound());
  --it;
  BlockMeta& meta = it->second;
  if (rid < meta.first || rid > meta.last) return R(Status::NotFound());
  if (meta_out != nullptr) *meta_out = &meta;

  if (auto cached = CacheLookup(meta.first)) {
    return R(std::move(cached));
  }
  std::string buf(meta.size, '\0');
  // Transient read errors are retried; a genuinely short read (truncated
  // block file) is deterministic corruption.
  Status st = RetryIo(DefaultIoRetryPolicy(),
                      &IoStats::Global().read_retries, [&] {
                        size_t got = 0;
                        PHOEBE_RETURN_IF_ERROR(block_file_->Read(
                            meta.offset, meta.size, buf.data(), &got));
                        if (got != meta.size) {
                          return Status::Corruption("short block read");
                        }
                        return Status::OK();
                      });
  if (!st.ok()) return R(st);
  Result<FrozenBlockCodec::DecodedBlock> decoded =
      FrozenBlockCodec::Decode(*schema_, buf);
  if (!decoded.ok() && decoded.status().IsCorruption()) {
    // The block has its own CRC, so a decode failure may be in-flight
    // corruption rather than bad media: re-read once before propagating.
    IoStats::Global().crc_rereads.fetch_add(1, std::memory_order_relaxed);
    size_t got = 0;
    st = block_file_->Read(meta.offset, meta.size, buf.data(), &got);
    if (st.ok() && got == meta.size) {
      decoded = FrozenBlockCodec::Decode(*schema_, buf);
    }
  }
  if (!decoded.ok()) return R(decoded.status());
  auto block = std::make_shared<FrozenBlockCodec::DecodedBlock>(
      std::move(decoded.value()));
  CacheInsert(meta.first, block);
  return R(std::move(block));
}

std::shared_ptr<FrozenBlockCodec::DecodedBlock> FrozenStore::CacheLookup(
    RowId first) {
  for (auto c = cache_.begin(); c != cache_.end(); ++c) {
    if (c->first == first) {
      cache_.splice(cache_.begin(), cache_, c);  // move to front
      return c->second;
    }
  }
  return nullptr;
}

void FrozenStore::CacheInsert(
    RowId first, std::shared_ptr<FrozenBlockCodec::DecodedBlock> block) {
  cache_.emplace_front(first, std::move(block));
  if (cache_.size() > kCacheBlocks) cache_.pop_back();
}

Status FrozenStore::ReadRow(RowId rid, std::string* row_out) {
  std::lock_guard<std::mutex> lk(mu_);
  if (rid > max_frozen_row_id_) return Status::NotFound();
  if (tombstones_.count(rid) != 0) return Status::NotFound();
  BlockMeta* meta = nullptr;
  auto block = GetBlockLocked(rid, &meta);
  if (!block.ok()) return block.status();
  meta->reads += 1;
  int pos = block.value()->Find(rid);
  if (pos < 0) return Status::NotFound();
  *row_out = block.value()->rows[static_cast<size_t>(pos)];
  return Status::OK();
}

void FrozenStore::MarkDeleted(RowId rid) {
  std::lock_guard<std::mutex> lk(mu_);
  tombstones_.insert(rid);
}

bool FrozenStore::IsDeleted(RowId rid) const {
  std::lock_guard<std::mutex> lk(mu_);
  return tombstones_.count(rid) != 0;
}

Status FrozenStore::Scan(
    const std::function<bool(RowId, const std::string&)>& cb) {
  // Snapshot block list to avoid holding the lock through callbacks.
  std::vector<RowId> firsts;
  {
    std::lock_guard<std::mutex> lk(mu_);
    firsts.reserve(blocks_.size());
    for (const auto& kv : blocks_) firsts.push_back(kv.first);
  }
  for (RowId first : firsts) {
    std::shared_ptr<FrozenBlockCodec::DecodedBlock> block;
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto r = GetBlockLocked(first, nullptr);
      if (!r.ok()) {
        if (r.status().IsNotFound()) continue;
        return r.status();
      }
      block = r.value();
    }
    for (size_t i = 0; i < block->row_ids.size(); ++i) {
      RowId rid = block->row_ids[i];
      if (IsDeleted(rid)) continue;
      if (!cb(rid, block->rows[i])) return Status::OK();
    }
  }
  return Status::OK();
}

namespace {

template <typename T>
Status ScanColumnImpl(
    FrozenStore* store, const Schema& schema, File* block_file,
    const std::vector<std::pair<uint64_t, uint32_t>>& extents, uint32_t col,
    const std::function<bool(RowId, T)>& cb,
    Status (*decode)(const Schema&, Slice, uint32_t,
                     const std::function<bool(RowId, T)>&)) {
  for (const auto& [offset, size] : extents) {
    std::string buf(size, '\0');
    PHOEBE_RETURN_IF_ERROR(RetryIo(
        DefaultIoRetryPolicy(), &IoStats::Global().read_retries, [&] {
          size_t got = 0;
          PHOEBE_RETURN_IF_ERROR(
              block_file->Read(offset, size, buf.data(), &got));
          if (got != size) return Status::Corruption("short block read");
          return Status::OK();
        }));
    bool stop = false;
    PHOEBE_RETURN_IF_ERROR(
        decode(schema, buf, col, [&](RowId rid, T v) {
          if (store->IsDeleted(rid)) return true;
          if (!cb(rid, v)) {
            stop = true;
            return false;
          }
          return true;
        }));
    if (stop) break;
  }
  return Status::OK();
}

}  // namespace

Status FrozenStore::ScanColumnInt64(
    uint32_t col, const std::function<bool(RowId, int64_t)>& cb) {
  std::vector<std::pair<uint64_t, uint32_t>> extents;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& kv : blocks_) {
      extents.emplace_back(kv.second.offset, kv.second.size);
    }
  }
  return ScanColumnImpl<int64_t>(this, *schema_, block_file_.get(), extents,
                                 col, cb, &FrozenBlockCodec::DecodeColumnInt64);
}

Status FrozenStore::ScanColumnDouble(
    uint32_t col, const std::function<bool(RowId, double)>& cb) {
  std::vector<std::pair<uint64_t, uint32_t>> extents;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& kv : blocks_) {
      extents.emplace_back(kv.second.offset, kv.second.size);
    }
  }
  return ScanColumnImpl<double>(this, *schema_, block_file_.get(), extents,
                                col, cb,
                                &FrozenBlockCodec::DecodeColumnDouble);
}

std::vector<RowId> FrozenStore::HotFrozenRows(uint64_t threshold,
                                              size_t limit) {
  std::vector<RowId> out;
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& kv : blocks_) {
    if (kv.second.reads < threshold) continue;
    auto r = GetBlockLocked(kv.second.first, nullptr);
    if (!r.ok()) continue;
    for (RowId rid : r.value()->row_ids) {
      if (tombstones_.count(rid) != 0) continue;
      out.push_back(rid);
      if (out.size() >= limit) return out;
    }
    kv.second.reads = 0;  // reset after selecting for warming
  }
  return out;
}

}  // namespace phoebe
