#include "buffer/buffer_pool.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "common/crc32.h"
#include "storage/node.h"

namespace phoebe {

BufferPool::BufferPool(const Options& options, PageFile* page_file)
    : page_file_(page_file),
      io_(static_cast<int>(options.io_threads)),
      low_watermark_(options.free_low_watermark) {
  uint32_t nparts = std::max<uint32_t>(1, options.partitions);
  size_t total_frames =
      std::max<size_t>(nparts * 8, options.buffer_bytes / kBytesPerFrame);
  frames_per_partition_ = total_frames / nparts;
  num_frames_ = frames_per_partition_ * nparts;

  // Anonymous private memory is page-aligned and reads as zero until first
  // written; MAP_NORESERVE keeps untouched pages out of the commit charge.
  void* region = mmap(nullptr, num_frames_ * kPageSize, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (region == MAP_FAILED) throw std::bad_alloc();
  pages_ = static_cast<char*>(region);
  frames_.reset(new BufferFrame[num_frames_]);

  parts_.reserve(nparts);
  for (uint32_t p = 0; p < nparts; ++p) {
    parts_.push_back(std::make_unique<Partition>());
    parts_.back()->free_list.reserve(frames_per_partition_);
  }
  for (size_t i = 0; i < num_frames_; ++i) {
    BufferFrame* bf = &frames_[i];
    bf->page = pages_ + i * kPageSize;
    bf->partition = static_cast<uint16_t>(i / frames_per_partition_);
    parts_[bf->partition]->free_list.push_back(bf);
  }
}

BufferPool::~BufferPool() { munmap(pages_, num_frames_ * kPageSize); }

BufferFrame* BufferPool::AllocateFrame(uint32_t partition) {
  uint32_t nparts = partitions();
  for (uint32_t attempt = 0; attempt < nparts; ++attempt) {
    Partition& part = *parts_[(partition + attempt) % nparts];
    std::lock_guard<std::mutex> lk(part.mu);
    if (!part.free_list.empty()) {
      BufferFrame* bf = part.free_list.back();
      part.free_list.pop_back();
      bf->ResetHeader();
      bf->state.store(FrameState::kHot, std::memory_order_release);
      stats_.allocations.fetch_add(1, std::memory_order_relaxed);
      return bf;
    }
  }
  stats_.alloc_failures.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void BufferPool::FreeFrame(BufferFrame* bf) {
  bf->state.store(FrameState::kFree, std::memory_order_release);
  Partition& part = *parts_[bf->partition];
  std::lock_guard<std::mutex> lk(part.mu);
  part.free_list.push_back(bf);
}

void BufferPool::StampPageCrc(char* page) { phoebe::StampPageCrc(page); }

Status BufferPool::VerifyPageCrc(const char* page, PageId id) {
  return phoebe::VerifyPageCrc(page, id);
}

Status BufferPool::LoadPageSync(PageId id, BufferFrame* bf) {
  stats_.loads.fetch_add(1, std::memory_order_relaxed);
  PHOEBE_RETURN_IF_ERROR(page_file_->ReadPage(id, bf->page));
  Status st = VerifyPageCrc(bf->page, id);
  if (st.IsCorruption()) {
    // A CRC mismatch may be in-flight corruption (bus/DRAM bit flip) rather
    // than bad media: re-read once before giving up. If the page is corrupt
    // on disk too, quarantine it so later readers fail fast instead of
    // re-validating a known-bad page forever.
    IoStats::Global().crc_rereads.fetch_add(1, std::memory_order_relaxed);
    PHOEBE_RETURN_IF_ERROR(page_file_->ReadPage(id, bf->page));
    st = VerifyPageCrc(bf->page, id);
    if (st.IsCorruption()) page_file_->QuarantinePage(id);
  }
  return st;
}

void BufferPool::LoadPageAsync(AsyncIoEngine::Request* req, PageFile* file,
                               PageId id, char* buf) {
  stats_.loads.fetch_add(1, std::memory_order_relaxed);
  req->op = AsyncIoEngine::Request::Op::kRead;
  req->file = file;
  req->page_id = id;
  req->buf = buf;
  io_.Submit(req);
}

Status BufferPool::WriteBack(BufferFrame* bf) {
  if (bf->page_id == kInvalidPageId) {
    bf->page_id = page_file_->AllocatePage();
  }
  StampPageCrc(bf->page);
  PHOEBE_RETURN_IF_ERROR(page_file_->WritePage(bf->page_id, bf->page));
  bf->dirty.store(false, std::memory_order_release);
  stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status BufferPool::WriteBackBatch(BufferFrame* const* frames, size_t n,
                                  Status* statuses) {
  if (n == 0) return Status::OK();
  if (n == 1) {
    statuses[0] = WriteBack(frames[0]);
    return statuses[0];
  }
  std::vector<AsyncIoEngine::Request> reqs(n);
  std::vector<AsyncIoEngine::Request*> ptrs(n);
  for (size_t i = 0; i < n; ++i) {
    BufferFrame* bf = frames[i];
    if (bf->page_id == kInvalidPageId) {
      bf->page_id = page_file_->AllocatePage();
    }
    reqs[i].op = AsyncIoEngine::Request::Op::kWrite;
    reqs[i].stamp_crc = true;  // stamped on the I/O thread
    reqs[i].file = page_file_;
    reqs[i].page_id = bf->page_id;
    reqs[i].buf = bf->page;
    ptrs[i] = &reqs[i];
  }
  io_.SubmitBatch(ptrs.data(), n);
  Status first = io_.WaitAll(ptrs.data(), n);
  for (size_t i = 0; i < n; ++i) {
    statuses[i] = reqs[i].result;
    if (reqs[i].result.ok()) {
      frames[i]->dirty.store(false, std::memory_order_release);
      stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return first;
}

void BufferPool::PushCooling(BufferFrame* bf) {
  bf->state.store(FrameState::kCooling, std::memory_order_release);
  Partition& part = *parts_[bf->partition];
  std::lock_guard<std::mutex> lk(part.mu);
  bf->in_cooling.store(true, std::memory_order_relaxed);
  part.cooling.push_back(bf);
  ++part.live_cooling;
}

BufferFrame* BufferPool::PopCooling(uint32_t partition) {
  Partition& part = *parts_[partition % partitions()];
  std::lock_guard<std::mutex> lk(part.mu);
  while (!part.cooling.empty()) {
    BufferFrame* bf = part.cooling.front();
    part.cooling.pop_front();
    // Lazily skip entries tombstoned by RemoveCooling.
    if (!bf->in_cooling.load(std::memory_order_relaxed)) continue;
    bf->in_cooling.store(false, std::memory_order_relaxed);
    --part.live_cooling;
    return bf;
  }
  return nullptr;
}

bool BufferPool::RemoveCooling(BufferFrame* bf) {
  Partition& part = *parts_[bf->partition];
  std::lock_guard<std::mutex> lk(part.mu);
  if (!bf->in_cooling.load(std::memory_order_relaxed)) return false;
  bf->in_cooling.store(false, std::memory_order_relaxed);
  --part.live_cooling;
  return true;
}

bool BufferPool::NeedsEviction(uint32_t partition) const {
  const Partition& part = *parts_[partition % partitions()];
  std::lock_guard<std::mutex> lk(part.mu);
  return part.free_list.size() <
         static_cast<size_t>(low_watermark_ *
                             static_cast<double>(frames_per_partition_));
}

size_t BufferPool::FreeFrames(uint32_t partition) const {
  const Partition& part = *parts_[partition % partitions()];
  std::lock_guard<std::mutex> lk(part.mu);
  return part.free_list.size();
}

size_t BufferPool::CoolingFrames(uint32_t partition) const {
  const Partition& part = *parts_[partition % partitions()];
  std::lock_guard<std::mutex> lk(part.mu);
  return part.live_cooling;
}

}  // namespace phoebe
