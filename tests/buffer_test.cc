#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>

#include "buffer/buffer_pool.h"
#include "buffer/swip.h"
#include "common/coding.h"
#include "storage/node.h"
#include "storage/btree.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

// --- Swip ------------------------------------------------------------------------

TEST(SwipTest, StateTransitions) {
  alignas(64) BufferFrame frame;
  Swip swip;
  EXPECT_TRUE(swip.IsEvicted());
  EXPECT_EQ(swip.page_id(), kInvalidPageId);

  swip.SetHot(&frame);
  EXPECT_TRUE(swip.IsHot());
  EXPECT_EQ(swip.frame(), &frame);

  swip.SetCooling(&frame);
  EXPECT_TRUE(swip.IsCooling());
  EXPECT_EQ(swip.frame(), &frame);

  swip.SetEvicted(42);
  EXPECT_TRUE(swip.IsEvicted());
  EXPECT_EQ(swip.page_id(), 42u);
}

TEST(SwipTest, CasRacesResolveOneWinner) {
  alignas(64) BufferFrame frame;
  Swip swip;
  swip.SetCooling(&frame);
  uint64_t cooling = Swip::CoolingWord(&frame);
  // Touch wins.
  EXPECT_TRUE(swip.CasRaw(cooling, Swip::HotWord(&frame)));
  // Evictor's CAS (still expecting cooling) must now fail.
  EXPECT_FALSE(swip.CasRaw(cooling, Swip::EvictedWord(7)));
  EXPECT_TRUE(swip.IsHot());
}

// --- BufferPool ---------------------------------------------------------------------

class BufferPoolTest : public ::testing::Test {
 protected:
  void Open(uint64_t bytes, uint32_t partitions = 1) {
    dir_ = std::make_unique<TestDir>("buffer");
    auto pf = PageFile::Open(Env::Default(), dir_->path() + "/data.pages");
    ASSERT_OK_R(pf);
    page_file_ = std::move(pf.value());
    BufferPool::Options opts;
    opts.buffer_bytes = bytes;
    opts.partitions = partitions;
    pool_ = std::make_unique<BufferPool>(opts, page_file_.get());
  }

  std::unique_ptr<TestDir> dir_;
  std::unique_ptr<PageFile> page_file_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(BufferPoolTest, AllocateAndFree) {
  Open(4ull << 20);
  size_t free_before = pool_->FreeFrames(0);
  BufferFrame* bf = pool_->AllocateFrame(0);
  ASSERT_NE(bf, nullptr);
  EXPECT_EQ(bf->state.load(), FrameState::kHot);
  EXPECT_EQ(pool_->FreeFrames(0), free_before - 1);
  pool_->FreeFrame(bf);
  EXPECT_EQ(pool_->FreeFrames(0), free_before);
}

size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

// The page region is committed by the OS on first touch: constructing a
// pool costs its descriptors, not `buffer_bytes`. Pages are 4 KiB-aligned,
// disjoint, zero, and as many as a frame of descriptor + page allows.
TEST_F(BufferPoolTest, PageRegionIsCommittedLazily) {
  constexpr uint64_t kBytes = 256ull << 20;
  const size_t before = ResidentBytes();
  Open(kBytes);
  const size_t after = ResidentBytes();
  EXPECT_LT(after, before + (16ull << 20));

  EXPECT_EQ(pool_->frames_per_partition() * pool_->partitions(),
            kBytes / 16512);
  std::vector<uintptr_t> pages;
  pool_->ForEachFrame([&](BufferFrame* bf) {
    pages.push_back(reinterpret_cast<uintptr_t>(bf->page));
  });
  ASSERT_EQ(pages.size(), kBytes / 16512);
  std::sort(pages.begin(), pages.end());
  for (size_t i = 0; i < pages.size(); ++i) {
    ASSERT_EQ(pages[i] % 4096, 0u) << i;
    if (i > 0) ASSERT_GE(pages[i] - pages[i - 1], kPageSize) << i;
  }

  BufferFrame* bf = pool_->AllocateFrame(0);
  ASSERT_NE(bf, nullptr);
  EXPECT_EQ(bf->page[0], 0);
  EXPECT_EQ(bf->page[kPageSize - 1], 0);
}

TEST_F(BufferPoolTest, ExhaustionReturnsNull) {
  Open(1ull << 20);  // tiny pool
  std::vector<BufferFrame*> frames;
  for (;;) {
    BufferFrame* bf = pool_->AllocateFrame(0);
    if (bf == nullptr) break;
    frames.push_back(bf);
  }
  EXPECT_GT(frames.size(), 8u);
  EXPECT_GT(pool_->stats().alloc_failures.load(), 0u);
  for (auto* bf : frames) pool_->FreeFrame(bf);
}

TEST_F(BufferPoolTest, CrossPartitionFallback) {
  Open(4ull << 20, /*partitions=*/2);
  // Exhaust partition 0; allocation falls back to partition 1.
  std::vector<BufferFrame*> frames;
  size_t per_part = pool_->frames_per_partition();
  for (size_t i = 0; i < per_part; ++i) {
    BufferFrame* bf = pool_->AllocateFrame(0);
    ASSERT_NE(bf, nullptr);
    frames.push_back(bf);
  }
  BufferFrame* extra = pool_->AllocateFrame(0);
  ASSERT_NE(extra, nullptr);
  EXPECT_EQ(extra->partition, 1);
  pool_->FreeFrame(extra);
  for (auto* bf : frames) pool_->FreeFrame(bf);
}

TEST_F(BufferPoolTest, WriteBackAndReload) {
  Open(4ull << 20);
  BufferFrame* bf = pool_->AllocateFrame(0);
  ASSERT_NE(bf, nullptr);
  memset(bf->page, 0xAB, kPageSize);
  bf->dirty.store(true);
  ASSERT_OK(pool_->WriteBack(bf));
  EXPECT_FALSE(bf->dirty.load());
  PageId pid = bf->page_id;
  ASSERT_NE(pid, kInvalidPageId);
  pool_->FreeFrame(bf);

  BufferFrame* bf2 = pool_->AllocateFrame(0);
  ASSERT_OK(pool_->LoadPageSync(pid, bf2));
  EXPECT_EQ(static_cast<uint8_t>(bf2->page[100]), 0xAB);
  pool_->FreeFrame(bf2);
}

TEST_F(BufferPoolTest, BatchedWriteBackStampsCrcAndReloads) {
  Open(4ull << 20);
  constexpr size_t kN = 6;
  BufferFrame* frames[kN];
  for (size_t i = 0; i < kN; ++i) {
    frames[i] = pool_->AllocateFrame(0);
    ASSERT_NE(frames[i], nullptr);
    memset(frames[i]->page, static_cast<int>(0x10 + i), kPageSize);
    frames[i]->dirty.store(true);
  }
  // One async batch: page ids are allocated, CRCs stamped on the I/O
  // threads, dirty bits cleared per frame.
  Status statuses[kN];
  ASSERT_OK(pool_->WriteBackBatch(frames, kN, statuses));
  PageId pids[kN];
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_OK(statuses[i]);
    EXPECT_FALSE(frames[i]->dirty.load());
    pids[i] = frames[i]->page_id;
    ASSERT_NE(pids[i], kInvalidPageId);
    pool_->FreeFrame(frames[i]);
  }
  // Every page reloads with a valid CRC and the right bytes.
  for (size_t i = 0; i < kN; ++i) {
    BufferFrame* bf = pool_->AllocateFrame(0);
    ASSERT_OK(pool_->LoadPageSync(pids[i], bf));
    EXPECT_EQ(static_cast<uint8_t>(bf->page[1234]), 0x10 + i);
    pool_->FreeFrame(bf);
  }
}

TEST_F(BufferPoolTest, CoolingFifo) {
  Open(4ull << 20);
  BufferFrame* a = pool_->AllocateFrame(0);
  BufferFrame* b = pool_->AllocateFrame(0);
  pool_->PushCooling(a);
  pool_->PushCooling(b);
  EXPECT_EQ(pool_->CoolingFrames(0), 2u);
  EXPECT_EQ(pool_->PopCooling(0), a);  // FIFO order
  EXPECT_TRUE(pool_->RemoveCooling(b));
  EXPECT_FALSE(pool_->RemoveCooling(b));
  EXPECT_EQ(pool_->PopCooling(0), nullptr);
  pool_->FreeFrame(a);
  pool_->FreeFrame(b);
}

// --- Eviction through the B-Tree (temperature exchange, hot <-> cold) -----------

TEST(EvictionTest, TreeLargerThanPoolStillServesLookups) {
  TestDir dir("evict");
  auto pf = PageFile::Open(Env::Default(), dir.path() + "/data.pages");
  ASSERT_OK_R(pf);
  BufferPool::Options opts;
  opts.buffer_bytes = 2ull << 20;  // ~120 frames of 16KiB
  BufferPool pool(opts, pf.value().get());
  BTreeRegistry registry(&pool);
  auto tree = BTree::Create(&pool, &registry, BTree::TreeKind::kIndex,
                            nullptr, nullptr);
  ASSERT_OK_R(tree);
  OpContext ctx;
  ctx.synchronous = true;

  // Insert far more data than fits in the pool: values padded via long keys.
  constexpr uint64_t kN = 30000;
  auto key = [](uint64_t i) {
    std::string k(8, '\0');
    EncodeBigEndian64(k.data(), i);
    return k + std::string(48, 'p');
  };
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_OK(tree.value()->IndexInsert(&ctx, key(i), i));
    if (i % 512 == 0) {
      ASSERT_OK(registry.EnsureFreeFrames(&ctx, 0));
    }
  }
  EXPECT_GT(pool.stats().evictions.load(), 0u) << "expected page-outs";

  // Every key is still reachable (cold pages reload transparently).
  Random rng(5);
  for (int probe = 0; probe < 3000; ++probe) {
    uint64_t i = rng.Uniform(kN);
    uint64_t v = 0;
    ASSERT_OK(tree.value()->IndexLookup(&ctx, key(i), &v));
    ASSERT_EQ(v, i);
  }
  EXPECT_GT(pool.stats().loads.load(), 0u) << "expected page reloads";
}

TEST(PageCrcTest, StampAndVerifyRoundTrip) {
  std::vector<char> page(kPageSize, 'x');
  page[0] = static_cast<char>(NodeKind::kIndexLeaf);
  BufferPool::StampPageCrc(page.data());
  ASSERT_OK(BufferPool::VerifyPageCrc(page.data(), 7));
  page[9000] ^= 0x10;
  EXPECT_TRUE(BufferPool::VerifyPageCrc(page.data(), 7).IsCorruption());
  page[9000] ^= 0x10;
  ASSERT_OK(BufferPool::VerifyPageCrc(page.data(), 7));
  // Header corruption (outside the crc word) is caught too.
  page[1] ^= 1;
  EXPECT_TRUE(BufferPool::VerifyPageCrc(page.data(), 7).IsCorruption());
}

TEST(PageCrcTest, OnDiskCorruptionSurfacesOnLoad) {
  TestDir dir("page_crc");
  auto pf = PageFile::Open(Env::Default(), dir.path() + "/d.pages");
  ASSERT_OK_R(pf);
  BufferPool::Options opts;
  opts.buffer_bytes = 4ull << 20;
  BufferPool pool(opts, pf.value().get());

  BufferFrame* bf = pool.AllocateFrame(0);
  ASSERT_NE(bf, nullptr);
  memset(bf->page, 0, kPageSize);
  bf->page[0] = static_cast<char>(NodeKind::kIndexLeaf);
  memset(bf->page + 100, 0x5A, 1000);
  bf->dirty.store(true);
  ASSERT_OK(pool.WriteBack(bf));
  PageId pid = bf->page_id;
  pool.FreeFrame(bf);

  // Loads verify: intact page passes...
  BufferFrame* bf2 = pool.AllocateFrame(0);
  ASSERT_OK(pool.LoadPageSync(pid, bf2));
  pool.FreeFrame(bf2);

  // ...then flip one on-disk byte and the load reports corruption.
  {
    std::unique_ptr<File> f;
    Env::OpenOptions fo;
    ASSERT_OK(Env::Default()->OpenFile(dir.path() + "/d.pages", fo, &f));
    char b;
    size_t got;
    ASSERT_OK(f->Read(pid * kPageSize + 500, 1, &b, &got));
    b ^= 0x01;
    ASSERT_OK(f->Write(pid * kPageSize + 500, Slice(&b, 1)));
  }
  BufferFrame* bf3 = pool.AllocateFrame(0);
  EXPECT_TRUE(pool.LoadPageSync(pid, bf3).IsCorruption());
  pool.FreeFrame(bf3);
}

TEST(EvictionTest, SecondChanceRescuesCoolingPages) {
  TestDir dir("second_chance");
  auto pf = PageFile::Open(Env::Default(), dir.path() + "/data.pages");
  ASSERT_OK_R(pf);
  BufferPool::Options opts;
  opts.buffer_bytes = 8ull << 20;
  BufferPool pool(opts, pf.value().get());
  BTreeRegistry registry(&pool);
  auto tree = BTree::Create(&pool, &registry, BTree::TreeKind::kIndex,
                            nullptr, nullptr);
  ASSERT_OK_R(tree);
  OpContext ctx;
  ctx.synchronous = true;
  for (uint64_t i = 0; i < 5000; ++i) {
    std::string k(8, '\0');
    EncodeBigEndian64(k.data(), i);
    ASSERT_OK(tree.value()->IndexInsert(&ctx, k, i));
  }
  // Stage frames for eviction, then touch them via lookups before evicting.
  int cooled = registry.CoolRandomFrames(&ctx, 0, 8);
  ASSERT_GT(cooled, 0);
  for (uint64_t i = 0; i < 5000; ++i) {
    std::string k(8, '\0');
    EncodeBigEndian64(k.data(), i);
    uint64_t v;
    ASSERT_OK(tree.value()->IndexLookup(&ctx, k, &v));
  }
  // All touched pages were rescued (popped cooling entries are re-hot).
  int evicted = 0;
  while (registry.EvictCoolingBatch(&ctx, 0, 1) > 0) ++evicted;
  EXPECT_GE(cooled, evicted);
}

}  // namespace
}  // namespace phoebe
