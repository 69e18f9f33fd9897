#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "tests/test_util.h"
#include "txn/txn_manager.h"
#include "wal/wal_manager.h"

namespace phoebe {
namespace {

// Reads a writer's log file and decodes every block. Fails the test when the
// file is missing, unreadable or read short, and on a torn or corrupt block.
std::vector<WalRecord> DecodeWalFile(const std::string& path,
                                     uint32_t writer_id) {
  std::vector<WalRecord> out;
  std::string raw;
  Status st = ReadWholeFile(path, &raw);
  EXPECT_OK(st);
  if (!st.ok()) return out;
  EXPECT_OK(DecodeWalBlocks(raw, writer_id, &out));
  return out;
}

class WalPipelineStressTest : public ::testing::Test {
 protected:
  void Open(uint32_t writers, uint32_t flushers, size_t buffer_bytes,
            uint32_t flush_interval_us = 50) {
    dir_ = std::make_unique<TestDir>("wal_pipeline");
    WalManager::Options opts;
    opts.dir = dir_->path();
    opts.num_writers = writers;
    opts.flusher_threads = flushers;
    opts.sync_on_flush = false;  // tmpfs-friendly
    opts.flush_interval_us = flush_interval_us;
    opts.writer_buffer_bytes = buffer_bytes;
    auto mgr = WalManager::Open(Env::Default(), opts);
    ASSERT_OK_R(mgr);
    wal_ = std::move(mgr.value());
  }

  std::string WalPath(uint32_t writer) const {
    return dir_->path() + "/wal_" + std::to_string(writer) + ".log";
  }

  std::unique_ptr<TestDir> dir_;
  std::unique_ptr<WalManager> wal_;
};

// Many appenders race the group flushers on small buffers. Every record the
// appenders produced must land on disk exactly once, in per-writer LSN order
// (the flushed log is always a prefix of the appended log), and commit waits
// must only return once the writer's durable horizon covers them.
TEST_F(WalPipelineStressTest, ConcurrentAppendersFlushersPrefixDurability) {
  constexpr uint32_t kWriters = 8;
  constexpr uint64_t kPerWriter = 4000;
  // Small buffers force frequent seal/drain cycles and inline flushes.
  Open(kWriters, /*flushers=*/2, /*buffer_bytes=*/4096);

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (uint32_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      WalWriter& writer = wal_->WriterFor(w);
      Random rng(w * 7919 + 1);
      std::string payload;
      uint64_t prev_lsn = 0;
      for (uint64_t i = 1; i <= kPerWriter; ++i) {
        size_t len = 16 + rng.Uniform(240);
        if (i % 1024 == 0) len = 8192;  // oversize: larger than the buffer
        payload.assign(len, static_cast<char>('a' + (i % 26)));
        bool is_commit = (i % 64 == 0);
        uint64_t lsn = writer.Append(
            is_commit ? WalRecordType::kCommit : WalRecordType::kInsert,
            /*xid=*/w + 1, /*gsn=*/i, payload);
        if (lsn != prev_lsn + 1) failed.store(true);
        prev_lsn = lsn;
        if (is_commit) {
          writer.WaitDurable(lsn);
          if (writer.flushed_lsn() < lsn) failed.store(true);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load()) << "LSN gap or premature durable wakeup";

  uint64_t appends = wal_->pipeline_stats().appends.load();
  EXPECT_EQ(appends, kWriters * kPerWriter);
  EXPECT_GT(wal_->pipeline_stats().oversize_appends.load(), 0u);
  EXPECT_GT(wal_->pipeline_stats().commit_kicks.load(), 0u);

  wal_.reset();  // final drain

  for (uint32_t w = 0; w < kWriters; ++w) {
    std::vector<WalRecord> recs = DecodeWalFile(WalPath(w), w);
    ASSERT_EQ(recs.size(), kPerWriter) << "writer " << w;
    for (uint64_t i = 0; i < recs.size(); ++i) {
      ASSERT_EQ(recs[i].lsn, i + 1) << "writer " << w << " out of order";
      ASSERT_EQ(recs[i].gsn, i + 1);
    }
  }
}

// Baseline single-writer mode: several slots append to one writer at once,
// so xids interleave inside a block and gsns arrive out of order. Every
// record must decode with its own xid, gsn and payload.
TEST_F(WalPipelineStressTest, SharedWriterConcurrentAppenders) {
  constexpr uint32_t kThreads = 4;
  constexpr uint64_t kPerThread = 3000;
  Open(/*writers=*/1, /*flushers=*/1, /*buffer_bytes=*/4096);
  WalWriter& writer = wal_->WriterFor(0);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(t * 31 + 5);
      for (uint64_t i = 1; i <= kPerThread; ++i) {
        // Each thread's gsns rise, but a thread that lags hands the shared
        // buffer gsns below those of the others.
        uint64_t gsn = i * 8 + t * 3 + rng.Uniform(3);
        std::string payload = std::to_string(t) + ":" + std::to_string(i) +
                              std::string(rng.Uniform(300), 'p');
        if (i % 1000 == 0) payload.resize(6000, 'o');  // oversize
        writer.Append(i % 50 == 0 ? WalRecordType::kCommit
                                  : WalRecordType::kInsert,
                      MakeXid(t + 1), gsn, payload);
      }
    });
  }
  for (auto& th : threads) th.join();
  wal_.reset();  // final drain

  std::vector<WalRecord> recs = DecodeWalFile(WalPath(0), 0);
  ASSERT_EQ(recs.size(), kThreads * kPerThread);
  std::vector<uint64_t> next(kThreads, 1);
  bool out_of_order_gsn = false;
  for (size_t n = 0; n < recs.size(); ++n) {
    const WalRecord& rec = recs[n];
    ASSERT_EQ(rec.lsn, n + 1);
    uint32_t t = static_cast<uint32_t>(XidStartTs(rec.xid)) - 1;
    ASSERT_LT(t, kThreads);
    uint64_t i = next[t]++;
    // A thread's records keep their order: its appends are sequential.
    ASSERT_EQ(rec.payload.substr(0, rec.payload.find_first_of("po")),
              std::to_string(t) + ":" + std::to_string(i));
    ASSERT_GE(rec.gsn, i * 8 + t * 3);
    ASSERT_LT(rec.gsn, i * 8 + t * 3 + 3);
    if (n > 0 && rec.gsn < recs[n - 1].gsn) out_of_order_gsn = true;
  }
  EXPECT_TRUE(out_of_order_gsn) << "no gsn below its predecessor was logged";
}

// A commit wait may only return after the commit record's bytes are in the
// file (durability is not just a counter update).
TEST_F(WalPipelineStressTest, CommitWaitImpliesBytesOnDisk) {
  Open(/*writers=*/2, /*flushers=*/1, /*buffer_bytes=*/64 << 10);
  WalWriter& writer = wal_->WriterFor(0);
  for (int i = 1; i <= 50; ++i) {
    writer.Append(WalRecordType::kInsert, 1, i, "row-bytes");
    uint64_t commit_lsn = writer.Append(WalRecordType::kCommit, 1, i,
                                        WalRecordCodec::CommitPayload(i));
    writer.WaitDurable(commit_lsn);
    std::vector<WalRecord> recs = DecodeWalFile(WalPath(0), 0);
    ASSERT_FALSE(recs.empty());
    EXPECT_GE(recs.back().lsn, commit_lsn)
        << "woken before the commit record reached the file";
  }
}

// Regression for the TruncateAndReset race: truncation must take both the
// flush lock and the buffer lock, or a concurrent flusher can interleave a
// drain with the reset and corrupt the file/counters. Hammers TruncateAll
// against concurrent appends + background flushes.
TEST_F(WalPipelineStressTest, TruncateRacesConcurrentFlushes) {
  constexpr uint32_t kWriters = 2;
  Open(kWriters, /*flushers=*/2, /*buffer_bytes=*/4096,
       /*flush_interval_us=*/20);

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (uint32_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      WalWriter& writer = wal_->WriterFor(w);
      Random rng(w + 13);
      std::string payload;
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ++i;
        payload.assign(16 + rng.Uniform(200),
                       static_cast<char>('A' + (i % 26)));
        bool is_commit = (i % 128 == 0);
        uint64_t lsn = writer.Append(
            is_commit ? WalRecordType::kCommit : WalRecordType::kInsert,
            w + 1, i, payload);
        if (is_commit) writer.WaitDurable(lsn);
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    ASSERT_OK(wal_->TruncateAll());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true);
  for (auto& t : threads) t.join();

  // Post-truncation appends still flush, and counters stay consistent.
  for (uint32_t w = 0; w < kWriters; ++w) {
    WalWriter& writer = wal_->WriterFor(w);
    uint64_t lsn = writer.Append(WalRecordType::kCommit, 99, 1u << 20,
                                 WalRecordCodec::CommitPayload(7));
    writer.WaitDurable(lsn);
    EXPECT_GE(writer.flushed_lsn(), lsn);
  }
  wal_.reset();

  // Whatever survived the last truncation decodes cleanly: no torn frames,
  // strictly increasing LSNs.
  for (uint32_t w = 0; w < kWriters; ++w) {
    std::vector<WalRecord> recs = DecodeWalFile(WalPath(w), w);
    uint64_t prev = 0;
    for (const WalRecord& rec : recs) {
      ASSERT_GT(rec.lsn, prev) << "writer " << w;
      prev = rec.lsn;
    }
  }
}

// Remote-dependency commits park on the manager-level wait list and must be
// woken by whichever flush satisfies the global-GSN condition.
TEST_F(WalPipelineStressTest, RemoteDependencyCommitWakes) {
  Open(/*writers=*/4, /*flushers=*/1, /*buffer_bytes=*/64 << 10);
  GlobalClock clock;
  TxnManager tm(8, &clock);

  BufferFrame frame;
  Transaction* txn1 = tm.Begin(0, IsolationLevel::kReadCommitted);
  uint64_t gsn = wal_->OnPageWrite(txn1, &frame);
  wal_->LogData(txn1, WalRecordType::kInsert, gsn,
                DataPayload(1, 1, "row"));

  // Slot 1 reads the page slot 0 just stamped -> remote dependency, unless
  // the background flusher already made the remote write durable, in which
  // case RFA correctly skips the dependency.
  Transaction* txn2 = tm.Begin(1, IsolationLevel::kReadCommitted);
  wal_->OnPageRead(txn2, &frame);
  ASSERT_TRUE(txn2->remote_dependency ||
              wal_->WriterFor(0).flushed_lsn() >= txn1->last_lsn);
  uint64_t gsn2 = wal_->OnPageWrite(txn2, &frame);
  wal_->LogData(txn2, WalRecordType::kInsert, gsn2,
                DataPayload(1, 2, "row2"));
  wal_->LogCommit(txn2, 100);

  // The background flusher must drain BOTH writers before the wait returns.
  wal_->WaitCommitDurable(txn2);
  EXPECT_TRUE(wal_->CommitDurable(txn2));
  EXPECT_GE(wal_->WriterFor(1).flushed_lsn(), txn2->last_lsn);
}

// Parallel commits across all writers: every WaitCommitDurable returns and
// observes its own writer's durable horizon past the commit LSN.
TEST_F(WalPipelineStressTest, ParallelCommitWaiters) {
  constexpr uint32_t kSlots = 8;
  Open(kSlots, /*flushers=*/2, /*buffer_bytes=*/8192);
  GlobalClock clock;
  TxnManager tm(kSlots, &clock);

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (uint32_t s = 0; s < kSlots; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < 300; ++i) {
        Transaction* txn = tm.Begin(s, IsolationLevel::kReadCommitted);
        BufferFrame frame;
        uint64_t gsn = wal_->OnPageWrite(txn, &frame);
        wal_->LogData(txn, WalRecordType::kInsert, gsn,
                      DataPayload(1, i, "payload"));
        wal_->LogCommit(txn, i + 1);
        wal_->WaitCommitDurable(txn);
        if (!wal_->CommitDurable(txn)) failed.store(true);
        tm.FinishTransaction(txn, /*committed=*/true);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace phoebe
