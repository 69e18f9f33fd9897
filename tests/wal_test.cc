#include <gtest/gtest.h>

#include "common/random.h"
#include "tests/test_util.h"
#include "txn/txn_manager.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"

namespace phoebe {
namespace {

// --- Record codec --------------------------------------------------------------

TEST(WalRecordTest, EncodeDecodeRoundTrip) {
  std::string buf;
  WalRecordCodec::Encode(WalRecordType::kInsert, 7, 99, MakeXid(3),
                         "payload-bytes", &buf);
  WalRecordCodec::Encode(WalRecordType::kCommit, 8, 100, MakeXid(3),
                         WalRecordCodec::CommitPayload(555), &buf);
  Slice in(buf);
  WalRecord rec;
  ASSERT_OK(WalRecordCodec::DecodeNext(&in, 2, &rec));
  EXPECT_EQ(rec.type, WalRecordType::kInsert);
  EXPECT_EQ(rec.lsn, 7u);
  EXPECT_EQ(rec.gsn, 99u);
  EXPECT_EQ(rec.xid, MakeXid(3));
  EXPECT_EQ(rec.payload, "payload-bytes");
  EXPECT_EQ(rec.writer_id, 2u);
  ASSERT_OK(WalRecordCodec::DecodeNext(&in, 2, &rec));
  EXPECT_EQ(rec.type, WalRecordType::kCommit);
  Timestamp cts = 0;
  ASSERT_OK(WalRecordCodec::ParseCommitPayload(rec.payload, &cts));
  EXPECT_EQ(cts, 555u);
  EXPECT_TRUE(WalRecordCodec::DecodeNext(&in, 2, &rec).IsNotFound());
}

TEST(WalRecordTest, TornTailDetected) {
  std::string buf;
  WalRecordCodec::Encode(WalRecordType::kInsert, 1, 1, 1, "abc", &buf);
  Slice torn(buf.data(), buf.size() - 2);
  WalRecord rec;
  EXPECT_TRUE(WalRecordCodec::DecodeNext(&torn, 0, &rec).IsCorruption());
  // Bit flip in the body.
  std::string bad = buf;
  bad[WalRecordCodec::kFrameHeader + 5] ^= 1;
  Slice flipped(bad);
  EXPECT_TRUE(WalRecordCodec::DecodeNext(&flipped, 0, &rec).IsCorruption());
}

TEST(WalRecordTest, DataPayloadRoundTrip) {
  std::string p = DataPayload(12, 3456, "row-bytes");
  RelationId rel = 0;
  RowId rid = 0;
  Slice body;
  ASSERT_OK(WalRecordCodec::ParseDataPayload(p, &rel, &rid, &body));
  EXPECT_EQ(rel, 12u);
  EXPECT_EQ(rid, 3456u);
  EXPECT_EQ(body, Slice("row-bytes"));
}

// --- WalManager ------------------------------------------------------------------

class WalManagerTest : public ::testing::Test {
 protected:
  void Open(uint32_t writers = 4, bool rfa = true) {
    dir_ = std::make_unique<TestDir>("wal");
    WalManager::Options opts;
    opts.dir = dir_->path();
    opts.num_writers = writers;
    opts.sync_on_flush = false;  // tmpfs-friendly
    opts.enable_rfa = rfa;
    opts.flush_interval_us = 50;
    auto mgr = WalManager::Open(Env::Default(), opts);
    ASSERT_OK_R(mgr);
    wal_ = std::move(mgr.value());
  }

  Transaction* MakeTxn(uint32_t slot) {
    if (!tm_) tm_ = std::make_unique<TxnManager>(8, &clock_);
    return tm_->Begin(slot, IsolationLevel::kReadCommitted);
  }

  std::unique_ptr<TestDir> dir_;
  GlobalClock clock_;
  std::unique_ptr<TxnManager> tm_;
  std::unique_ptr<WalManager> wal_;
};

TEST_F(WalManagerTest, CommitBecomesDurable) {
  Open();
  Transaction* txn = MakeTxn(0);
  BufferFrame frame;
  uint64_t gsn = wal_->OnPageWrite(txn, &frame);
  wal_->LogData(txn, WalRecordType::kInsert, gsn,
                DataPayload(1, 1, "row"));
  wal_->LogCommit(txn, 123);
  wal_->WaitCommitDurable(txn);
  EXPECT_TRUE(wal_->CommitDurable(txn));
  EXPECT_GE(wal_->WriterFor(0).flushed_lsn(), txn->last_lsn);
}

TEST_F(WalManagerTest, RfaLocalOnlyCommit) {
  Open();
  Transaction* txn = MakeTxn(0);
  BufferFrame frame;  // untouched page: no prior writer
  wal_->OnPageWrite(txn, &frame);
  EXPECT_FALSE(txn->remote_dependency);

  // A second slot touching the same page before the first writer flushed
  // picks up a remote dependency.
  Transaction* txn2 = MakeTxn(1);
  wal_->OnPageRead(txn2, &frame);
  EXPECT_TRUE(txn2->remote_dependency);
}

TEST_F(WalManagerTest, RfaSkipsDurableRemoteWrites) {
  Open();
  Transaction* txn = MakeTxn(0);
  BufferFrame frame;
  uint64_t gsn = wal_->OnPageWrite(txn, &frame);
  wal_->LogData(txn, WalRecordType::kInsert, gsn,
                DataPayload(1, 1, "row"));
  wal_->LogCommit(txn, 5);
  wal_->WaitCommitDurable(txn);

  // Writer 0's log is durable past the page GSN: no remote dependency.
  Transaction* txn2 = MakeTxn(1);
  wal_->OnPageRead(txn2, &frame);
  EXPECT_FALSE(txn2->remote_dependency);
}

TEST_F(WalManagerTest, NoRfaAlwaysRemote) {
  Open(4, /*rfa=*/false);
  Transaction* txn = MakeTxn(0);
  BufferFrame frame;
  wal_->OnPageWrite(txn, &frame);
  EXPECT_TRUE(txn->remote_dependency);
}

TEST_F(WalManagerTest, GsnMonotonePerPage) {
  Open();
  BufferFrame frame;
  Transaction* a = MakeTxn(0);
  Transaction* b = MakeTxn(1);
  uint64_t g1 = wal_->OnPageWrite(a, &frame);
  uint64_t g2 = wal_->OnPageWrite(b, &frame);
  uint64_t g3 = wal_->OnPageWrite(a, &frame);
  EXPECT_LT(g1, g2);
  EXPECT_LT(g2, g3);
}

// --- Recovery scan ------------------------------------------------------------------

TEST_F(WalManagerTest, RecoveryScanOrdersByGsnAndFiltersUncommitted) {
  Open(2);
  BufferFrame page_a, page_b;

  // txn1 on writer 0: commits.
  Transaction* t1 = MakeTxn(0);
  uint64_t g1 = wal_->OnPageWrite(t1, &page_a);
  wal_->LogData(t1, WalRecordType::kInsert, g1,
                DataPayload(1, 1, "r1"));
  // txn2 on writer 1: touches the same page (higher GSN), commits.
  Transaction* t2 = MakeTxn(1);
  uint64_t g2 = wal_->OnPageWrite(t2, &page_a);
  wal_->LogData(t2, WalRecordType::kUpdate, g2,
                DataPayload(1, 1, "r1v2"));
  // txn3 on writer 0: never commits.
  Transaction* t3 = MakeTxn(2);
  uint64_t g3 = wal_->OnPageWrite(t3, &page_b);
  wal_->LogData(t3, WalRecordType::kInsert, g3,
                DataPayload(1, 2, "r2"));

  wal_->LogCommit(t1, 100);
  wal_->LogCommit(t2, 101);
  wal_->WaitCommitDurable(t1);
  wal_->WaitCommitDurable(t2);
  // Flush everything pending (including t3's data record).
  while (wal_->WriterFor(0).HasPending() || wal_->WriterFor(1).HasPending()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto scan = WalRecovery::Scan(Env::Default(), dir_->path());
  ASSERT_OK_R(scan);
  const auto& result = scan.value();
  EXPECT_EQ(result.commits.size(), 2u);
  EXPECT_EQ(result.skipped_uncommitted, 1u);
  ASSERT_EQ(result.records.size(), 2u);
  // GSN order: t1's insert before t2's update.
  EXPECT_EQ(result.records[0].xid, t1->xid());
  EXPECT_EQ(result.records[1].xid, t2->xid());
  EXPECT_LT(result.records[0].gsn, result.records[1].gsn);

  uint64_t replayed = 0;
  ASSERT_OK(WalRecovery::Replay(result,
                                [&replayed](const WalRecord&, Timestamp cts) {
                                  EXPECT_GT(cts, 0u);
                                  ++replayed;
                                  return Status::OK();
                                }));
  EXPECT_EQ(replayed, 2u);
}

TEST_F(WalManagerTest, TruncateAllResets) {
  Open(2);
  Transaction* t1 = MakeTxn(0);
  BufferFrame frame;
  uint64_t g = wal_->OnPageWrite(t1, &frame);
  wal_->LogData(t1, WalRecordType::kInsert, g,
                DataPayload(1, 1, "r"));
  wal_->LogCommit(t1, 9);
  wal_->WaitCommitDurable(t1);
  ASSERT_OK(wal_->TruncateAll());
  auto scan = WalRecovery::Scan(Env::Default(), dir_->path());
  ASSERT_OK_R(scan);
  EXPECT_TRUE(scan.value().records.empty());
  EXPECT_TRUE(scan.value().commits.empty());
}

TEST_F(WalManagerTest, ScanToleratesTornTail) {
  Open(1);
  Transaction* t1 = MakeTxn(0);
  BufferFrame frame;
  uint64_t g = wal_->OnPageWrite(t1, &frame);
  wal_->LogData(t1, WalRecordType::kInsert, g,
                DataPayload(1, 1, "good"));
  wal_->LogCommit(t1, 7);
  wal_->WaitCommitDurable(t1);
  wal_.reset();  // close manager (drains)

  // Append garbage to simulate a torn write at crash time.
  std::unique_ptr<File> f;
  Env::OpenOptions fo;
  ASSERT_OK(Env::Default()->OpenFile(dir_->path() + "/wal_0.log", fo, &f));
  ASSERT_OK(f->Append("torn-garbage-bytes"));

  auto scan = WalRecovery::Scan(Env::Default(), dir_->path());
  ASSERT_OK_R(scan);
  EXPECT_EQ(scan.value().records.size(), 1u);
  EXPECT_EQ(scan.value().commits.size(), 1u);
}

// --- Fuzz/property: the decoder must reject garbage without crashing -------

class WalFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(WalFuzzTest, RandomBytesNeverCrashDecoder) {
  Random rng(GetParam() * 104729 + 7);
  for (int iter = 0; iter < 500; ++iter) {
    std::string junk(rng.Uniform(200), '\0');
    for (auto& c : junk) c = static_cast<char>(rng.Next());
    Slice in(junk);
    WalRecord rec;
    // Either clean end, corruption, or (astronomically unlikely) a valid
    // frame; never a crash or an infinite loop.
    for (int guard = 0; guard < 64; ++guard) {
      Status st = WalRecordCodec::DecodeNext(&in, 0, &rec);
      if (!st.ok()) break;
    }
  }
}

TEST_P(WalFuzzTest, TruncationAtEveryPointDetected) {
  Random rng(GetParam() * 31 + 5);
  std::string buf;
  WalRecordCodec::Encode(WalRecordType::kUpdate, 3, 44, MakeXid(9),
                         "some-payload-bytes", &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Slice in(buf.data(), cut);
    WalRecord rec;
    Status st = WalRecordCodec::DecodeNext(&in, 0, &rec);
    if (cut == 0) {
      EXPECT_TRUE(st.IsNotFound());
    } else {
      EXPECT_TRUE(st.IsCorruption()) << "cut=" << cut;
    }
  }
  // Single-bit flips anywhere are caught.
  for (int iter = 0; iter < 64; ++iter) {
    std::string bad = buf;
    size_t pos = rng.Uniform(bad.size());
    bad[pos] ^= static_cast<char>(1u << rng.Uniform(8));
    Slice in(bad);
    WalRecord rec;
    Status st = WalRecordCodec::DecodeNext(&in, 0, &rec);
    // A flip in the length field may shrink the frame to a smaller,
    // crc-mismatching one; either way it must not decode as valid with the
    // original content.
    if (st.ok()) {
      EXPECT_FALSE(rec.lsn == 3 && rec.gsn == 44 &&
                   rec.payload == "some-payload-bytes");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalFuzzTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace phoebe
