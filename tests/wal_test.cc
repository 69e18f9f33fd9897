#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/random.h"
#include "tests/test_util.h"
#include "txn/txn_manager.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"

namespace phoebe {
namespace {

// --- Block codec -----------------------------------------------------------------

// Decodes exactly one block from `bytes` and expects nothing after it.
std::vector<WalRecord> DecodeOneBlock(const std::string& bytes,
                                      uint32_t writer_id) {
  Slice in(bytes);
  std::vector<WalRecord> recs;
  EXPECT_OK(WalBlockCodec::DecodeBlock(&in, writer_id, &recs));
  EXPECT_TRUE(in.empty());
  return recs;
}

TEST(WalBlockTest, EncodeDecodeRoundTrip) {
  std::string buf;
  WalBlockBuilder block(7, &buf);
  block.Add(WalRecordType::kInsert, 99, MakeXid(3), "payload-bytes");
  block.Add(WalRecordType::kCommit, 100, MakeXid(3),
            WalRecordCodec::CommitPayload(555));
  block.Finish();
  Slice in(buf);
  std::vector<WalRecord> recs;
  ASSERT_OK(WalBlockCodec::DecodeBlock(&in, 2, &recs));
  ASSERT_EQ(recs.size(), 2u);
  const WalRecord& rec = recs[0];
  EXPECT_EQ(rec.type, WalRecordType::kInsert);
  EXPECT_EQ(rec.lsn, 7u);
  EXPECT_EQ(rec.gsn, 99u);
  EXPECT_EQ(rec.xid, MakeXid(3));
  EXPECT_EQ(rec.payload, "payload-bytes");
  EXPECT_EQ(rec.writer_id, 2u);
  EXPECT_EQ(recs[1].type, WalRecordType::kCommit);
  EXPECT_EQ(recs[1].lsn, 8u);
  EXPECT_EQ(recs[1].gsn, 100u);
  EXPECT_EQ(recs[1].xid, MakeXid(3));
  Timestamp cts = 0;
  ASSERT_OK(WalRecordCodec::ParseCommitPayload(recs[1].payload, &cts));
  EXPECT_EQ(cts, 555u);
  EXPECT_TRUE(WalBlockCodec::DecodeBlock(&in, 2, &recs).IsNotFound());
  EXPECT_EQ(recs.size(), 2u);
}

TEST(WalBlockTest, TornTailDetected) {
  std::string buf;
  WalBlockBuilder block(1, &buf);
  block.Add(WalRecordType::kInsert, 1, MakeXid(1), "abc");
  block.Finish();
  Slice torn(buf.data(), buf.size() - 2);
  std::vector<WalRecord> recs;
  EXPECT_TRUE(WalBlockCodec::DecodeBlock(&torn, 0, &recs).IsCorruption());
  EXPECT_TRUE(recs.empty());
  // Bit flip in the body.
  std::string bad = buf;
  bad[WalBlockCodec::kBlockPrefix + 5] ^= 1;
  Slice flipped(bad);
  EXPECT_TRUE(WalBlockCodec::DecodeBlock(&flipped, 0, &recs).IsCorruption());
  EXPECT_TRUE(recs.empty());
  // A zero-filled tail (a file extended but never written) is torn too.
  std::string zeros(16, '\0');
  Slice zero_tail(zeros);
  EXPECT_TRUE(WalBlockCodec::DecodeBlock(&zero_tail, 0, &recs).IsCorruption());
}

// Payload lengths on both sides of the one- and two-byte varint limits.
TEST(WalBlockTest, PayloadLengthBoundariesRoundTrip) {
  for (size_t len : {0, 127, 128, 16383, 16384}) {
    std::string payload(len, '\0');
    for (size_t i = 0; i < len; ++i) payload[i] = static_cast<char>(i * 31);
    std::string buf;
    WalBlockBuilder block(1000, &buf);
    block.Add(WalRecordType::kUpdate, 5, MakeXid(77), payload);
    block.Add(WalRecordType::kDelete, 6, MakeXid(77), payload);
    block.Finish();
    std::vector<WalRecord> recs = DecodeOneBlock(buf, 0);
    ASSERT_EQ(recs.size(), 2u) << "len=" << len;
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(recs[i].lsn, 1000 + i);
      EXPECT_EQ(recs[i].gsn, 5 + i);
      EXPECT_EQ(recs[i].xid, MakeXid(77));
      EXPECT_EQ(recs[i].payload, payload) << "len=" << len;
    }
    EXPECT_EQ(recs[1].type, WalRecordType::kDelete);
  }
}

// Records of one xid share its start timestamp: only the first record of a
// run carries it, and gsn deltas are one byte.
TEST(WalBlockTest, HeadersAreDeltaCoded) {
  WalBlockCodec::Cursor cursor;
  auto first = WalBlockCodec::MakeHeader(cursor, WalRecordType::kInsert,
                                         1u << 20, MakeXid(1u << 24), 10);
  EXPECT_EQ(first.tag & WalBlockCodec::kSameXid, 0);
  cursor.Advance(1u << 20, MakeXid(1u << 24));
  auto next = WalBlockCodec::MakeHeader(cursor, WalRecordType::kUpdate,
                                        (1u << 20) + 1, MakeXid(1u << 24),
                                        10);
  EXPECT_NE(next.tag & WalBlockCodec::kSameXid, 0);
  EXPECT_EQ(next.size, 3u);  // type, length, gsn delta
  EXPECT_LT(next.size, first.size);
}

// A writer shared by several slots (baseline single-writer mode): xids
// interleave and a record's gsn may be lower than its predecessor's.
TEST(WalBlockTest, SharedWriterInterleavedXidsRoundTrip) {
  struct Rec {
    WalRecordType type;
    uint64_t gsn;
    Xid xid;
  };
  const std::vector<Rec> in = {
      {WalRecordType::kInsert, 50, MakeXid(10)},
      {WalRecordType::kInsert, 52, MakeXid(11)},
      {WalRecordType::kUpdate, 51, MakeXid(10)},  // lower than predecessor
      {WalRecordType::kUpdate, 51, MakeXid(10)},  // equal
      {WalRecordType::kDelete, 3, MakeXid(12)},   // far lower
      {WalRecordType::kCommit, 53, MakeXid(11)},
      {WalRecordType::kCommit, 1ull << 40, MakeXid(10)},
  };
  std::string buf;
  WalBlockBuilder block(41, &buf);
  for (size_t i = 0; i < in.size(); ++i) {
    block.Add(in[i].type, in[i].gsn, in[i].xid, "p" + std::to_string(i));
  }
  block.Finish();
  std::vector<WalRecord> recs = DecodeOneBlock(buf, 3);
  ASSERT_EQ(recs.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(recs[i].type, in[i].type) << i;
    EXPECT_EQ(recs[i].gsn, in[i].gsn) << i;
    EXPECT_EQ(recs[i].xid, in[i].xid) << i;
    EXPECT_EQ(recs[i].lsn, 41 + i);
    EXPECT_EQ(recs[i].payload, "p" + std::to_string(i));
  }
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
  void Open(uint32_t writers = 4, bool rfa = true,
            uint32_t flush_interval_us = 50, size_t buffer_bytes = 64 << 10) {
    dir_ = std::make_unique<TestDir>("wal");
    WalManager::Options opts;
    opts.dir = dir_->path();
    opts.num_writers = writers;
    opts.sync_on_flush = false;  // tmpfs-friendly
    opts.enable_rfa = rfa;
    opts.flush_interval_us = flush_interval_us;
    opts.writer_buffer_bytes = buffer_bytes;
    auto mgr = WalManager::Open(Env::Default(), opts);
    ASSERT_OK_R(mgr);
    wal_ = std::move(mgr.value());
  }

  // Returns once the flusher has found nothing to flush and gone to sleep
  // for the flush interval: with a long interval, nothing appended after
  // this is flushed until a kick or an explicit Flush.
  void WaitFlusherAsleep() {
    while (wal_->pipeline_stats().idle_waits.load() == 0) {
      std::this_thread::yield();
    }
  }

  Transaction* MakeTxn(uint32_t slot) {
    if (!tm_) tm_ = std::make_unique<TxnManager>(8, &clock_);
    return tm_->Begin(slot, IsolationLevel::kReadCommitted);
  }

  std::vector<WalRecord> ReadLog(uint32_t writer) {
    std::string raw;
    std::vector<WalRecord> recs;
    Status st = ReadWholeFile(
        dir_->path() + "/wal_" + std::to_string(writer) + ".log", &raw);
    EXPECT_OK(st);
    if (!st.ok()) return recs;
    EXPECT_OK(DecodeWalBlocks(raw, writer, &recs));
    return recs;
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

// A transaction that logged nothing (last_lsn 0) has no commit record to
// wait for; with a remote dependency it is durable only once the writer
// that stamped the page it read has flushed past the page's GSN.
TEST_F(WalManagerTest, ReadOnlyRemoteDependencyWaitsForOtherWriter) {
  // A 10 s flush interval, a flusher already asleep and no LogCommit (no
  // flusher kick): nothing is flushed unless the test flushes.
  Open(4, /*rfa=*/true, /*flush_interval_us=*/10'000'000);
  WaitFlusherAsleep();
  BufferFrame frame;
  Transaction* writer = MakeTxn(0);
  uint64_t gsn = wal_->OnPageWrite(writer, &frame);
  wal_->LogData(writer, WalRecordType::kInsert, gsn, DataPayload(1, 1, "r"));

  Transaction* reader = MakeTxn(1);
  wal_->OnPageRead(reader, &frame);
  EXPECT_EQ(reader->last_lsn, 0u);
  ASSERT_TRUE(reader->remote_dependency);
  ASSERT_GT(reader->max_gsn, wal_->WriterFor(0).flushed_gsn());
  EXPECT_FALSE(wal_->CommitDurable(reader));

  ASSERT_OK_R(wal_->WriterFor(0).Flush());
  EXPECT_TRUE(wal_->CommitDurable(reader));
  wal_->WaitCommitDurable(reader);  // returns at once

  // Without a dependency, nothing to wait for.
  Transaction* local = MakeTxn(2);
  BufferFrame untouched;
  wal_->OnPageRead(local, &untouched);
  EXPECT_FALSE(local->remote_dependency);
  EXPECT_TRUE(wal_->CommitDurable(local));
}

// LogCommit on a transaction that logged nothing appends no record; when
// it waits on another writer it kicks the flushers, so the wait ends at the
// next flush and not at the (here 10 s) flush timer.
TEST_F(WalManagerTest, ReadOnlyRemoteCommitKicksFlusher) {
  Open(4, /*rfa=*/true, /*flush_interval_us=*/10'000'000);
  WaitFlusherAsleep();
  BufferFrame frame;
  Transaction* writer = MakeTxn(0);
  uint64_t gsn = wal_->OnPageWrite(writer, &frame);
  wal_->LogData(writer, WalRecordType::kInsert, gsn, DataPayload(1, 1, "r"));

  Transaction* reader = MakeTxn(1);
  wal_->OnPageRead(reader, &frame);
  ASSERT_TRUE(reader->remote_dependency);
  ASSERT_FALSE(wal_->CommitDurable(reader));
  const uint64_t appends = wal_->pipeline_stats().appends.load();
  const uint64_t kicks = wal_->pipeline_stats().commit_kicks.load();
  const auto start = std::chrono::steady_clock::now();
  wal_->LogCommit(reader, 7);
  EXPECT_EQ(reader->last_lsn, 0u);
  EXPECT_EQ(wal_->pipeline_stats().appends.load(), appends);
  EXPECT_EQ(wal_->pipeline_stats().commit_kicks.load(), kicks + 1);
  wal_->WaitCommitDurable(reader);
  EXPECT_TRUE(wal_->CommitDurable(reader));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));

  // Already durable: no kick.
  Transaction* local = MakeTxn(2);
  wal_->LogCommit(local, 8);
  EXPECT_EQ(wal_->pipeline_stats().commit_kicks.load(), kicks + 1);
}

// Slots sharing one writer (baseline single-writer mode) through the real
// append path: interleaved xids and gsns below their predecessor survive
// the delta-coded headers.
TEST_F(WalManagerTest, SharedWriterRoundTrip) {
  Open(1);
  WalWriter& w = wal_->WriterFor(0);
  ASSERT_EQ(&w, &wal_->WriterFor(3));
  struct Rec {
    WalRecordType type;
    uint64_t gsn;
    Xid xid;
  };
  const std::vector<Rec> in = {
      {WalRecordType::kInsert, 20, MakeXid(5)},
      {WalRecordType::kUpdate, 22, MakeXid(6)},
      {WalRecordType::kInsert, 21, MakeXid(5)},
      {WalRecordType::kDelete, 21, MakeXid(5)},
      {WalRecordType::kCommit, 9, MakeXid(7)},
      {WalRecordType::kCommit, 23, MakeXid(6)},
  };
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(w.Append(in[i].type, in[i].xid, in[i].gsn,
                       "x" + std::to_string(i)),
              i + 1);
  }
  ASSERT_OK_R(w.Flush());
  std::vector<WalRecord> recs = ReadLog(0);
  ASSERT_EQ(recs.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(recs[i].lsn, i + 1);
    EXPECT_EQ(recs[i].type, in[i].type) << i;
    EXPECT_EQ(recs[i].gsn, in[i].gsn) << i;
    EXPECT_EQ(recs[i].xid, in[i].xid) << i;
    EXPECT_EQ(recs[i].payload, "x" + std::to_string(i));
  }
}

// A record larger than the writer buffer is written as a block of its own,
// after the block holding the records appended before it.
TEST_F(WalManagerTest, OversizeRecordIsItsOwnBlock) {
  Open(1, /*rfa=*/true, /*flush_interval_us=*/10'000'000,
       /*buffer_bytes=*/4096);
  WalWriter& w = wal_->WriterFor(0);
  const std::string big(10000, 'B');
  EXPECT_EQ(w.Append(WalRecordType::kInsert, MakeXid(1), 1, "small-1"), 1u);
  EXPECT_EQ(w.Append(WalRecordType::kInsert, MakeXid(1), 2, "small-2"), 2u);
  EXPECT_EQ(w.Append(WalRecordType::kUpdate, MakeXid(1), 3, big), 3u);
  EXPECT_EQ(w.flushed_lsn(), 3u);
  EXPECT_EQ(w.Append(WalRecordType::kCommit, MakeXid(1), 4,
                     WalRecordCodec::CommitPayload(9)),
            4u);
  ASSERT_OK_R(w.Flush());
  EXPECT_EQ(wal_->pipeline_stats().oversize_appends.load(), 1u);

  std::string raw;
  ASSERT_OK(ReadWholeFile(dir_->path() + "/wal_0.log", &raw));
  Slice in(raw);
  std::vector<size_t> block_records;
  std::vector<WalRecord> recs;
  while (!in.empty()) {
    size_t before = recs.size();
    ASSERT_OK(WalBlockCodec::DecodeBlock(&in, 0, &recs));
    block_records.push_back(recs.size() - before);
  }
  EXPECT_EQ(block_records, (std::vector<size_t>{2, 1, 1}));
  ASSERT_EQ(recs.size(), 4u);
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].lsn, i + 1);
    EXPECT_EQ(recs[i].gsn, i + 1);
  }
  EXPECT_EQ(recs[0].payload, "small-1");
  EXPECT_EQ(recs[2].payload, big);
  EXPECT_EQ(recs[3].type, WalRecordType::kCommit);
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

std::string SampleBlock(uint64_t first_lsn) {
  std::string buf;
  WalBlockBuilder block(first_lsn, &buf);
  block.Add(WalRecordType::kUpdate, 44, MakeXid(9), "some-payload-bytes");
  block.Add(WalRecordType::kInsert, 43, MakeXid(9), std::string(130, 'i'));
  block.Add(WalRecordType::kCommit, 45, MakeXid(9),
            WalRecordCodec::CommitPayload(1234));
  block.Finish();
  return buf;
}

TEST_P(WalFuzzTest, RandomBytesNeverCrashDecoder) {
  Random rng(GetParam() * 104729 + 7);
  for (int iter = 0; iter < 500; ++iter) {
    std::string junk(rng.Uniform(200), '\0');
    for (auto& c : junk) c = static_cast<char>(rng.Next());
    Slice in(junk);
    std::vector<WalRecord> recs;
    // Either clean end, corruption, or (astronomically unlikely) a valid
    // block; never a crash or an infinite loop.
    for (int guard = 0; guard < 64; ++guard) {
      Status st = WalBlockCodec::DecodeBlock(&in, 0, &recs);
      if (!st.ok()) break;
    }
  }
}

// Garbage *behind a valid CRC* reaches the record parser: random bytes
// spliced into a real block's body, then re-sealed. The parser must stay
// inside the body (ASan) and either reject the block whole or return
// records whose payloads lie within it.
TEST_P(WalFuzzTest, ResealedGarbageNeverCrashesParser) {
  Random rng(GetParam() * 7727 + 3);
  const std::string base = SampleBlock(1 + GetParam());
  const size_t body_start = WalBlockCodec::BlockHeaderSize(1 + GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    std::string buf = base;
    if (rng.Uniform(4) == 0) {
      buf.resize(body_start + rng.Uniform(buf.size() - body_start) + 1);
    }
    int flips = 1 + static_cast<int>(rng.Uniform(6));
    for (int i = 0; i < flips; ++i) {
      size_t pos = body_start + rng.Uniform(buf.size() - body_start);
      buf[pos] = static_cast<char>(rng.Next());
    }
    WalBlockCodec::SealBlock(buf.data(), buf.size(), 1 + GetParam());
    Slice in(buf);
    std::vector<WalRecord> recs;
    Status st = WalBlockCodec::DecodeBlock(&in, 0, &recs);
    if (st.ok()) {
      EXPECT_TRUE(in.empty());
      size_t payload_bytes = 0;
      for (const WalRecord& rec : recs) payload_bytes += rec.payload.size();
      EXPECT_LE(payload_bytes, buf.size());
    } else {
      // The CRC holds, so a rejected block is never taken for a torn one.
      EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
      EXPECT_TRUE(recs.empty());
    }
  }
}

TEST_P(WalFuzzTest, TruncationAtEveryPointDetected) {
  const std::string buf = SampleBlock(3 + GetParam());
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Slice in(buf.data(), cut);
    std::vector<WalRecord> recs;
    Status st = WalBlockCodec::DecodeBlock(&in, 0, &recs);
    if (cut == 0) {
      EXPECT_TRUE(st.IsNotFound());
    } else {
      EXPECT_TRUE(st.IsCorruption()) << "cut=" << cut;
    }
    EXPECT_TRUE(recs.empty());
  }
  // Every single-bit flip anywhere in the block is caught.
  for (size_t pos = 0; pos < buf.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = buf;
      bad[pos] ^= static_cast<char>(1u << bit);
      Slice in(bad);
      std::vector<WalRecord> recs;
      Status st = WalBlockCodec::DecodeBlock(&in, 0, &recs);
      EXPECT_TRUE(st.IsCorruption()) << "pos=" << pos << " bit=" << bit;
      EXPECT_TRUE(recs.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalFuzzTest, ::testing::Range(0, 4));

// A frame in the layout of the former per-record codec,
// [u32 len][u32 masked crc][u8 type][u64 lsn][u64 gsn][u64 xid][payload],
// passes the block CRC check, since the block prefix has the same shape.
std::string OldFormatFrame(WalRecordType type, uint64_t lsn, uint64_t gsn,
                           Xid xid, Slice payload) {
  std::string body(1, static_cast<char>(type));
  PutFixed64(&body, lsn);
  PutFixed64(&body, gsn);
  PutFixed64(&body, xid);
  body.append(payload.data(), payload.size());
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(body.size()));
  PutFixed32(&frame, MaskCrc(Crc32c(body.data(), body.size())));
  return frame + body;
}

// A whole block that is not of this format is refused, never dropped as a
// torn tail: recovery must not silently discard a log it cannot read.
TEST(WalBlockTest, ForeignFormatRefusedNotTorn) {
  std::string block = SampleBlock(5);
  block[WalBlockCodec::kBlockPrefix] = static_cast<char>(0x01);
  const size_t body_len = block.size() - WalBlockCodec::kBlockPrefix;
  EncodeFixed32(&block[4],
                MaskCrc(Crc32c(block.data() + WalBlockCodec::kBlockPrefix,
                               body_len)));
  Slice in(block);
  std::vector<WalRecord> recs;
  EXPECT_TRUE(WalBlockCodec::DecodeBlock(&in, 0, &recs).IsNotSupported());
  EXPECT_TRUE(recs.empty());

  std::string old_log =
      OldFormatFrame(WalRecordType::kInsert, 1, 10, MakeXid(1),
                     DataPayload(1, 1, "row")) +
      OldFormatFrame(WalRecordType::kCommit, 2, 11, MakeXid(1),
                     WalRecordCodec::CommitPayload(12));
  Slice old_in(old_log);
  EXPECT_TRUE(WalBlockCodec::DecodeBlock(&old_in, 0, &recs).IsNotSupported());
  EXPECT_TRUE(recs.empty());

  TestDir dir("wal_old_format");
  std::unique_ptr<File> f;
  Env::OpenOptions fo;
  ASSERT_OK(Env::Default()->OpenFile(dir.path() + "/wal_0.log", fo, &f));
  ASSERT_OK(f->Append(old_log));
  f.reset();
  auto scan = WalRecovery::Scan(Env::Default(), dir.path());
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(scan.status().IsCorruption()) << scan.status().ToString();
}

// --- Recovery scan over a damaged multi-block log ----------------------------

// Everything a scan recovered, in a comparable form.
std::string Summarize(const WalRecovery::ScanResult& r) {
  std::string s = "total=" + std::to_string(r.total_records) +
                  " uncommitted=" + std::to_string(r.skipped_uncommitted);
  std::map<Xid, Timestamp> commits(r.commits.begin(), r.commits.end());
  for (const auto& [xid, cts] : commits) {
    s += " c" + std::to_string(XidStartTs(xid)) + "@" + std::to_string(cts);
  }
  for (const WalRecord& rec : r.records) {
    s += " r" + std::to_string(static_cast<int>(rec.type)) + "/" +
         std::to_string(rec.lsn) + "/" + std::to_string(rec.gsn) + "/" +
         std::to_string(XidStartTs(rec.xid)) + "/" + rec.payload;
  }
  return s;
}

// A four-block log, cut at every byte and with every single bit flipped:
// recovery must return exactly the blocks before the damage (a clean
// prefix of whole blocks, with one torn tail unless the cut falls on a
// block boundary), or Corruption; never a crash and never a record that
// was not written.
TEST(WalScanSweepTest, CutAndFlipEveryByteOfMultiBlockLog) {
  TestDir dir("wal_sweep");
  std::string log;
  std::vector<size_t> bounds = {0};
  uint64_t lsn = 1;
  auto add_block = [&](const std::vector<std::pair<WalRecordType, Xid>>& recs,
                       uint64_t gsn) {
    WalBlockBuilder block(lsn, &log);
    for (const auto& [type, xid] : recs) {
      std::string payload =
          type == WalRecordType::kCommit
              ? WalRecordCodec::CommitPayload(100 + XidStartTs(xid))
              : DataPayload(1, lsn, std::string(lsn * 7, 'a' + lsn % 26));
      block.Add(type, gsn++, xid, payload);
      ++lsn;
    }
    block.Finish();
    bounds.push_back(log.size());
  };
  // Transaction 2 spans blocks 1-2, transaction 4 blocks 3-4.
  add_block({{WalRecordType::kInsert, MakeXid(1)},
             {WalRecordType::kCommit, MakeXid(1)},
             {WalRecordType::kInsert, MakeXid(2)}},
            10);
  add_block({{WalRecordType::kUpdate, MakeXid(2)},
             {WalRecordType::kCommit, MakeXid(2)},
             {WalRecordType::kInsert, MakeXid(3)}},
            20);
  add_block({{WalRecordType::kCommit, MakeXid(3)},
             {WalRecordType::kInsert, MakeXid(4)}},
            30);
  add_block({{WalRecordType::kDelete, MakeXid(4)},
             {WalRecordType::kCommit, MakeXid(4)}},
            40);

  const std::string path = dir.path() + "/wal_0.log";
  auto write_log = [&](const std::string& bytes) {
    std::unique_ptr<File> f;
    Env::OpenOptions fo;
    fo.truncate = true;
    ASSERT_OK(Env::Default()->OpenFile(path, fo, &f));
    if (!bytes.empty()) ASSERT_OK(f->Append(bytes));
  };
  // expected[k]: the scan of the first k whole blocks.
  std::vector<std::string> expected;
  for (size_t k = 0; k < bounds.size(); ++k) {
    write_log(log.substr(0, bounds[k]));
    auto r = WalRecovery::Scan(Env::Default(), dir.path());
    ASSERT_OK_R(r);
    EXPECT_EQ(r.value().torn_tails, 0u);
    expected.push_back(Summarize(r.value()));
    if (k + 1 == bounds.size()) {
      EXPECT_EQ(r.value().commits.size(), 4u);
      EXPECT_EQ(r.value().records.size(), 6u);
      EXPECT_EQ(r.value().skipped_uncommitted, 0u);
    }
  }

  auto check = [&](const std::string& bytes, size_t whole_blocks, bool torn,
                   const std::string& what) {
    write_log(bytes);
    auto r = WalRecovery::Scan(Env::Default(), dir.path());
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsCorruption()) << what << " "
                                             << r.status().ToString();
      return;
    }
    EXPECT_EQ(r.value().torn_tails, torn ? 1u : 0u) << what;
    EXPECT_EQ(Summarize(r.value()), expected[whole_blocks]) << what;
  };
  for (size_t cut = 0; cut <= log.size(); ++cut) {
    size_t k = std::upper_bound(bounds.begin(), bounds.end(), cut) -
               bounds.begin() - 1;
    check(log.substr(0, cut), k, cut != bounds[k],
          "cut=" + std::to_string(cut));
  }
  for (size_t pos = 0; pos < log.size(); ++pos) {
    size_t k = std::upper_bound(bounds.begin(), bounds.end(), pos) -
               bounds.begin() - 1;
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = log;
      bad[pos] ^= static_cast<char>(1u << bit);
      check(bad, k, /*torn=*/true,
            "pos=" + std::to_string(pos) + " bit=" + std::to_string(bit));
    }
  }
}

}  // namespace
}  // namespace phoebe
