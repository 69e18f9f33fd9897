// Unit tests for the fault-injection Env and the graceful-degradation
// machinery it exercises: bounded I/O retry in PageFile, CRC re-read and
// page quarantine in BufferPool, WAL fail-stop on sync failure, and the
// recovery scan's torn-tail vs mid-log-error distinction.
#include <gtest/gtest.h>

#include <cstring>

#include "buffer/buffer_pool.h"
#include "io/fault_env.h"
#include "io/io_retry.h"
#include "io/io_stats.h"
#include "io/page_file.h"
#include "storage/frozen_store.h"
#include "storage/schema.h"
#include "tests/test_util.h"
#include "txn/txn_manager.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"

namespace phoebe {
namespace {

// --- FaultInjectionEnv: file-state tracking & crash simulation ---------------

class FaultEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TestDir>("fault_env");
    fenv_ = std::make_unique<FaultInjectionEnv>(Env::Default(), 0x5eed);
  }

  std::string Path(const std::string& name) { return dir_->path() + "/" + name; }

  std::unique_ptr<File> OpenWritable(const std::string& name) {
    std::unique_ptr<File> f;
    Env::OpenOptions fo;
    EXPECT_OK(fenv_->OpenFile(Path(name), fo, &f));
    return f;
  }

  std::string ReadAllViaBase(const std::string& name) {
    std::unique_ptr<File> f;
    Env::OpenOptions fo;
    fo.create = false;
    fo.read_only = true;
    EXPECT_OK(Env::Default()->OpenFile(Path(name), fo, &f));
    std::string buf(f->Size(), '\0');
    size_t got = 0;
    EXPECT_OK(f->Read(0, buf.size(), buf.data(), &got));
    buf.resize(got);
    return buf;
  }

  std::unique_ptr<TestDir> dir_;
  std::unique_ptr<FaultInjectionEnv> fenv_;
};

TEST_F(FaultEnvTest, DropUnsyncedDataTruncatesToSyncedSize) {
  auto f = OpenWritable("a.log");
  std::string synced(1000, 's');
  ASSERT_OK(f->Append(synced));
  ASSERT_OK(f->Sync());
  ASSERT_OK(f->Append(std::string(5000, 'u')));  // never synced
  EXPECT_EQ(f->Size(), 6000u);

  fenv_->DropUnsyncedData(/*torn_tail=*/false);
  EXPECT_EQ(ReadAllViaBase("a.log"), synced);
  EXPECT_EQ(f->Size(), 1000u);
  EXPECT_EQ(fenv_->stats().files_truncated_on_crash.load(), 1u);
  EXPECT_EQ(fenv_->stats().bytes_dropped_on_crash.load(), 5000u);
}

TEST_F(FaultEnvTest, TornTailIsSectorAlignedAndGarbled) {
  // Run across several seeds so at least one crash keeps a non-empty tail.
  bool saw_torn_byte = false;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FaultInjectionEnv fenv(Env::Default(), seed);
    std::string path = Path("torn_" + std::to_string(seed));
    std::unique_ptr<File> f;
    Env::OpenOptions fo;
    ASSERT_OK(fenv.OpenFile(path, fo, &f));
    std::string synced(1024, 's');
    ASSERT_OK(f->Append(synced));
    ASSERT_OK(f->Sync());
    std::string unsynced(4096, 'u');
    ASSERT_OK(f->Append(unsynced));

    fenv.DropUnsyncedData(/*torn_tail=*/true);
    uint64_t size = f->Size();
    ASSERT_GE(size, 1024u);
    ASSERT_LE(size, 1024u + 4096u);
    // The surviving tail prefix is sector-aligned.
    EXPECT_EQ((size - 1024u) % FaultInjectionEnv::kSectorSize, 0u);
    std::string on_disk;
    {
      std::unique_ptr<File> rf;
      Env::OpenOptions ro;
      ro.create = false;
      ro.read_only = true;
      ASSERT_OK(Env::Default()->OpenFile(path, ro, &rf));
      on_disk.resize(rf->Size());
      size_t got = 0;
      ASSERT_OK(rf->Read(0, on_disk.size(), on_disk.data(), &got));
    }
    ASSERT_EQ(on_disk.size(), size);
    // Synced prefix is never damaged.
    EXPECT_EQ(on_disk.substr(0, 1024), synced);
    if (size > 1024u) {
      // Exactly one byte of the surviving tail is garbled.
      int diffs = 0;
      for (size_t i = 1024; i < size; ++i) {
        if (on_disk[i] != 'u') ++diffs;
      }
      EXPECT_EQ(diffs, 1) << "seed " << seed;
      saw_torn_byte = true;
    }
  }
  EXPECT_TRUE(saw_torn_byte) << "no seed produced a surviving torn tail";
}

TEST_F(FaultEnvTest, FailNthOpIsTransient) {
  auto f = OpenWritable("b.dat");
  ASSERT_OK(f->Write(0, std::string(64, 'x')));
  char buf[64];
  size_t got = 0;

  fenv_->FailNthOp(FaultInjectionEnv::OpClass::kRead, 2);
  ASSERT_OK(f->Read(0, 64, buf, &got));                      // op 1: fine
  EXPECT_TRUE(f->Read(0, 64, buf, &got).IsIOError());        // op 2: fails
  ASSERT_OK(f->Read(0, 64, buf, &got));                      // healed
  EXPECT_EQ(fenv_->stats().injected_read_errors.load(), 1u);
}

TEST_F(FaultEnvTest, FailAllSyncsIsSticky) {
  auto f = OpenWritable("c.log");
  ASSERT_OK(f->Append("hello"));
  fenv_->FailAllSyncs(true);
  EXPECT_TRUE(f->Sync().IsIOError());
  EXPECT_TRUE(f->Sync().IsIOError());
  fenv_->FailAllSyncs(false);
  ASSERT_OK(f->Sync());
  EXPECT_EQ(fenv_->stats().injected_sync_errors.load(), 2u);
}

TEST_F(FaultEnvTest, SyncDirSharesTheSyncFaultSchedule) {
  // Directory fsyncs (the catalog-rename hardening step) must be failable
  // like any other sync: both the sticky switch and the Nth-op schedule.
  ASSERT_OK(fenv_->SyncDir(dir_->path()));
  fenv_->FailAllSyncs(true);
  EXPECT_TRUE(fenv_->SyncDir(dir_->path()).IsIOError());
  fenv_->FailAllSyncs(false);
  ASSERT_OK(fenv_->SyncDir(dir_->path()));

  fenv_->FailNthOp(FaultInjectionEnv::OpClass::kSync, 2);
  ASSERT_OK(fenv_->SyncDir(dir_->path()));                 // op 1: fine
  EXPECT_TRUE(fenv_->SyncDir(dir_->path()).IsIOError());   // op 2: fails
  ASSERT_OK(fenv_->SyncDir(dir_->path()));                 // transient
  EXPECT_GE(fenv_->stats().injected_sync_errors.load(), 2u);
}

TEST_F(FaultEnvTest, FailNextFileSizeIsOneShotAndFiltered) {
  auto f = OpenWritable("sz.dat");
  ASSERT_OK(f->Write(0, std::string(128, 'x')));

  // A filter that does not match leaves the fault armed for the next
  // matching stat; ClearFaults disarms it.
  fenv_->FailNextFileSize("no_such_substring");
  EXPECT_TRUE(fenv_->FileSize(Path("sz.dat")).ok());
  fenv_->ClearFaults();

  fenv_->FailNextFileSize("sz.dat");
  Result<uint64_t> r = fenv_->FileSize(Path("sz.dat"));
  EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();
  // One-shot: the very next stat succeeds and sees the true size.
  Result<uint64_t> ok = fenv_->FileSize(Path("sz.dat"));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 128u);
}

TEST_F(FaultEnvTest, BitFlipCorruptsExactlyOneBitInMemoryOnly) {
  auto f = OpenWritable("d.dat");
  std::string data(256, '\0');
  ASSERT_OK(f->Write(0, data));

  fenv_->SetBitFlipEvery(1);
  char buf[256];
  size_t got = 0;
  ASSERT_OK(f->Read(0, 256, buf, &got));
  int flipped_bits = 0;
  for (size_t i = 0; i < 256; ++i) {
    flipped_bits += __builtin_popcount(static_cast<unsigned char>(buf[i]));
  }
  EXPECT_EQ(flipped_bits, 1);

  // The disk is intact: a re-read with flips disabled is clean.
  fenv_->SetBitFlipEvery(0);
  ASSERT_OK(f->Read(0, 256, buf, &got));
  for (size_t i = 0; i < 256; ++i) EXPECT_EQ(buf[i], '\0');
}

TEST_F(FaultEnvTest, ShortWritePersistsSectorAlignedPrefix) {
  auto f = OpenWritable("e.dat");
  fenv_->ShortWriteNext();
  std::string data(4096, 'w');
  Status st = f->Append(data);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  uint64_t persisted = f->Size();
  EXPECT_LT(persisted, 4096u);
  EXPECT_EQ(persisted % FaultInjectionEnv::kSectorSize, 0u);
  EXPECT_EQ(fenv_->stats().injected_short_writes.load(), 1u);
  // Next write is clean.
  ASSERT_OK(f->Append("tail"));
}

TEST_F(FaultEnvTest, RenameCarriesDurabilityState) {
  auto f = OpenWritable("old.tmp");
  ASSERT_OK(f->Append("payload"));
  ASSERT_OK(f->Sync());
  ASSERT_OK(f->Append("unsynced"));
  f.reset();
  ASSERT_OK(fenv_->Rename(Path("old.tmp"), Path("new.dat")));
  fenv_->DropUnsyncedData(false);
  EXPECT_EQ(ReadAllViaBase("new.dat"), "payload");
}

// --- RetryIo ----------------------------------------------------------------

TEST(RetryIoTest, RetriesOnlyTransientIoErrors) {
  std::atomic<uint64_t> retries{0};
  int calls = 0;
  Status st = RetryIo(DefaultIoRetryPolicy(), &retries, [&] {
    return ++calls < 3 ? Status::IOError("flaky") : Status::OK();
  });
  ASSERT_OK(st);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries.load(), 2u);

  calls = 0;
  st = RetryIo(DefaultIoRetryPolicy(), &retries, [&] {
    ++calls;
    return Status::Corruption("deterministic");
  });
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_EQ(calls, 1);  // corruption is never retried

  calls = 0;
  st = RetryIo(DefaultIoRetryPolicy(), &retries, [&] {
    ++calls;
    return Status::IOError("dead device");
  });
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(calls, DefaultIoRetryPolicy().max_attempts);
}

// --- PageFile retry & quarantine --------------------------------------------

class PageFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IoStats::Global().Reset();
    dir_ = std::make_unique<TestDir>("page_fault");
    fenv_ = std::make_unique<FaultInjectionEnv>(Env::Default(), 0xabc);
    auto pf = PageFile::Open(fenv_.get(), dir_->path() + "/data.pages");
    ASSERT_OK_R(pf);
    page_file_ = std::move(pf.value());
  }

  std::unique_ptr<TestDir> dir_;
  std::unique_ptr<FaultInjectionEnv> fenv_;
  std::unique_ptr<PageFile> page_file_;
};

TEST_F(PageFaultTest, TransientReadFaultAbsorbedByRetry) {
  std::string page(kPageSize, 'p');
  StampPageCrc(page.data());
  PageId id = page_file_->AllocatePage();
  ASSERT_OK(page_file_->WritePage(id, page.data()));

  fenv_->FailNthOp(FaultInjectionEnv::OpClass::kRead, 1);
  std::string out(kPageSize, '\0');
  ASSERT_OK(page_file_->ReadPage(id, out.data()));
  EXPECT_EQ(out, page);
  EXPECT_GE(IoStats::Global().read_retries.load(), 1u);
}

TEST_F(PageFaultTest, TransientWriteFaultAbsorbedByRetry) {
  std::string page(kPageSize, 'q');
  StampPageCrc(page.data());
  PageId id = page_file_->AllocatePage();
  fenv_->FailNthOp(FaultInjectionEnv::OpClass::kWrite, 1);
  ASSERT_OK(page_file_->WritePage(id, page.data()));
  EXPECT_GE(IoStats::Global().write_retries.load(), 1u);
}

TEST_F(PageFaultTest, StickyReadFaultPropagatesAfterRetryBudget) {
  std::string page(kPageSize, 'p');
  StampPageCrc(page.data());
  PageId id = page_file_->AllocatePage();
  ASSERT_OK(page_file_->WritePage(id, page.data()));

  // More consecutive failures than the retry budget.
  fenv_->FailNthOp(FaultInjectionEnv::OpClass::kRead, 1,
                   DefaultIoRetryPolicy().max_attempts + 2);
  std::string out(kPageSize, '\0');
  EXPECT_TRUE(page_file_->ReadPage(id, out.data()).IsIOError());
  fenv_->ClearFaults();
  ASSERT_OK(page_file_->ReadPage(id, out.data()));
}

TEST_F(PageFaultTest, CrcRereadHealsInFlightCorruptionAndQuarantinesBadMedia) {
  BufferPool::Options opts;
  opts.buffer_bytes = 2ull << 20;
  opts.partitions = 1;
  BufferPool pool(opts, page_file_.get());

  std::string page(kPageSize, 'z');
  StampPageCrc(page.data());
  PageId id = page_file_->AllocatePage();
  ASSERT_OK(page_file_->WritePage(id, page.data()));

  // In-flight corruption heal: with a flip on every 2nd read, the first
  // load is clean, the second load's read is flipped (CRC fails) and its
  // re-read is clean again — the page heals without quarantine.
  BufferFrame* bf = pool.AllocateFrame(0);
  ASSERT_NE(bf, nullptr);
  fenv_->SetBitFlipEvery(2);
  ASSERT_OK(pool.LoadPageSync(id, bf));  // read 1: clean
  uint64_t rereads0 = IoStats::Global().crc_rereads.load();
  ASSERT_OK(pool.LoadPageSync(id, bf));  // read 2 flipped, read 3 heals
  EXPECT_EQ(IoStats::Global().crc_rereads.load(), rereads0 + 1);
  EXPECT_FALSE(page_file_->IsQuarantined(id));

  // Bad media: corrupt the page on disk through the base env so every
  // (re-)read sees the corruption -> quarantine + propagate, no crash.
  PageId bad = page_file_->AllocatePage();
  ASSERT_OK(page_file_->WritePage(bad, page.data()));
  {
    std::unique_ptr<File> raw;
    Env::OpenOptions fo;
    fo.create = false;
    ASSERT_OK(Env::Default()->OpenFile(dir_->path() + "/data.pages", fo, &raw));
    std::string garbage(64, '!');
    ASSERT_OK(raw->Write(bad * kPageSize + 1024, garbage));
  }
  fenv_->ClearFaults();
  uint64_t rereads_before = IoStats::Global().crc_rereads.load();
  Status st = pool.LoadPageSync(bad, bf);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_GT(IoStats::Global().crc_rereads.load(), rereads_before);
  EXPECT_TRUE(page_file_->IsQuarantined(bad));
  EXPECT_EQ(IoStats::Global().pages_quarantined.load(), 1u);
  // Quarantined pages fail fast on later reads.
  std::string out(kPageSize, '\0');
  EXPECT_TRUE(page_file_->ReadPage(bad, out.data()).IsCorruption());
  // Healthy pages are unaffected (degradation, not fail-stop).
  ASSERT_OK(page_file_->ReadPage(id, out.data()));
  bf->latch.UnlockExclusive();
  pool.FreeFrame(bf);
}

// --- WAL fail-stop -----------------------------------------------------------

TEST(WalFailStopTest, SyncFailureStopsCommitsAndWakesWaiters) {
  TestDir dir("wal_failstop");
  IoStats::Global().Reset();
  FaultInjectionEnv fenv(Env::Default(), 0x7a);
  WalManager::Options opts;
  opts.dir = dir.path();
  opts.num_writers = 2;
  opts.sync_on_flush = true;
  opts.flush_interval_us = 50;
  auto mgr = WalManager::Open(&fenv, opts);
  ASSERT_OK_R(mgr);
  WalManager* wal = mgr.value().get();
  GlobalClock clock;
  TxnManager tm(8, &clock);

  // A healthy commit first.
  Transaction* t1 = tm.Begin(0, IsolationLevel::kReadCommitted);
  BufferFrame frame;
  uint64_t gsn = wal->OnPageWrite(t1, &frame);
  wal->LogData(t1, WalRecordType::kInsert, gsn,
               DataPayload(1, 1, "row"));
  wal->LogCommit(t1, 100);
  wal->WaitCommitDurable(t1);
  EXPECT_TRUE(wal->CommitDurable(t1));
  EXPECT_FALSE(wal->fail_stopped());
  tm.FinishTransaction(t1, true);

  // Now the log device stops syncing: the next flush must fail-stop the
  // manager, and the waiting commit must be woken, not parked forever.
  fenv.FailAllSyncs(true);
  Transaction* t2 = tm.Begin(0, IsolationLevel::kReadCommitted);
  gsn = wal->OnPageWrite(t2, &frame);
  wal->LogData(t2, WalRecordType::kInsert, gsn,
               DataPayload(1, 2, "row2"));
  wal->LogCommit(t2, 101);
  wal->WaitCommitDurable(t2);  // must return (woken by fail-stop)
  EXPECT_TRUE(wal->fail_stopped());
  EXPECT_FALSE(wal->CommitDurable(t2));
  Status st = wal->fail_stop_status();
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_GE(IoStats::Global().wal_sync_failures.load(), 1u);

  // Fail-stop is sticky: healing the device does not silently resume.
  fenv.ClearFaults();
  EXPECT_TRUE(wal->fail_stopped());
  tm.FinishTransaction(t2, false);
}

// --- Recovery scan: torn tail vs mid-log I/O error ---------------------------

class RecoveryScanFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = std::make_unique<TestDir>("scan_fault"); }

  /// Writes wal_0.log with `commits` committed single-record transactions,
  /// one block each.
  void WriteWal(int commits, const std::string& tail_garbage) {
    std::string buf;
    for (int i = 1; i <= commits; ++i) {
      Xid xid = MakeXid(static_cast<uint64_t>(i));
      WalBlockBuilder block(2 * i - 1, &buf);
      block.Add(WalRecordType::kInsert, static_cast<uint64_t>(i), xid,
                DataPayload(1, i, "r"));
      block.Add(WalRecordType::kCommit, static_cast<uint64_t>(i), xid,
                WalRecordCodec::CommitPayload(100 + i));
      block.Finish();
    }
    buf += tail_garbage;
    std::unique_ptr<File> f;
    Env::OpenOptions fo;
    fo.truncate = true;
    ASSERT_OK(Env::Default()->OpenFile(dir_->path() + "/wal_0.log", fo, &f));
    ASSERT_OK(f->Append(buf));
    ASSERT_OK(f->Sync());
  }

  std::unique_ptr<TestDir> dir_;
};

TEST_F(RecoveryScanFaultTest, TornTailRecoversCleanPrefix) {
  // Half a block header of garbage after 3 committed transactions.
  WriteWal(3, std::string(13, '\xEE'));
  auto r = WalRecovery::Scan(Env::Default(), dir_->path());
  ASSERT_OK_R(r);
  EXPECT_EQ(r.value().commits.size(), 3u);
  EXPECT_EQ(r.value().records.size(), 3u);
  EXPECT_EQ(r.value().torn_tails, 1u);
}

TEST_F(RecoveryScanFaultTest, CleanLogHasNoTornTail) {
  WriteWal(3, "");
  auto r = WalRecovery::Scan(Env::Default(), dir_->path());
  ASSERT_OK_R(r);
  EXPECT_EQ(r.value().torn_tails, 0u);
}

TEST_F(RecoveryScanFaultTest, MidLogIoErrorPropagatesInsteadOfTruncating) {
  WriteWal(3, "");
  FaultInjectionEnv fenv(Env::Default(), 0x11);
  // Sticky read failure outlasting the retry budget: the scan must fail,
  // not silently pretend the log ended at byte 0.
  fenv.FailNthOp(FaultInjectionEnv::OpClass::kRead, 1,
                 DefaultIoRetryPolicy().max_attempts + 2);
  auto r = WalRecovery::Scan(&fenv, dir_->path());
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();

  // A transient failure is absorbed by the retry.
  fenv.ClearFaults();
  fenv.FailNthOp(FaultInjectionEnv::OpClass::kRead, 1, 1);
  auto r2 = WalRecovery::Scan(&fenv, dir_->path());
  ASSERT_OK_R(r2);
  EXPECT_EQ(r2.value().commits.size(), 3u);
}

// --- FrozenStore fault paths -------------------------------------------------

class FrozenFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IoStats::Global().Reset();
    dir_ = std::make_unique<TestDir>("frozen_fault");
    fenv_ = std::make_unique<FaultInjectionEnv>(Env::Default(), 0x99);
    schema_ = Schema({
        {"id", ColumnType::kInt64, 0, false},
        {"name", ColumnType::kString, 24, false},
    });
    auto store = FrozenStore::Open(fenv_.get(), dir_->path(), "t", &schema_);
    ASSERT_OK_R(store);
    store_ = std::move(store.value());
    std::vector<RowId> rids;
    std::vector<std::string> rows;
    for (int i = 1; i <= 40; ++i) {
      rids.push_back(static_cast<RowId>(i));
      RowBuilder b(&schema_);
      b.SetInt64(0, i).SetString(1, "frozen");
      rows.push_back(b.Encode().value());
    }
    ASSERT_OK(store_->FreezeBlock(rids, rows, 40));
  }

  std::unique_ptr<TestDir> dir_;
  std::unique_ptr<FaultInjectionEnv> fenv_;
  Schema schema_;
  std::unique_ptr<FrozenStore> store_;
};

TEST_F(FrozenFaultTest, TransientBlockReadFaultAbsorbed) {
  fenv_->FailNthOp(FaultInjectionEnv::OpClass::kRead, 1);
  std::string row;
  ASSERT_OK(store_->ReadRow(7, &row));
  EXPECT_EQ(RowView(&schema_, row.data()).GetInt64(0), 7);
  EXPECT_GE(IoStats::Global().read_retries.load(), 1u);
}

TEST_F(FrozenFaultTest, ShortBlockReadIsCorruptionNotLoop) {
  // Truncate the block file behind the store's back: a deterministic short
  // read that must surface as corruption after the bounded attempts.
  std::unique_ptr<File> raw;
  Env::OpenOptions fo;
  fo.create = false;
  ASSERT_OK(Env::Default()->OpenFile(dir_->path() + "/t.blocks", fo, &raw));
  ASSERT_GT(raw->Size(), 8u);
  ASSERT_OK(raw->Truncate(8));
  std::string row;
  Status st = store_->ReadRow(7, &row);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(FrozenFaultTest, CorruptBlockRereadThenPropagate) {
  // Flip a bit on every read: the decode CRC fails, the re-read sees the
  // same on-disk bytes but a *different* in-memory flip — statistically it
  // heals; force the deterministic path by corrupting the media instead.
  std::unique_ptr<File> raw;
  Env::OpenOptions fo;
  fo.create = false;
  ASSERT_OK(Env::Default()->OpenFile(dir_->path() + "/t.blocks", fo, &raw));
  std::string garbage(16, '!');
  ASSERT_OK(raw->Write(32, garbage));
  std::string row;
  Status st = store_->ReadRow(7, &row);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_GE(IoStats::Global().crc_rereads.load(), 1u);
  // The store object stays usable for other operations (no crash).
  EXPECT_TRUE(store_->ReadRow(200, &row).IsNotFound());
}

}  // namespace
}  // namespace phoebe
