// WAL append/flush path costs: record encoding, buffered append, and the
// GSN stamping hot path.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "bench/bench_common.h"
#include "txn/txn_manager.h"
#include "wal/wal_manager.h"

namespace phoebe {
namespace {

void BM_WalRecordEncode(benchmark::State& state) {
  // One record per block, sealed: header coding plus the block CRC, which
  // the writer leaves to the flusher.
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    WalBlockBuilder block(1, &buf);
    block.Add(WalRecordType::kUpdate, 2, MakeXid(3), payload);
    block.Finish();
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WalRecordEncode)->Arg(64)->Arg(512);

void BM_WalAppend(benchmark::State& state) {
  std::string dir = bench::ScratchDir("micro_wal");
  WalManager::Options opts;
  opts.dir = dir;
  opts.num_writers = 4;
  opts.sync_on_flush = false;
  auto wal_r = WalManager::Open(Env::Default(), opts);
  auto wal = std::move(wal_r.value());
  GlobalClock clock;
  TxnManager tm(4, &clock);
  Transaction* txn = tm.Begin(0, IsolationLevel::kReadCommitted);
  std::string payload(128, 'p');
  uint64_t gsn = 0;
  for (auto _ : state) {
    wal->LogData(txn, WalRecordType::kUpdate, ++gsn, payload);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 128);
  tm.FinishTransaction(txn, true);
  wal.reset();
  (void)Env::Default()->RemoveDirRecursive(dir);
}
BENCHMARK(BM_WalAppend);

// Parallel appenders, one task slot (and thus one WAL writer) per thread:
// the per-slot append throughput the pipeline is designed to keep off the
// flusher's critical path.
struct MtWalState {
  std::string dir;
  std::unique_ptr<WalManager> wal;
  GlobalClock clock;
  std::unique_ptr<TxnManager> tm;
  std::vector<Transaction*> txns;
};
std::atomic<MtWalState*> g_mt_wal{nullptr};

void BM_WalAppendMT(benchmark::State& state) {
  if (state.thread_index() == 0) {
    auto* mt = new MtWalState;
    mt->dir = bench::ScratchDir("micro_wal_mt");
    WalManager::Options opts;
    opts.dir = mt->dir;
    opts.num_writers = static_cast<uint32_t>(state.threads());
    opts.flusher_threads = 2;
    opts.sync_on_flush = false;
    auto wal_r = WalManager::Open(Env::Default(), opts);
    mt->wal = std::move(wal_r.value());
    mt->tm = std::make_unique<TxnManager>(
        static_cast<uint32_t>(state.threads()), &mt->clock);
    for (int t = 0; t < state.threads(); ++t) {
      mt->txns.push_back(mt->tm->Begin(static_cast<uint32_t>(t),
                                       IsolationLevel::kReadCommitted));
    }
    g_mt_wal.store(mt, std::memory_order_release);
  }
  // Only the iteration loop has a cross-thread barrier; wait for thread 0
  // to publish the shared state before touching it.
  MtWalState* mt;
  while ((mt = g_mt_wal.load(std::memory_order_acquire)) == nullptr) {
    std::this_thread::yield();
  }
  Transaction* txn = mt->txns[static_cast<size_t>(state.thread_index())];
  WalManager* wal = mt->wal.get();
  std::string payload(128, 'p');
  uint64_t gsn = 0;
  for (auto _ : state) {
    wal->LogData(txn, WalRecordType::kUpdate, ++gsn, payload);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 128);
  // The range-for's end barrier guarantees every thread left the loop.
  if (state.thread_index() == 0) {
    for (auto* t : mt->txns) mt->tm->FinishTransaction(t, true);
    mt->wal.reset();
    (void)Env::Default()->RemoveDirRecursive(mt->dir);
    g_mt_wal.store(nullptr, std::memory_order_release);
    delete mt;
  }
}
BENCHMARK(BM_WalAppendMT)->Threads(1)->Threads(4)->Threads(8)
    ->UseRealTime();

// Full commit-durability round trip: append a data record and the commit
// record, then block until the group flusher makes the commit durable. This
// is the wakeup latency the batched group-commit path targets.
void BM_WalCommitDurable(benchmark::State& state) {
  std::string dir = bench::ScratchDir("micro_wal_commit");
  WalManager::Options opts;
  opts.dir = dir;
  opts.num_writers = 4;
  opts.sync_on_flush = false;
  auto wal_r = WalManager::Open(Env::Default(), opts);
  auto wal = std::move(wal_r.value());
  GlobalClock clock;
  TxnManager tm(4, &clock);
  std::string payload(128, 'p');
  BufferFrame frame;
  for (auto _ : state) {
    Transaction* txn = tm.Begin(0, IsolationLevel::kReadCommitted);
    uint64_t gsn = wal->OnPageWrite(txn, &frame);
    wal->LogData(txn, WalRecordType::kUpdate, gsn, payload);
    wal->LogCommit(txn, 1);
    wal->WaitCommitDurable(txn);
    tm.FinishTransaction(txn, true);
  }
  wal.reset();
  (void)Env::Default()->RemoveDirRecursive(dir);
}
BENCHMARK(BM_WalCommitDurable)->UseRealTime();

void BM_GsnStamping(benchmark::State& state) {
  std::string dir = bench::ScratchDir("micro_gsn");
  WalManager::Options opts;
  opts.dir = dir;
  opts.num_writers = 2;
  opts.sync_on_flush = false;
  auto wal_r = WalManager::Open(Env::Default(), opts);
  auto wal = std::move(wal_r.value());
  GlobalClock clock;
  TxnManager tm(2, &clock);
  Transaction* txn = tm.Begin(0, IsolationLevel::kReadCommitted);
  BufferFrame frame;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal->OnPageWrite(txn, &frame));
  }
  tm.FinishTransaction(txn, true);
  wal.reset();
  (void)Env::Default()->RemoveDirRecursive(dir);
}
BENCHMARK(BM_GsnStamping);

}  // namespace
}  // namespace phoebe
