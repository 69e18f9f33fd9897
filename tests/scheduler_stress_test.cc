// Stress suite for the decentralized scheduler (per-worker run queues,
// work stealing, batched parking/wakeup, in-flight-counter backpressure).
// Runs under the tsan and asan presets via scripts/run_tsan.sh and
// scripts/run_asan.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/random.h"
#include "runtime/scheduler.h"
#include "runtime/task.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

TxnTask QuickTask(std::atomic<uint64_t>* done) {
  done->fetch_add(1, std::memory_order_relaxed);
  co_return Status::OK();
}

TxnTask YieldingTask(std::atomic<uint64_t>* done, int yields) {
  for (int i = 0; i < yields; ++i) {
    co_await YieldWait(WaitKind::kXidLock, 0);
  }
  done->fetch_add(1, std::memory_order_relaxed);
  co_return Status::OK();
}

TxnTask SeededTask(std::atomic<uint64_t>* done, uint64_t seed) {
  // Seed-dependent control flow: yield count and commit/abort vary.
  Random rng(seed);
  int yields = static_cast<int>(rng.Uniform(8));
  for (int i = 0; i < yields; ++i) {
    co_await YieldWait(WaitKind::kLatch, 0);
  }
  done->fetch_add(1, std::memory_order_relaxed);
  if (rng.Uniform(4) == 0) co_return Status::Aborted("seeded abort");
  co_return Status::OK();
}

/// Waits until `sched.completed() == expect` with a generous deadline so a
/// lost task shows up as a test failure rather than a ctest hang.
void WaitCompleted(const Scheduler& sched, uint64_t expect,
                   int deadline_sec = 60) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(deadline_sec);
  while (sched.completed() < expect &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(sched.completed(), expect);
}

// All tasks arrive from a single producer routed at one shard: the other
// workers must acquire everything they run by stealing.
TEST(SchedulerStressTest, SkewedSubmitSingleShard) {
  Scheduler::Options opts;
  opts.workers = 4;
  opts.slots_per_worker = 4;
  Scheduler sched(opts, {});
  sched.Start();
  std::atomic<uint64_t> done{0};
  constexpr uint64_t kTasks = 2000;
  for (uint64_t i = 0; i < kTasks; ++i) {
    sched.SubmitToWorker(0, [&done](TaskEnv*) {
      return YieldingTask(&done, 3);
    });
  }
  WaitCompleted(sched, kTasks);
  SchedulerStats total = sched.TotalStats();
  sched.Stop();
  EXPECT_EQ(done.load(), kTasks);
  EXPECT_EQ(total.submitted, kTasks);
  EXPECT_EQ(total.pulled + total.stolen, kTasks);
  EXPECT_GT(total.stolen, 0u) << "skewed load must trigger stealing";
  // Only shard 0 ever received submissions.
  EXPECT_EQ(sched.WorkerStats(0).submitted, kTasks);
  for (uint32_t w = 1; w < 4; ++w) {
    EXPECT_EQ(sched.WorkerStats(w).submitted, 0u);
  }
}

// One worker's slots are saturated by long yield-loop tasks while its shard
// queue keeps growing: the idle workers must drain it by stealing.
TEST(SchedulerStressTest, StealHeavyOneBusyWorker) {
  Scheduler::Options opts;
  opts.workers = 4;
  opts.slots_per_worker = 2;
  Scheduler sched(opts, {});
  sched.Start();
  std::atomic<uint64_t> done{0};
  // Pin worker 0's two slots with long-yielding tasks.
  for (uint32_t i = 0; i < opts.slots_per_worker; ++i) {
    sched.SubmitToWorker(0, [&done](TaskEnv*) {
      return YieldingTask(&done, 5000);
    });
  }
  // Then pile quick tasks onto the busy worker's shard.
  constexpr uint64_t kQuick = 1000;
  for (uint64_t i = 0; i < kQuick; ++i) {
    sched.SubmitToWorker(0, [&done](TaskEnv*) { return QuickTask(&done); });
  }
  WaitCompleted(sched, kQuick + opts.slots_per_worker);
  SchedulerStats total = sched.TotalStats();
  uint64_t stolen_by_others = 0;
  for (uint32_t w = 1; w < opts.workers; ++w) {
    stolen_by_others += sched.WorkerStats(w).stolen;
  }
  sched.Stop();
  EXPECT_EQ(done.load(), kQuick + opts.slots_per_worker);
  EXPECT_GT(total.stolen, 0u);
  EXPECT_GT(stolen_by_others, 0u)
      << "idle workers must have stolen from the busy shard";
}

// Batched submission: every task of every batch runs exactly once.
TEST(SchedulerStressTest, SubmitBatchRunsEveryTask) {
  Scheduler::Options opts;
  opts.workers = 2;
  opts.slots_per_worker = 4;
  Scheduler sched(opts, {});
  sched.Start();
  std::atomic<uint64_t> done{0};
  constexpr uint64_t kBatches = 100;
  constexpr uint64_t kPerBatch = 16;
  for (uint64_t b = 0; b < kBatches; ++b) {
    std::vector<TaskFn> batch;
    batch.reserve(kPerBatch);
    for (uint64_t i = 0; i < kPerBatch; ++i) {
      batch.push_back([&done](TaskEnv*) { return YieldingTask(&done, 2); });
    }
    sched.SubmitBatch(std::move(batch));
  }
  WaitCompleted(sched, kBatches * kPerBatch);
  sched.Stop();
  EXPECT_EQ(done.load(), kBatches * kPerBatch);
}

// A Stop() racing submitters blocked on backpressure must unblock them
// without deadlock, and every task that was accepted must still run.
TEST(SchedulerStressTest, StopDuringBlockedSubmit) {
  for (int round = 0; round < 20; ++round) {
    Scheduler::Options opts;
    opts.workers = 1;
    opts.slots_per_worker = 1;  // capacity 2: submitters block immediately
    Scheduler sched(opts, {});
    sched.Start();
    std::atomic<uint64_t> done{0};
    std::atomic<uint64_t> attempted{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 200; ++i) {
          attempted.fetch_add(1, std::memory_order_relaxed);
          sched.Submit(
              [&done](TaskEnv*) { return YieldingTask(&done, 10); });
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + round % 3));
    sched.Stop();  // must not deadlock against the blocked Submits
    for (auto& t : submitters) t.join();
    // Everything that completed was counted exactly once; tasks rejected
    // after Stop() were dropped, never half-run.
    EXPECT_LE(sched.completed(), attempted.load());
    EXPECT_EQ(sched.completed(), sched.committed() + sched.aborted());
    EXPECT_LE(done.load(), attempted.load());
  }
}

TEST(SchedulerStressTest, TrySubmitRespectsStopAndBound) {
  Scheduler::Options opts;
  opts.workers = 2;
  opts.slots_per_worker = 2;
  Scheduler sched(opts, {});
  // Not started: queue fills to the bound, then TrySubmit refuses.
  std::atomic<uint64_t> done{0};
  uint64_t accepted = 0;
  for (int i = 0; i < 100; ++i) {
    if (sched.TrySubmit([&done](TaskEnv*) { return QuickTask(&done); })) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 2ull * sched.total_slots());
  sched.Start();
  WaitCompleted(sched, accepted);
  sched.Stop();
  EXPECT_FALSE(
      sched.TrySubmit([&done](TaskEnv*) { return QuickTask(&done); }));
  EXPECT_EQ(done.load(), accepted);
}

// Determinism of the bookkeeping: across 100 seeded runs, every submitted
// task is completed exactly once and committed + aborted == completed.
TEST(SchedulerStressTest, SeededRunsCompleteExactly) {
  constexpr uint64_t kTasks = 200;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    Scheduler::Options opts;
    opts.workers = 2 + seed % 3;
    opts.slots_per_worker = 2;
    Scheduler sched(opts, {});
    sched.Start();
    std::atomic<uint64_t> done{0};
    Random rng(seed);
    for (uint64_t i = 0; i < kTasks; ++i) {
      uint64_t task_seed = rng.Next();
      if (i % 2 == 0) {
        sched.Submit([&done, task_seed](TaskEnv*) {
          return SeededTask(&done, task_seed);
        });
      } else {
        sched.SubmitToWorker(static_cast<uint32_t>(task_seed),
                             [&done, task_seed](TaskEnv*) {
                               return SeededTask(&done, task_seed);
                             });
      }
    }
    WaitCompleted(sched, kTasks);
    SchedulerStats total = sched.TotalStats();
    sched.Stop();
    ASSERT_EQ(sched.completed(), kTasks) << "seed " << seed;
    ASSERT_EQ(done.load(), kTasks) << "seed " << seed;
    ASSERT_EQ(sched.committed() + sched.aborted(), kTasks)
        << "seed " << seed;
    ASSERT_EQ(total.submitted, kTasks) << "seed " << seed;
    ASSERT_EQ(total.pulled + total.stolen, kTasks) << "seed " << seed;
    // The in-flight bound holds: no shard ever held more than the global
    // capacity.
    ASSERT_LE(total.queue_depth_hwm, 2ull * sched.total_slots())
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace phoebe
