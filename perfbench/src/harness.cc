#include "harness.h"

#include <pthread.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <queue>

#include "common/profiler.h"
#include "io/io_stats.h"

namespace perfbench {

using phoebe::NowNanos;
using phoebe::Status;
using phoebe::TaskEnv;
using phoebe::TxnTask;
using phoebe::WaitKind;
using phoebe::YieldWait;

namespace {

int BucketOf(WaitKind k) {
  switch (k) {
    case WaitKind::kLatch: return kWaitLatch;
    case WaitKind::kAsyncRead: return kWaitRead;
    case WaitKind::kXidLock: return kWaitXid;
    case WaitKind::kCommitFlush: return kWaitFlush;
    case WaitKind::kNone: return kWaitNone;
  }
  return kWaitNone;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

void Request::Reset() {
  user_abort = false;
  failed = false;
  sys_aborts = 0;
  retries = 0;
  status = Status::OK();
  cpu_ns = 0;
  queue_ns = 0;
  oncpu_ns = 0;
  yields = 0;
  std::fill(std::begin(wait_ns), std::end(wait_ns), 0);
  ncalls = 0;
  std::fill(std::begin(call_total_ns), std::end(call_total_ns), 0);
}

void Request::RecordCall(Call c, uint64_t ns) {
  call_total_ns[c] += ns;
  if (ncalls < kMaxCalls) {
    call_kind[ncalls] = static_cast<uint8_t>(c);
    call_ns[ncalls] = static_cast<uint32_t>(
        std::min<uint64_t>(ns, std::numeric_limits<uint32_t>::max()));
    ++ncalls;
  }
}

Counters Counters::Read(phoebe::Database* db, const phoebe::Scheduler& sched) {
  Counters c;
  auto& io = phoebe::IoStats::Global();
  c.data_bytes_read = io.data_bytes_read.load(std::memory_order_relaxed);
  c.data_bytes_written = io.data_bytes_written.load(std::memory_order_relaxed);
  c.data_reads = io.data_reads.load(std::memory_order_relaxed);
  c.wal_bytes = io.wal_bytes_written.load(std::memory_order_relaxed);
  c.wal_flushes = io.wal_flushes.load(std::memory_order_relaxed);
  auto& pool = db->pool()->stats();
  c.buffer_loads = pool.loads.load(std::memory_order_relaxed);
  c.buffer_evictions = pool.evictions.load(std::memory_order_relaxed);
  phoebe::SchedulerStats s = sched.TotalStats();
  c.sched_pulled = s.pulled;
  c.sched_stolen = s.stolen;
  c.sched_parks = s.parks;
  c.wal_records_flushed = db->wal()->pipeline_stats().records_flushed.load(
      std::memory_order_relaxed);
  const auto& ck = db->checkpoint_stats();
  c.ckpt_completed = ck.completed.load(std::memory_order_relaxed);
  c.ckpt_quiesce_timeouts = ck.quiesce_timeouts.load(std::memory_order_relaxed);
  c.heap_allocs = phoebe::Profiler::Aggregate().total_heap_allocs;
  return c;
}

Counters& Counters::operator+=(const Counters& o) {
  data_bytes_read += o.data_bytes_read;
  data_bytes_written += o.data_bytes_written;
  data_reads += o.data_reads;
  wal_bytes += o.wal_bytes;
  wal_flushes += o.wal_flushes;
  buffer_loads += o.buffer_loads;
  buffer_evictions += o.buffer_evictions;
  sched_pulled += o.sched_pulled;
  sched_stolen += o.sched_stolen;
  sched_parks += o.sched_parks;
  wal_records_flushed += o.wal_records_flushed;
  ckpt_completed += o.ckpt_completed;
  ckpt_quiesce_timeouts += o.ckpt_quiesce_timeouts;
  heap_allocs += o.heap_allocs;
  worker_cpu_ns += o.worker_cpu_ns;
  return *this;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  d.data_bytes_read = data_bytes_read - o.data_bytes_read;
  d.data_bytes_written = data_bytes_written - o.data_bytes_written;
  d.data_reads = data_reads - o.data_reads;
  d.wal_bytes = wal_bytes - o.wal_bytes;
  d.wal_flushes = wal_flushes - o.wal_flushes;
  d.buffer_loads = buffer_loads - o.buffer_loads;
  d.buffer_evictions = buffer_evictions - o.buffer_evictions;
  d.sched_pulled = sched_pulled - o.sched_pulled;
  d.sched_stolen = sched_stolen - o.sched_stolen;
  d.sched_parks = sched_parks - o.sched_parks;
  d.wal_records_flushed = wal_records_flushed - o.wal_records_flushed;
  d.ckpt_completed = ckpt_completed - o.ckpt_completed;
  d.ckpt_quiesce_timeouts = ckpt_quiesce_timeouts - o.ckpt_quiesce_timeouts;
  d.heap_allocs = heap_allocs - o.heap_allocs;
  d.worker_cpu_ns = worker_cpu_ns - o.worker_cpu_ns;
  return d;
}

uint64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t Quantile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  size_t idx = std::min(v->size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(idx),
                   v->end());
  return (*v)[idx];
}

Harness::Harness(phoebe::Database* db, Workload* workload, uint32_t workers,
                 uint32_t slots_per_worker)
    : db_(db), wl_(workload), workers_(workers) {
  phoebe::Scheduler::Options opts;
  opts.workers = workers;
  opts.slots_per_worker = slots_per_worker;
  sched_ = std::make_unique<phoebe::Scheduler>(opts, db->MakeSchedulerHooks());
  worker_clock_ = std::make_unique<std::atomic<clockid_t>[]>(workers);
  for (uint32_t w = 0; w < workers; ++w) worker_clock_[w].store(0);
  requests_.resize(kClients);
  for (uint32_t c = 0; c < requests_.size(); ++c) requests_[c].client = c;
  for (Tally& t : tally_) {
    t.type_count.assign(static_cast<size_t>(wl_->num_types()), 0);
    t.type_oncpu_ns.assign(static_cast<size_t>(wl_->num_types()), 0);
    t.type_traced.assign(static_cast<size_t>(wl_->num_types()), 0);
  }
}

Harness::~Harness() { sched_->Stop(); }

TxnTask Harness::Drive(Harness* h, Request* r, TaskEnv* env) {
  // Every wall-clock read below closes one span and opens the next, so
  // queue + slices + waits tile the request's latency by construction. The
  // thread's CPU clock is read inside each slice's wall-clock bounds; the
  // self-check in Account() compares the two.
  const bool traced = r->traced;
  uint64_t mark = NowNanos();
  r->queue_ns = mark - r->submit_ns;
  if (h->worker_clock_[env->worker_id].load(std::memory_order_relaxed) == 0) {
    clockid_t cid;
    if (pthread_getcpuclockid(pthread_self(), &cid) == 0) {
      h->worker_clock_[env->worker_id].store(cid, std::memory_order_relaxed);
    }
  }
  uint64_t cpu_mark = ThreadCpuNanos();
  auto close_slice = [&] {
    r->cpu_ns += ThreadCpuNanos() - cpu_mark;
    if (!traced) return;
    uint64_t t = NowNanos();
    r->oncpu_ns += t - mark;
    mark = t;
  };
  auto open_slice = [&](int bucket) {
    if (traced) {
      uint64_t t = NowNanos();
      r->wait_ns[bucket] += t - mark;
      r->yields += 1;
      mark = t;
    }
    cpu_mark = ThreadCpuNanos();
  };

  Status st;
  uint64_t backoff = 16;  // yields; doubles per retry, with jitter
  uint64_t jitter = r->jitter;
  for (uint32_t attempt = 0;; ++attempt) {
    {
      TxnTask inner = h->wl_->Attempt(r, env);
      inner.Resume();
      while (!inner.done()) {
        WaitKind kind = inner.wait_kind();
        close_slice();
        co_await YieldWait(kind, inner.wait_xid());
        open_slice(BucketOf(kind));
        inner.Resume();
      }
      st = inner.result();
    }
    if (st.ok()) break;
    if (h->wl_->UserAbort(st, env)) {
      r->user_abort = true;
      break;
    }
    r->sys_aborts += 1;
    if (!st.IsAborted() || attempt >= kMaxRetries) {
      r->failed = true;
      break;
    }
    r->retries += 1;
    jitter = jitter * 6364136223846793005ull + 1442695040888963407ull;
    uint64_t spins = backoff + (jitter >> 33) % backoff;
    for (uint64_t i = 0; i < spins; ++i) {
      // kLatch re-queues the slot at once: the backoff costs scheduler
      // passes, not sleeps.
      close_slice();
      co_await YieldWait(WaitKind::kLatch, 0);
      open_slice(kWaitBackoff);
    }
    backoff = std::min<uint64_t>(backoff * 2, 1024);
  }
  close_slice();
  r->status = st;
  r->end_ns = traced ? mark : NowNanos();
  h->Complete(r);  // `r` belongs to the generator from here on
  co_return st;
}

void Harness::Submit(Request* r) {
  r->Reset();
  wl_->Next(r);
  r->traced = tracing_;
  Request* req = r;
  Harness* self = this;
  r->submit_ns = NowNanos();
  sched_->SubmitToWorker(wl_->HomeWorker(r->client, workers_),
                         [self, req](TaskEnv* env) -> TxnTask {
                           return Drive(self, req, env);
                         });
}

void Harness::Complete(Request* r) {
  bool wake;
  {
    std::lock_guard<std::mutex> lk(mu_);
    completed_.push_back(r);
    wake = waiting_;
  }
  if (wake) cv_.notify_one();
}

void Harness::Account(const Request& r, Tally* t, Tally::SubWindow* sub) {
  t->completed += 1;
  t->sys_aborts += r.sys_aborts;
  t->retries += r.retries;
  if (r.user_abort) t->user_aborts += 1;
  const uint64_t latency = r.end_ns - r.submit_ns;
  const uint64_t sample =
      r.failed ? std::numeric_limits<uint64_t>::max() : latency;
  if (r.failed) t->failed += 1;
  if (!r.failed) {
    sub->ok += 1;
    sub->type_ok[static_cast<size_t>(r.type)] += 1;
    sub->type_cpu_ns[static_cast<size_t>(r.type)] += r.cpu_ns;
  }
  sub->latency_ns.push_back(sample);
  if (r.type == wl_->write_type()) sub->write_latency_ns.push_back(sample);
  if (r.status.ok()) t->type_count[static_cast<size_t>(r.type)] += 1;
  if (!r.traced) return;

  t->traced += 1;
  t->queue_ns.push_back(r.queue_ns);
  t->oncpu_ns += r.oncpu_ns;
  t->cpu_ns += r.cpu_ns;
  t->yields += r.yields;
  t->type_oncpu_ns[static_cast<size_t>(r.type)] += r.oncpu_ns;
  t->type_traced[static_cast<size_t>(r.type)] += 1;
  for (int b = 0; b < kNumWaitBuckets; ++b) {
    t->wait_total_ns[b] += r.wait_ns[b];
    if (r.wait_ns[b] > 0) t->wait_ns[b].push_back(r.wait_ns[b]);
  }
  uint64_t calls = 0;
  for (int c = 0; c < kNumCalls; ++c) {
    t->call_total_ns[c] += r.call_total_ns[c];
    calls += r.call_total_ns[c];
  }
  for (uint32_t i = 0; i < r.ncalls; ++i) {
    t->call_ns[r.call_kind[i]].push_back(r.call_ns[i]);
  }
  // The thread's CPU clock is read inside each slice's wall-clock bounds,
  // and layer calls run inside the slices: neither may exceed the slices'
  // wall time. A slice that ended on another thread than it started on, or
  // a wait counted as a slice, breaks the first.
  if (r.cpu_ns > r.oncpu_ns + kBreakdownToleranceNs ||
      calls > r.oncpu_ns + kBreakdownToleranceNs) {
    t->breakdown_violations += 1;
  }
}

Counters Harness::ReadCounters() const {
  Counters c = Counters::Read(db_, *sched_);
  for (uint32_t w = 0; w < workers_; ++w) {
    const clockid_t cid = worker_clock_[w].load(std::memory_order_relaxed);
    timespec ts{};
    if (cid != 0 && clock_gettime(cid, &ts) == 0) {
      c.worker_cpu_ns += static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
                         static_cast<uint64_t>(ts.tv_nsec);
    }
  }
  return c;
}

void Harness::Progress(uint64_t elapsed_ns, size_t outstanding) {
  const Counters c = ReadCounters();
  const auto& ck = db_->checkpoint_stats();
  printf("#PROGRESS t=%.1f completed=%" PRIu64 " outstanding=%zu "
         "page_reads=%" PRIu64 " evictions=%" PRIu64 " wal_flushes=%" PRIu64
         " ckpt_attempts=%" PRIu64 " ckpt_done=%" PRIu64
         " ckpt_timeouts=%" PRIu64 "\n",
         static_cast<double>(elapsed_ns) * 1e-9, total_completed_, outstanding,
         c.data_reads, c.buffer_evictions, c.wal_flushes,
         ck.attempts.load(std::memory_order_relaxed), c.ckpt_completed,
         c.ckpt_quiesce_timeouts);
  fflush(stdout);
}

void Harness::Run(double warmup_s, const std::vector<Window>& windows,
                  const PhaseFn& phase) {
  // Window boundaries are fixed up front, so a request is attributed by its
  // completion time alone, however late the generator gets to it.
  const uint64_t start = NowNanos();
  std::vector<uint64_t> bounds;
  std::vector<size_t> first_sub;  // per window, index into its tally's subs
  std::vector<uint64_t> sub_ns;   // per window, length of its sub-windows
  bounds.push_back(start + static_cast<uint64_t>(warmup_s * 1e9));
  for (const Window& w : windows) {
    const uint64_t len = static_cast<uint64_t>(w.seconds * 1e9);
    bounds.push_back(bounds.back() + len);
    Tally& t = tally_[w.traced ? 1 : 0];
    t.seconds += w.seconds;
    const uint64_t n = std::max<uint64_t>(
        1, (len + kSubWindowNs / 2) / kSubWindowNs);
    first_sub.push_back(t.subs.size());
    sub_ns.push_back(len / n);
    for (uint64_t i = 0; i < n; ++i) {
      t.subs.emplace_back();
      t.subs.back().seconds = static_cast<double>(len / n) * 1e-9;
      t.subs.back().type_ok.assign(static_cast<size_t>(wl_->num_types()), 0);
      t.subs.back().type_cpu_ns.assign(static_cast<size_t>(wl_->num_types()),
                                       0);
    }
  }
  auto window_of = [&](uint64_t t) -> int {
    for (size_t i = 0; i + 1 < bounds.size(); ++i) {
      if (t >= bounds[i] && t < bounds[i + 1]) return static_cast<int>(i);
    }
    return -1;
  };

  sched_->Start();
  tracing_ = false;
  for (Request& r : requests_) Submit(&r);
  size_t outstanding = requests_.size();  // clients not yet retired
  // Clients between two transactions, by the time their think ends.
  using Thinking = std::pair<uint64_t, Request*>;
  std::priority_queue<Thinking, std::vector<Thinking>, std::greater<>>
      thinking;
  constexpr double kThinkNs = kThinkUs * 1e3;

  size_t next_bound = 0;
  uint64_t next_progress = start + kProgressNs;
  bool submitting = true;
  Counters last;
  std::vector<Request*> batch;
  for (;;) {
    const uint64_t now = NowNanos();
    while (next_bound < bounds.size() && bounds[next_bound] <= now) {
      Counters cur = ReadCounters();
      if (next_bound > 0) {
        tally_[windows[next_bound - 1].traced ? 1 : 0].counters +=
            cur - last;
      }
      last = cur;
      if (next_bound < windows.size()) {
        if (next_bound == 0) phase("measure");
        tracing_ = windows[next_bound].traced;
      } else {
        submitting = false;
        tracing_ = false;
      }
      // Allocation counting is part of tracing: it costs an atomic
      // increment per allocation.
      phoebe::Profiler::EnableAllocTracking(tracing_);
      ++next_bound;
    }
    while (!thinking.empty() && thinking.top().first <= now) {
      Request* r = thinking.top().second;
      thinking.pop();
      if (submitting) {
        Submit(r);
      } else {
        --outstanding;
      }
    }
    if (!submitting && outstanding == 0) break;
    if (now >= next_progress) {
      Progress(now - start, outstanding);
      next_progress += kProgressNs;
    }

    uint64_t wake_at = next_bound < bounds.size()
                           ? bounds[next_bound]
                           : now + 10'000'000;  // draining
    wake_at = std::min(wake_at, next_progress);
    if (!thinking.empty()) wake_at = std::min(wake_at, thinking.top().first);
    {
      std::unique_lock<std::mutex> lk(mu_);
      waiting_ = true;
      cv_.wait_until(lk,
                     std::chrono::steady_clock::time_point(
                         std::chrono::nanoseconds(wake_at)),
                     [&] { return !completed_.empty(); });
      waiting_ = false;
      batch.swap(completed_);
    }
    for (Request* r : batch) {
      total_completed_ += 1;
      wl_->OnComplete(*r);
      const int w = window_of(r->end_ns);
      if (w >= 0) {
        const size_t wi = static_cast<size_t>(w);
        Tally& t = tally_[windows[wi].traced ? 1 : 0];
        const size_t n = static_cast<size_t>(
            (bounds[wi + 1] - bounds[wi]) / sub_ns[wi]);
        const size_t sub = std::min<size_t>(
            n - 1, static_cast<size_t>((r->end_ns - bounds[wi]) / sub_ns[wi]));
        Account(*r, &t, &t.subs[first_sub[wi] + sub]);
      }
      if (submitting) {
        // Exponential think time, drawn from the client's own stream.
        const double u =
            static_cast<double>(Mix64(r->jitter) >> 11) * 0x1.0p-53;
        thinking.emplace(
            r->end_ns + static_cast<uint64_t>(-kThinkNs * std::log1p(-u)), r);
      } else {
        --outstanding;
      }
    }
    batch.clear();
  }
  sched_->Stop();
}

}  // namespace perfbench
