#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "storage/schema.h"
#include "workloads.h"

namespace perfbench {
namespace {

using phoebe::Database;
using phoebe::DatabaseOptions;
using phoebe::OpContext;
using phoebe::RowBuilder;
using phoebe::RowId;
using phoebe::RowView;
using phoebe::Slice;
using phoebe::Status;
using phoebe::Table;
using phoebe::TaskEnv;
using phoebe::Transaction;
using phoebe::TxnTask;
using phoebe::Value;

constexpr uint64_t kRows = 1'000'000;
constexpr double kTheta = 0.99;
constexpr int kReadPct = 95;
constexpr int kReadKeys = 8;
constexpr int kRmwKeys = 2;
constexpr size_t kPayloadBytes = 84;  // rows encode to about 100 B
// About half of the ~145 MB the table and its index occupy: the zipfian
// tail misses the buffer, so the mix reads and evicts pages.
constexpr uint64_t kBufferBytes = 64ull << 20;
// The load runs with a buffer that holds all of the data: a synchronous
// load into a buffer below about 128 MiB fails with BufferFull.
constexpr uint64_t kLoadBufferBytes = 256ull << 20;
// WAL volume between background checkpoints: the clients write about
// 40 KB of WAL per second, so over a dozen checkpoints complete in a 30 s
// window. The load runs without the trigger.
constexpr uint64_t kCheckpointWalBytes = 64ull << 10;
constexpr uint64_t kLoadBatch = 1000;

enum Column : uint32_t { kId = 0, kCounter = 1, kPayload = 2 };
enum Type { kRead = 0, kRmw = 1 };
constexpr const char* kTypeNames[] = {"read", "rmw"};

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The payload of row `id`: derived from the seed so every read can be
/// checked against it.
void FillPayload(uint64_t seed, int64_t id, char* out) {
  uint64_t x = Mix(seed ^ static_cast<uint64_t>(id));
  for (size_t i = 0; i < kPayloadBytes; ++i) {
    if (i % 8 == 0) x = Mix(x);
    out[i] = static_cast<char>('a' + ((x >> ((i % 8) * 8)) & 0xff) % 26);
  }
}

/// Zipfian ranks (Gray et al.), scattered over the key space by a
/// multiplicative permutation so hot keys do not share leaves.
class ScrambledZipf {
 public:
  ScrambledZipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zeta_n = 0;
    for (uint64_t i = 1; i <= n; ++i) zeta_n += 1.0 / std::pow(double(i), theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zeta_n_ = zeta_n;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
           (1.0 - zeta2 / zeta_n);
    half_pow_ = 1.0 + std::pow(0.5, theta);
  }

  int64_t Next(phoebe::Random* rng) const {
    const double u = rng->NextDouble();
    const double uz = u * zeta_n_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < half_pow_) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(double(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
      rank = std::min(rank, n_ - 1);
    }
    // 982451653 is prime and coprime to 10^6, so this is a bijection.
    return static_cast<int64_t>((rank * 982451653ull) % n_);
  }

 private:
  uint64_t n_;
  double theta_;
  double zeta_n_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
  double half_pow_ = 0;
};

struct Input {
  int nkeys = 0;
  int64_t keys[kReadKeys] = {};
};

class KvWorkload : public Workload {
 public:
  explicit KvWorkload(uint64_t seed)
      : seed_(seed),
        zipf_(kRows, kTheta),
        schema_({{"id", phoebe::ColumnType::kInt64, 0, false},
                 {"counter", phoebe::ColumnType::kInt64, 0, false},
                 {"payload", phoebe::ColumnType::kString,
                  static_cast<uint32_t>(kPayloadBytes), false}}) {
    inputs_.resize(Harness::kClients);
    for (uint32_t c = 0; c < Harness::kClients; ++c) {
      rng_.emplace_back(Mix(seed + c + 1));
    }
  }

  DatabaseOptions Options(uint32_t workers) const override {
    DatabaseOptions o;
    o.workers = workers;
    o.slots_per_worker = kSlotsPerWorker;
    o.wal_sync = kWalSync;
    o.buffer_bytes = kBufferBytes;
    o.checkpoint_wal_bytes = kCheckpointWalBytes;
    return o;
  }

  DatabaseOptions LoadOptions(uint32_t workers) const override {
    DatabaseOptions o = Options(workers);
    o.buffer_bytes = kLoadBufferBytes;
    o.checkpoint_wal_bytes = 0;
    return o;
  }

  Status Load(Database* db) override {
    db_ = db;
    rmw_committed_ = 0;
    read_mismatches_.store(0);
    phoebe::Result<Table*> t = db->CreateTable("kv", schema_);
    if (!t.ok()) return t.status();
    table_ = t.value();
    Status st = db->CreateIndex("kv", "pk", {kId}, /*unique=*/true);
    if (!st.ok()) return st;

    // Bulk load without per-commit fsync, like the TPC-C loader. One thread
    // loads faster here than four did.
    db->wal()->set_sync_on_flush(false);
    st = LoadRows(db->aux_slot(0));
    db->wal()->set_sync_on_flush(db->options().wal_sync);
    return st;
  }

  Status Attach(Database* db) override {
    db_ = db;
    phoebe::Result<Table*> t = db->GetTable("kv");
    if (!t.ok()) return t.status();
    table_ = t.value();
    return Status::OK();
  }

  int num_types() const override { return 2; }
  const char* type_name(int type) const override { return kTypeNames[type]; }
  double type_weight(int type) const override {
    return type == kRead ? kReadPct / 100.0 : 1 - kReadPct / 100.0;
  }
  int write_type() const override { return kRmw; }

  void Next(Request* r) override {
    phoebe::Random* rng = &rng_[r->client];
    Input& in = inputs_[r->client];
    if (static_cast<int>(rng->Uniform(100)) < kReadPct) {
      r->type = kRead;
      in.nkeys = kReadKeys;
      for (int i = 0; i < kReadKeys; ++i) in.keys[i] = zipf_.Next(rng);
    } else {
      // Two distinct rows, updated in key order so that concurrent
      // read-modify-writes never deadlock.
      r->type = kRmw;
      in.nkeys = kRmwKeys;
      do {
        in.keys[0] = zipf_.Next(rng);
        in.keys[1] = zipf_.Next(rng);
      } while (in.keys[0] == in.keys[1]);
      std::sort(in.keys, in.keys + kRmwKeys);
    }
    r->jitter = rng->Next();
  }

  uint32_t HomeWorker(uint32_t client, uint32_t workers) const override {
    return client % workers;
  }

  TxnTask Attempt(Request* r, TaskEnv* env) override {
    return Txn(this, r, env);
  }

  bool UserAbort(const Status&, TaskEnv*) override { return false; }

  void OnComplete(const Request& r) override {
    if (r.type == kRmw && r.status.ok()) rmw_committed_ += 1;
  }

  /// Every row is present exactly once, and the counters sum to two per
  /// committed read-modify-write.
  Status Check() override {
    if (read_mismatches_.load() != 0) {
      return Status::Corruption(std::to_string(read_mismatches_.load()) +
                                " reads returned a wrong row");
    }
    OpContext ctx;
    ctx.synchronous = true;
    ctx.count_accesses = false;
    Transaction* txn = db_->Begin(db_->aux_slot(0));
    int64_t sum = 0;
    uint64_t rows = 0;
    Status st = table_->ScanColumnInt64(&ctx, txn, kCounter,
                                        [&](RowId, int64_t v) {
                                          sum += v;
                                          rows += 1;
                                          return true;
                                        });
    (void)db_->Abort(&ctx, txn);
    if (!st.ok()) return st;
    if (rows != kRows) {
      return Status::Corruption("kv: " + std::to_string(rows) + " rows, want " +
                                std::to_string(kRows));
    }
    const int64_t want = static_cast<int64_t>(rmw_committed_) * kRmwKeys;
    if (sum != want) {
      return Status::Corruption("kv: counters sum to " + std::to_string(sum) +
                                ", want " + std::to_string(want));
    }
    return Status::OK();
  }

 private:
  Status LoadRows(uint32_t slot) {
    OpContext ctx;
    ctx.synchronous = true;
    RowBuilder b(&schema_);
    char payload[kPayloadBytes];
    std::string row;
    for (uint64_t base = 0; base < kRows; base += kLoadBatch) {
      Transaction* txn = db_->Begin(slot);
      for (uint64_t id = base; id < std::min(kRows, base + kLoadBatch); ++id) {
        FillPayload(seed_, static_cast<int64_t>(id), payload);
        b.SetInt64(kId, static_cast<int64_t>(id))
            .SetInt64(kCounter, 0)
            .SetStringRef(kPayload, Slice(payload, kPayloadBytes));
        Status st = b.EncodeTo(&row);
        RowId rid = 0;
        if (st.ok()) st = table_->Insert(&ctx, txn, Slice(row), &rid);
        if (!st.ok()) {
          (void)db_->Abort(&ctx, txn);
          return st;
        }
      }
      Status st = db_->Commit(&ctx, txn);
      if (!st.ok()) return st;
    }
    return Status::OK();
  }

  bool RowMatches(Slice row, int64_t key) const {
    RowView v(&schema_, row.data());
    if (v.GetInt64(kId) != key) return false;
    char want[kPayloadBytes];
    FillPayload(seed_, key, want);
    Slice got = v.GetString(kPayload);
    return got.size() == kPayloadBytes &&
           std::memcmp(got.data(), want, kPayloadBytes) == 0;
  }

  static TxnTask Txn(KvWorkload* w, Request* r, TaskEnv* env) {
    OpContext* ctx = &env->ctx;
    Database* db = w->db_;
    Table* t = w->table_;
    const Input& in = w->inputs_[r->client];
    Transaction* txn = nullptr;
    Status st = TimedCall(r, kCallBegin, [&] {
      txn = db->Begin(env->global_slot_id);
      return Status::OK();
    });
    std::vector<Value> key(1);
    for (int i = 0; i < in.nkeys; ++i) {
      key[0] = Value::Int64(in.keys[i]);
      RowId rid = 0;
      Slice row;
      PHOEBE_CO_AWAIT(st, TimedCall(r, kCallIndexGet, [&] {
                        return t->IndexGetRef(ctx, txn, 0, key, &rid, &row);
                      }));
      if (st.ok() && !w->RowMatches(row, in.keys[i])) {
        w->read_mismatches_.fetch_add(1);
        st = Status::Corruption("kv: index returned a wrong row");
      }
      if (st.ok() && r->type == kRmw) {
        PHOEBE_CO_AWAIT(st, TimedCall(r, kCallUpdate, [&] {
                          return t->UpdateApply(
                              ctx, txn, rid,
                              [](RowView cur,
                                 std::vector<std::pair<uint32_t, Value>>* sets) {
                                sets->emplace_back(
                                    kCounter,
                                    Value::Int64(cur.GetInt64(kCounter) + 1));
                                return Status::OK();
                              });
                        }));
      }
      if (!st.ok()) {
        (void)db->Abort(ctx, txn);
        co_return st;
      }
    }
    PHOEBE_CO_AWAIT(st, TimedCall(r, kCallCommit,
                                  [&] { return db->Commit(ctx, txn); }));
    if (!st.ok()) (void)db->Abort(ctx, txn);
    co_return st;
  }

  uint64_t seed_;
  ScrambledZipf zipf_;
  phoebe::Schema schema_;
  std::vector<phoebe::Random> rng_;  // one stream per client
  std::vector<Input> inputs_;
  Database* db_ = nullptr;
  Table* table_ = nullptr;
  uint64_t rmw_committed_ = 0;  // generator thread only
  std::atomic<uint64_t> read_mismatches_{0};
};

}  // namespace

std::unique_ptr<Workload> MakeKvWorkload(uint64_t seed) {
  return std::make_unique<KvWorkload>(seed);
}

}  // namespace perfbench
