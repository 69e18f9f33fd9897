#include <vector>

#include "tpcc/tpcc_driver.h"
#include "tpcc/tpcc_loader.h"
#include "tpcc/tpcc_txns.h"
#include "workloads.h"

namespace perfbench {
namespace {

using phoebe::Database;
using phoebe::DatabaseOptions;
using phoebe::Status;
using phoebe::TaskEnv;
using phoebe::TxnTask;
namespace tpcc = phoebe::tpcc;

constexpr int kWarehouses = 2;
// Spec-scale data takes about 250 MB on disk after its checkpoint; the
// buffer holds over 4x that.
constexpr uint64_t kBufferBytes = 1ull << 30;

enum Type { kNewOrder = 0, kPayment, kOrderStatus, kDelivery, kStockLevel };

/// A client's next transaction; only the field of its type is meaningful.
struct Input {
  tpcc::NewOrderParams no;
  tpcc::PaymentParams pay;
  tpcc::OrderStatusParams os;
  tpcc::DeliveryParams del;
  tpcc::StockLevelParams sl;
};

class TpccWorkload : public Workload {
 public:
  explicit TpccWorkload(uint64_t seed)
      : scale_(tpcc::ScaleConfig::Spec(kWarehouses)) {
    scale_.seed = seed;
    inputs_.resize(Harness::kClients);
    for (uint32_t c = 0; c < Harness::kClients; ++c) {
      rnd_.emplace_back(seed * 0x9E3779B97F4A7C15ull + c + 1);
    }
  }

  DatabaseOptions Options(uint32_t workers) const override {
    DatabaseOptions o;
    o.workers = workers;
    o.slots_per_worker = kSlotsPerWorker;
    o.wal_sync = kWalSync;
    o.buffer_bytes = kBufferBytes;
    return o;
  }

  Status Load(Database* db) override {
    return Use(db, tpcc::LoadTpcc(db, scale_));
  }

  Status Attach(Database* db) override {
    return Use(db, tpcc::GetTpccTables(db));
  }

  Status Use(Database* db, phoebe::Result<tpcc::Tables> tables) {
    if (!tables.ok()) return tables.status();
    wl_ = std::make_unique<tpcc::Workload>();
    wl_->db = db;
    wl_->tables = tables.value();
    wl_->scale = scale_;
    // Indexed by task slot: tells a user rollback from a system abort.
    wl_->last_abort_user.assign(db->options().total_slots(), 0);
    return Status::OK();
  }

  int num_types() const override { return 5; }
  const char* type_name(int type) const override {
    return kTpccTypeNames[type];
  }
  double type_weight(int type) const override {
    return type == kNewOrder ? 0.45 : type == kPayment ? 0.43 : 0.04;
  }
  int write_type() const override { return kNewOrder; }

  void Next(Request* r) override {
    tpcc::TpccRandom* rnd = &rnd_[r->client];
    Input& in = inputs_[r->client];
    const int32_t w_id = HomeWarehouse(r->client);
    // The standard 45/43/4/4/4 mix.
    int64_t roll = rnd->Uniform(1, 100);
    if (roll <= 45) {
      r->type = kNewOrder;
      in.no = tpcc::MakeNewOrderParams(rnd, scale_, w_id);
    } else if (roll <= 88) {
      r->type = kPayment;
      in.pay = tpcc::MakePaymentParams(rnd, scale_, w_id);
    } else if (roll <= 92) {
      r->type = kOrderStatus;
      in.os = tpcc::MakeOrderStatusParams(rnd, scale_, w_id);
    } else if (roll <= 96) {
      r->type = kDelivery;
      in.del = tpcc::MakeDeliveryParams(rnd, w_id);
    } else {
      r->type = kStockLevel;
      in.sl = tpcc::MakeStockLevelParams(rnd, w_id);
    }
    r->jitter = rnd->rng().Next();
  }

  // Workload affinity: a client keeps one home warehouse, and each
  // warehouse's clients submit to one worker.
  uint32_t HomeWorker(uint32_t client, uint32_t workers) const override {
    return static_cast<uint32_t>(HomeWarehouse(client) - 1) % workers;
  }

  TxnTask Attempt(Request* r, TaskEnv* env) override {
    const Input& in = inputs_[r->client];
    switch (r->type) {
      case kNewOrder: return tpcc::NewOrderTxn(wl_.get(), env, in.no);
      case kPayment: return tpcc::PaymentTxn(wl_.get(), env, in.pay);
      case kOrderStatus: return tpcc::OrderStatusTxn(wl_.get(), env, in.os);
      case kDelivery: return tpcc::DeliveryTxn(wl_.get(), env, in.del);
      default: return tpcc::StockLevelTxn(wl_.get(), env, in.sl);
    }
  }

  bool UserAbort(const Status& st, TaskEnv* env) override {
    return st.IsAborted() && env->global_slot_id < wl_->last_abort_user.size() &&
           wl_->last_abort_user[env->global_slot_id] != 0;
  }

  Status Check() override { return tpcc::CheckConsistency(wl_.get()); }

 private:
  static int32_t HomeWarehouse(uint32_t client) {
    return static_cast<int32_t>(client % kWarehouses) + 1;
  }

  tpcc::ScaleConfig scale_;
  std::vector<tpcc::TpccRandom> rnd_;  // one stream per client
  std::vector<Input> inputs_;
  std::unique_ptr<tpcc::Workload> wl_;
};

}  // namespace

std::unique_ptr<Workload> MakeTpccWorkload(uint64_t seed) {
  return std::make_unique<TpccWorkload>(seed);
}

}  // namespace perfbench
