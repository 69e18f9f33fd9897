#include "tpcc/tpcc_loader.h"

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "tpcc/tpcc_random.h"

namespace phoebe {
namespace tpcc {

namespace {

constexpr int64_t kLoadDate = 1735689600000000;  // 2025-01-01 in micros

struct LoadCtx {
  Database* db;
  const ScaleConfig* cfg;
  Tables* tables;
  OpContext op;
  uint32_t slot;
  TpccRandom rnd;
  Transaction* txn = nullptr;
  int pending = 0;
  Status status;

  LoadCtx(Database* db, const ScaleConfig* cfg, Tables* tables, uint32_t slot,
          uint64_t seed)
      : db(db), cfg(cfg), tables(tables), slot(slot), rnd(seed) {
    op.synchronous = true;
    op.partition = slot % db->options().workers;
  }

  Transaction* Txn() {
    if (txn == nullptr) txn = db->Begin(slot);
    return txn;
  }

  Status MaybeCommit(int batch = 512) {
    if (++pending < batch || txn == nullptr) return Status::OK();
    Status st = db->Commit(&op, txn);
    txn = nullptr;
    pending = 0;
    return st;
  }

  Status FinishCommit() {
    if (txn == nullptr) return Status::OK();
    Status st = db->Commit(&op, txn);
    txn = nullptr;
    pending = 0;
    return st;
  }

  Status Insert(Table* table, const RowBuilder& builder) {
    Result<std::string> row = builder.Encode();
    if (!row.ok()) return row.status();
    RowId rid = 0;
    PHOEBE_RETURN_IF_ERROR(table->Insert(&op, Txn(), row.value(), &rid));
    return MaybeCommit();
  }
};

Status LoadItems(LoadCtx* ctx) {
  Table* item = ctx->tables->item;
  for (int i = 1; i <= ctx->cfg->items; ++i) {
    RowBuilder b(&item->schema());
    b.SetInt32(Item::kId, i)
        .SetInt32(Item::kImId, static_cast<int32_t>(ctx->rnd.Uniform(1, 10000)))
        .SetString(Item::kName, ctx->rnd.AString(14, 24))
        .SetDouble(Item::kPrice, ctx->rnd.Price())
        .SetString(Item::kData, ctx->rnd.DataString(26, 50));
    PHOEBE_RETURN_IF_ERROR(ctx->Insert(item, b));
  }
  return ctx->FinishCommit();
}

Status LoadWarehouse(LoadCtx* ctx, int w_id) {
  const ScaleConfig& cfg = *ctx->cfg;
  TpccRandom& rnd = ctx->rnd;
  Tables& t = *ctx->tables;

  {
    RowBuilder b(&t.warehouse->schema());
    b.SetInt32(Warehouse::kId, w_id)
        .SetString(Warehouse::kName, rnd.AString(6, 10))
        .SetString(Warehouse::kStreet1, rnd.AString(10, 20))
        .SetString(Warehouse::kStreet2, rnd.AString(10, 20))
        .SetString(Warehouse::kCity, rnd.AString(10, 20))
        .SetString(Warehouse::kState, rnd.AString(2, 2))
        .SetString(Warehouse::kZip, rnd.Zip())
        .SetDouble(Warehouse::kTax, rnd.Tax())
        .SetDouble(Warehouse::kYtd, 300000.0);
    PHOEBE_RETURN_IF_ERROR(ctx->Insert(t.warehouse, b));
  }

  // Stock.
  for (int i = 1; i <= cfg.items; ++i) {
    RowBuilder b(&t.stock->schema());
    b.SetInt32(Stock::kIId, i)
        .SetInt32(Stock::kWId, w_id)
        .SetInt32(Stock::kQuantity,
                  static_cast<int32_t>(rnd.Uniform(10, 100)))
        .SetDouble(Stock::kYtd, 0)
        .SetInt32(Stock::kOrderCnt, 0)
        .SetInt32(Stock::kRemoteCnt, 0)
        .SetString(Stock::kData, rnd.DataString(26, 50));
    for (uint32_t d = Stock::kDist01; d <= Stock::kDist10; ++d) {
      b.SetString(d, rnd.AString(24, 24));
    }
    PHOEBE_RETURN_IF_ERROR(ctx->Insert(t.stock, b));
  }

  for (int d_id = 1; d_id <= cfg.districts_per_warehouse; ++d_id) {
    {
      RowBuilder b(&t.district->schema());
      b.SetInt32(District::kId, d_id)
          .SetInt32(District::kWId, w_id)
          .SetString(District::kName, rnd.AString(6, 10))
          .SetString(District::kStreet1, rnd.AString(10, 20))
          .SetString(District::kStreet2, rnd.AString(10, 20))
          .SetString(District::kCity, rnd.AString(10, 20))
          .SetString(District::kState, rnd.AString(2, 2))
          .SetString(District::kZip, rnd.Zip())
          .SetDouble(District::kTax, rnd.Tax())
          .SetDouble(District::kYtd, 30000.0)
          .SetInt32(District::kNextOId, cfg.initial_orders_per_district + 1);
      PHOEBE_RETURN_IF_ERROR(ctx->Insert(t.district, b));
    }

    // Customers (+ one history row each).
    for (int c_id = 1; c_id <= cfg.customers_per_district; ++c_id) {
      // First 1000 last names sequential, rest NURand (clause 4.3.3.1).
      int64_t name_num = c_id <= 1000
                             ? c_id - 1
                             : rnd.NURandLastNameRun(999);
      RowBuilder b(&t.customer->schema());
      b.SetInt32(Customer::kId, c_id)
          .SetInt32(Customer::kDId, d_id)
          .SetInt32(Customer::kWId, w_id)
          .SetString(Customer::kFirst, rnd.AString(8, 16))
          .SetString(Customer::kMiddle, "OE")
          .SetString(Customer::kLast, TpccRandom::LastName(name_num))
          .SetString(Customer::kStreet1, rnd.AString(10, 20))
          .SetString(Customer::kStreet2, rnd.AString(10, 20))
          .SetString(Customer::kCity, rnd.AString(10, 20))
          .SetString(Customer::kState, rnd.AString(2, 2))
          .SetString(Customer::kZip, rnd.Zip())
          .SetString(Customer::kPhone, rnd.NString(16, 16))
          .SetInt64(Customer::kSince, kLoadDate)
          .SetString(Customer::kCredit,
                     rnd.Uniform(1, 10) == 1 ? "BC" : "GC")
          .SetDouble(Customer::kCreditLim, 50000.0)
          .SetDouble(Customer::kDiscount, rnd.Discount())
          .SetDouble(Customer::kBalance, -10.0)
          .SetDouble(Customer::kYtdPayment, 10.0)
          .SetInt32(Customer::kPaymentCnt, 1)
          .SetInt32(Customer::kDeliveryCnt, 0)
          .SetString(Customer::kData, rnd.AString(300, 500));
      PHOEBE_RETURN_IF_ERROR(ctx->Insert(t.customer, b));

      RowBuilder h(&t.history->schema());
      h.SetInt32(History::kCId, c_id)
          .SetInt32(History::kCDId, d_id)
          .SetInt32(History::kCWId, w_id)
          .SetInt32(History::kDId, d_id)
          .SetInt32(History::kWId, w_id)
          .SetInt64(History::kDate, kLoadDate)
          .SetDouble(History::kAmount, 10.0)
          .SetString(History::kData, rnd.AString(12, 24));
      PHOEBE_RETURN_IF_ERROR(ctx->Insert(t.history, h));
    }

    // Orders over a random permutation of customers (clause 4.3.3.1).
    std::vector<int> cust_perm(cfg.customers_per_district);
    std::iota(cust_perm.begin(), cust_perm.end(), 1);
    for (size_t i = cust_perm.size(); i > 1; --i) {
      std::swap(cust_perm[i - 1], cust_perm[rnd.rng().Uniform(i)]);
    }
    const int delivered_upto =
        cfg.initial_orders_per_district - cfg.undelivered_tail;
    for (int o_id = 1; o_id <= cfg.initial_orders_per_district; ++o_id) {
      int ol_cnt = static_cast<int>(rnd.Uniform(5, 15));
      bool delivered = o_id <= delivered_upto;
      RowBuilder b(&t.order->schema());
      b.SetInt32(Order::kId, o_id)
          .SetInt32(Order::kDId, d_id)
          .SetInt32(Order::kWId, w_id)
          .SetInt32(Order::kCId,
                    cust_perm[(o_id - 1) % cust_perm.size()])
          .SetInt64(Order::kEntryD, kLoadDate)
          .SetInt32(Order::kOlCnt, ol_cnt)
          .SetInt32(Order::kAllLocal, 1);
      if (delivered) {
        b.SetInt32(Order::kCarrierId,
                   static_cast<int32_t>(rnd.Uniform(1, 10)));
      } else {
        b.SetNull(Order::kCarrierId);
      }
      PHOEBE_RETURN_IF_ERROR(ctx->Insert(t.order, b));

      for (int ol = 1; ol <= ol_cnt; ++ol) {
        RowBuilder l(&t.order_line->schema());
        l.SetInt32(OrderLine::kOId, o_id)
            .SetInt32(OrderLine::kDId, d_id)
            .SetInt32(OrderLine::kWId, w_id)
            .SetInt32(OrderLine::kNumber, ol)
            .SetInt32(OrderLine::kIId,
                      static_cast<int32_t>(rnd.Uniform(1, cfg.items)))
            .SetInt32(OrderLine::kSupplyWId, w_id)
            .SetInt32(OrderLine::kQuantity, 5)
            .SetString(OrderLine::kDistInfo, rnd.AString(24, 24));
        if (delivered) {
          l.SetInt64(OrderLine::kDeliveryD, kLoadDate);
          l.SetDouble(OrderLine::kAmount, 0.0);
        } else {
          l.SetNull(OrderLine::kDeliveryD);
          l.SetDouble(OrderLine::kAmount,
                      static_cast<double>(rnd.Uniform(1, 999999)) / 100.0);
        }
        PHOEBE_RETURN_IF_ERROR(ctx->Insert(t.order_line, l));
      }
      if (!delivered) {
        RowBuilder n(&t.new_order->schema());
        n.SetInt32(NewOrder::kOId, o_id)
            .SetInt32(NewOrder::kDId, d_id)
            .SetInt32(NewOrder::kWId, w_id);
        PHOEBE_RETURN_IF_ERROR(ctx->Insert(t.new_order, n));
      }
    }
  }
  return ctx->FinishCommit();
}

}  // namespace

Result<Tables> LoadTpcc(Database* db, const ScaleConfig& config) {
  Result<Tables> tables = CreateTpccTables(db);
  if (!tables.ok()) return tables;
  Tables t = tables.value();

  bool prev_sync = true;  // engine default
  if (!config.sync_wal_during_load) {
    db->wal()->set_sync_on_flush(false);
  }

  // Items once (aux slot 0).
  {
    LoadCtx ctx(db, &config, &t, db->aux_slot(0), config.seed);
    Status st = LoadItems(&ctx);
    if (!st.ok()) return Result<Tables>(st);
  }

  // Warehouses in parallel across aux slots.
  int threads = std::max(1, std::min<int>(config.load_threads,
                                          db->options().aux_slots));
  std::atomic<int> next_w{1};
  std::vector<Status> statuses(threads);
  std::vector<std::thread> workers;
  for (int i = 0; i < threads; ++i) {
    workers.emplace_back([&, i] {
      LoadCtx ctx(db, &config, &t, db->aux_slot(i),
                  config.seed * 7919 + i + 1);
      for (;;) {
        int w = next_w.fetch_add(1);
        if (w > config.warehouses) break;
        Status st = LoadWarehouse(&ctx, w);
        if (!st.ok()) {
          statuses[i] = st;
          break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& st : statuses) {
    if (!st.ok()) return Result<Tables>(st);
  }

  if (!config.sync_wal_during_load && prev_sync) {
    db->wal()->set_sync_on_flush(db->options().wal_sync);
  }
  return Result<Tables>(t);
}

}  // namespace tpcc
}  // namespace phoebe
