#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/frozen_block.h"
#include "storage/frozen_store.h"
#include "storage/table_leaf.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

Schema SmallSchema() {
  return Schema({
      {"id", ColumnType::kInt64, 0, false},
      {"qty", ColumnType::kInt32, 0, false},
      {"price", ColumnType::kDouble, 0, true},
      {"name", ColumnType::kString, 24, false},
  });
}

std::string MakeRow(const Schema& s, int64_t id, int32_t qty, double price,
                    const std::string& name) {
  RowBuilder b(&s);
  b.SetInt64(0, id).SetInt32(1, qty).SetDouble(2, price).SetString(3, name);
  return b.Encode().value();
}

// --- TableLeaf (PAX) ---------------------------------------------------------

TEST(TableLeafTest, LayoutFitsPage) {
  Schema s = SmallSchema();
  TableLeafLayout layout = TableLeafLayout::Compute(s);
  EXPECT_GT(layout.capacity(), 100u);
  // Wide schema (e.g. TPC-C customer-like) still gets a sane capacity.
  Schema wide({{"a", ColumnType::kInt64, 0, false},
               {"b", ColumnType::kString, 500, false},
               {"c", ColumnType::kString, 500, false}});
  TableLeafLayout wide_layout = TableLeafLayout::Compute(wide);
  EXPECT_GT(wide_layout.capacity(), 4u);
  EXPECT_LT(wide_layout.capacity(), 32u);
}

TEST(TableLeafTest, InsertReadUpdateErase) {
  Schema s = SmallSchema();
  TableLeafLayout layout = TableLeafLayout::Compute(s);
  std::vector<char> page(kPageSize);
  TableLeaf::Init(page.data(), s, layout, /*first_row_id=*/100);
  TableLeaf leaf(page.data(), &s, &layout);

  EXPECT_TRUE(leaf.InRange(100));
  EXPECT_TRUE(leaf.InRange(100 + layout.capacity() - 1));
  EXPECT_FALSE(leaf.InRange(99));
  EXPECT_FALSE(leaf.InRange(100 + layout.capacity()));

  std::string row = MakeRow(s, 7, 3, 9.5, "widget");
  ASSERT_OK(leaf.InsertRow(5, RowView(&s, row.data())));
  EXPECT_TRUE(leaf.IsLive(5));
  EXPECT_FALSE(leaf.IsLive(6));
  EXPECT_EQ(leaf.live_count(), 1u);

  Arena arena;
  Result<Slice> got = leaf.ReadRowTo(5, &arena);
  ASSERT_OK_R(got);
  RowView v(&s, got.value().data());
  EXPECT_EQ(v.GetInt64(0), 7);
  EXPECT_EQ(v.GetString(3), Slice("widget"));

  // Double insert into a live slot fails.
  EXPECT_TRUE(leaf.InsertRow(5, RowView(&s, row.data())).IsAlreadyExists());

  // In-place update.
  std::string row2 = MakeRow(s, 7, 42, 1.25, "gadget");
  ASSERT_OK(leaf.UpdateRow(5, RowView(&s, row2.data())));
  got = leaf.ReadRowTo(5, &arena);
  ASSERT_OK_R(got);
  EXPECT_EQ(RowView(&s, got.value().data()).GetInt32(1), 42);
  EXPECT_EQ(RowView(&s, got.value().data()).GetString(3), Slice("gadget"));

  // Deleted marker.
  EXPECT_FALSE(leaf.IsDeleted(5));
  ASSERT_OK(leaf.SetDeleted(5, true));
  EXPECT_TRUE(leaf.IsDeleted(5));
  ASSERT_OK(leaf.SetDeleted(5, false));

  ASSERT_OK(leaf.EraseRow(5));
  EXPECT_FALSE(leaf.IsLive(5));
  EXPECT_TRUE(leaf.ReadRowTo(5, &arena).status().IsNotFound());
  EXPECT_TRUE(leaf.UpdateRow(5, RowView(&s, row.data())).IsNotFound());
}

TEST(TableLeafTest, FillToCapacity) {
  Schema s = SmallSchema();
  TableLeafLayout layout = TableLeafLayout::Compute(s);
  std::vector<char> page(kPageSize);
  TableLeaf::Init(page.data(), s, layout, 1);
  TableLeaf leaf(page.data(), &s, &layout);
  for (uint16_t i = 0; i < layout.capacity(); ++i) {
    std::string row = MakeRow(s, i, i * 2, i * 0.5, "n" + std::to_string(i));
    ASSERT_OK(leaf.InsertRow(i, RowView(&s, row.data())));
  }
  EXPECT_EQ(leaf.live_count(), layout.capacity());
  EXPECT_TRUE(
      leaf.InsertRow(layout.capacity(), RowView(&s, MakeRow(s, 0, 0, 0, "x").data()))
          .IsInvalidArgument());
  Arena arena;
  for (uint16_t i = 0; i < layout.capacity(); ++i) {
    Result<Slice> got = leaf.ReadRowTo(i, &arena);
    ASSERT_OK_R(got);
    ASSERT_EQ(RowView(&s, got.value().data()).GetInt64(0), i);
  }
}

TEST(TableLeafTest, NullHandling) {
  Schema s = SmallSchema();
  TableLeafLayout layout = TableLeafLayout::Compute(s);
  std::vector<char> page(kPageSize);
  TableLeaf::Init(page.data(), s, layout, 1);
  TableLeaf leaf(page.data(), &s, &layout);
  RowBuilder b(&s);
  b.SetInt64(0, 1).SetInt32(1, 2).SetNull(2).SetString(3, "x");
  std::string row = b.Encode().value();
  ASSERT_OK(leaf.InsertRow(0, RowView(&s, row.data())));
  Arena arena;
  Result<Slice> got = leaf.ReadRowTo(0, &arena);
  ASSERT_OK_R(got);
  // Reading the PAX slot back reproduces the encoded row byte for byte.
  EXPECT_EQ(got.value(), Slice(row));
  EXPECT_TRUE(RowView(&s, got.value().data()).IsNull(2));
  EXPECT_FALSE(RowView(&s, got.value().data()).IsNull(1));
}

// --- Frozen block codec --------------------------------------------------------

TEST(FrozenBlockTest, EncodeDecodeRoundTrip) {
  Schema s = SmallSchema();
  std::vector<RowId> rids = {10, 11, 15, 100};
  std::vector<std::string> rows;
  for (size_t i = 0; i < rids.size(); ++i) {
    rows.push_back(MakeRow(s, static_cast<int64_t>(rids[i]), 5, 2.5,
                           "row" + std::to_string(i)));
  }
  Result<std::string> block = FrozenBlockCodec::Encode(s, rids, rows);
  ASSERT_OK_R(block);
  Result<FrozenBlockCodec::DecodedBlock> decoded =
      FrozenBlockCodec::Decode(s, block.value());
  ASSERT_OK_R(decoded);
  EXPECT_EQ(decoded.value().row_ids, rids);
  for (size_t i = 0; i < rids.size(); ++i) {
    EXPECT_EQ(decoded.value().rows[i], rows[i]);
  }
  EXPECT_EQ(decoded.value().Find(15), 2);
  EXPECT_EQ(decoded.value().Find(16), -1);
}

TEST(FrozenBlockTest, CompressionShrinksRepetitiveData) {
  Schema s = SmallSchema();
  std::vector<RowId> rids;
  std::vector<std::string> rows;
  size_t raw = 0;
  for (int i = 0; i < 500; ++i) {
    rids.push_back(1000 + i);
    rows.push_back(MakeRow(s, 5000 + i, 7, 1.0, "constantname"));
    raw += rows.back().size();
  }
  Result<std::string> block = FrozenBlockCodec::Encode(s, rids, rows);
  ASSERT_OK_R(block);
  // FOR+varint ints and short strings: expect meaningful compression.
  EXPECT_LT(block.value().size(), raw * 3 / 4);
}

TEST(FrozenBlockTest, ChecksumDetectsCorruption) {
  Schema s = SmallSchema();
  std::vector<RowId> rids = {1, 2};
  std::vector<std::string> rows = {MakeRow(s, 1, 1, 1, "a"),
                                   MakeRow(s, 2, 2, 2, "b")};
  std::string block = FrozenBlockCodec::Encode(s, rids, rows).value();
  block[block.size() / 2] ^= 0x40;
  EXPECT_TRUE(FrozenBlockCodec::Decode(s, block).status().IsCorruption());
}

TEST(FrozenBlockTest, RejectsNonIncreasingRowIds) {
  Schema s = SmallSchema();
  std::vector<RowId> rids = {5, 5};
  std::vector<std::string> rows = {MakeRow(s, 1, 1, 1, "a"),
                                   MakeRow(s, 2, 2, 2, "b")};
  EXPECT_TRUE(
      FrozenBlockCodec::Encode(s, rids, rows).status().IsInvalidArgument());
}

TEST(FrozenBlockTest, ColumnProjectionSkipsOtherStreams) {
  // Schema deliberately puts variable-width and nullable columns BEFORE the
  // projected ones so the skip logic is exercised.
  Schema s({{"name", ColumnType::kString, 32, true},
            {"pad", ColumnType::kDouble, 0, true},
            {"qty", ColumnType::kInt32, 0, true},
            {"amount", ColumnType::kDouble, 0, false}});
  std::vector<RowId> rids;
  std::vector<std::string> rows;
  Random rng(9);
  int64_t qty_sum = 0;
  double amount_sum = 0;
  for (int i = 0; i < 300; ++i) {
    rids.push_back(static_cast<RowId>(10 + i * 2));
    RowBuilder b(&s);
    if (rng.OneIn(3)) {
      b.SetNull(0);
    } else {
      b.SetString(0, std::string(rng.Uniform(32), 'x'));
    }
    if (rng.OneIn(4)) b.SetNull(1); else b.SetDouble(1, 1.5);
    if (rng.OneIn(5)) {
      b.SetNull(2);
    } else {
      int32_t q = static_cast<int32_t>(rng.Uniform(100));
      b.SetInt32(2, q);
      qty_sum += q;
    }
    double a = static_cast<double>(i) * 0.25;
    b.SetDouble(3, a);
    amount_sum += a;
    rows.push_back(b.Encode().value());
  }
  std::string block = FrozenBlockCodec::Encode(s, rids, rows).value();

  int64_t got_qty = 0;
  int qty_rows = 0;
  ASSERT_OK(FrozenBlockCodec::DecodeColumnInt64(
      s, block, 2, [&](RowId rid, int64_t v) {
        EXPECT_GE(rid, 10u);
        got_qty += v;
        ++qty_rows;
        return true;
      }));
  EXPECT_EQ(got_qty, qty_sum);
  EXPECT_LT(qty_rows, 300);  // nulls skipped

  double got_amount = 0;
  ASSERT_OK(FrozenBlockCodec::DecodeColumnDouble(
      s, block, 3, [&](RowId, double v) {
        got_amount += v;
        return true;
      }));
  EXPECT_DOUBLE_EQ(got_amount, amount_sum);

  // Early stop works.
  int seen = 0;
  ASSERT_OK(FrozenBlockCodec::DecodeColumnInt64(
      s, block, 2, [&](RowId, int64_t) { return ++seen < 5; }));
  EXPECT_EQ(seen, 5);

  // Type/arg errors.
  EXPECT_TRUE(FrozenBlockCodec::DecodeColumnInt64(s, block, 0, nullptr)
                  .IsInvalidArgument());
  EXPECT_TRUE(FrozenBlockCodec::DecodeColumnDouble(s, block, 2, nullptr)
                  .IsInvalidArgument());
}

// Property sweep: random schemas/rows round-trip through the codec.
class FrozenCodecPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FrozenCodecPropertyTest, RandomRoundTrip) {
  Random rng(GetParam() * 31 + 7);
  Schema s({{"i32", ColumnType::kInt32, 0, true},
            {"i64", ColumnType::kInt64, 0, false},
            {"f", ColumnType::kDouble, 0, true},
            {"s", ColumnType::kString, 64, true}});
  std::vector<RowId> rids;
  std::vector<std::string> rows;
  RowId rid = 1;
  int n = 1 + static_cast<int>(rng.Uniform(400));
  for (int i = 0; i < n; ++i) {
    rid += 1 + rng.Uniform(3);
    rids.push_back(rid);
    RowBuilder b(&s);
    if (rng.OneIn(4)) b.SetNull(0); else b.SetInt32(0, static_cast<int32_t>(rng.Next()));
    b.SetInt64(1, static_cast<int64_t>(rng.Next()));
    if (rng.OneIn(4)) b.SetNull(2); else b.SetDouble(2, static_cast<double>(rng.Next()) / 3.0);
    if (rng.OneIn(4)) {
      b.SetNull(3);
    } else {
      b.SetString(3, std::string(rng.Uniform(64), static_cast<char>('a' + rng.Uniform(26))));
    }
    rows.push_back(b.Encode().value());
  }
  auto block = FrozenBlockCodec::Encode(s, rids, rows);
  ASSERT_OK_R(block);
  auto decoded = FrozenBlockCodec::Decode(s, block.value());
  ASSERT_OK_R(decoded);
  ASSERT_EQ(decoded.value().row_ids, rids);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(decoded.value().rows[i], rows[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrozenCodecPropertyTest, ::testing::Range(0, 10));

// --- FrozenStore ----------------------------------------------------------------

class FrozenStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TestDir>("frozen");
    schema_ = SmallSchema();
    auto store = FrozenStore::Open(Env::Default(), dir_->path(), "t", &schema_);
    ASSERT_OK_R(store);
    store_ = std::move(store.value());
  }

  void Freeze(RowId first, int count, RowId range_end) {
    std::vector<RowId> rids;
    std::vector<std::string> rows;
    for (int i = 0; i < count; ++i) {
      rids.push_back(first + i);
      rows.push_back(MakeRow(schema_, static_cast<int64_t>(first + i), i,
                             1.0, "x"));
    }
    ASSERT_OK(store_->FreezeBlock(rids, rows, range_end));
  }

  std::unique_ptr<TestDir> dir_;
  Schema schema_;
  std::unique_ptr<FrozenStore> store_;
};

TEST_F(FrozenStoreTest, FreezeAndRead) {
  Freeze(1, 50, 60);
  EXPECT_EQ(store_->max_frozen_row_id(), 60u);
  EXPECT_EQ(store_->num_blocks(), 1u);
  std::string row;
  ASSERT_OK(store_->ReadRow(25, &row));
  EXPECT_EQ(RowView(&schema_, row.data()).GetInt64(0), 25);
  EXPECT_TRUE(store_->ReadRow(55, &row).IsNotFound());  // gap in range
  EXPECT_TRUE(store_->ReadRow(61, &row).IsNotFound());  // beyond watermark
}

TEST_F(FrozenStoreTest, TombstonesHideRows) {
  Freeze(1, 50, 50);
  store_->MarkDeleted(10);
  EXPECT_TRUE(store_->IsDeleted(10));
  std::string row;
  EXPECT_TRUE(store_->ReadRow(10, &row).IsNotFound());
  ASSERT_OK(store_->ReadRow(11, &row));
  int visible = 0;
  ASSERT_OK(store_->Scan([&](RowId, const std::string&) {
    ++visible;
    return true;
  }));
  EXPECT_EQ(visible, 49);
}

TEST_F(FrozenStoreTest, WatermarkOnlyRecords) {
  // An empty leaf advances the watermark without a data block.
  ASSERT_OK(store_->FreezeBlock({}, {}, 100));
  EXPECT_EQ(store_->max_frozen_row_id(), 100u);
  EXPECT_EQ(store_->num_blocks(), 0u);
}

TEST_F(FrozenStoreTest, PersistsAcrossReopen) {
  Freeze(1, 30, 30);
  store_->MarkDeleted(5);
  ASSERT_OK(store_->Checkpoint());
  store_.reset();

  auto reopened = FrozenStore::Open(Env::Default(), dir_->path(), "t", &schema_);
  ASSERT_OK_R(reopened);
  EXPECT_EQ(reopened.value()->max_frozen_row_id(), 30u);
  std::string row;
  ASSERT_OK(reopened.value()->ReadRow(20, &row));
  EXPECT_TRUE(reopened.value()->ReadRow(5, &row).IsNotFound());  // tombstone
}

TEST_F(FrozenStoreTest, HotFrozenRowsAfterRepeatedReads) {
  Freeze(1, 20, 20);
  std::string row;
  for (int i = 0; i < 50; ++i) ASSERT_OK(store_->ReadRow(3, &row));
  std::vector<RowId> hot = store_->HotFrozenRows(/*threshold=*/40, 100);
  EXPECT_EQ(hot.size(), 20u);  // whole block is warming candidate
  // Counter reset after selection.
  EXPECT_TRUE(store_->HotFrozenRows(40, 100).empty());
}

TEST_F(FrozenStoreTest, ColumnScanHonorsTombstones) {
  Freeze(1, 30, 30);
  store_->MarkDeleted(5);
  store_->MarkDeleted(6);
  int64_t count = 0;
  ASSERT_OK(store_->ScanColumnInt64(0, [&](RowId rid, int64_t v) {
    EXPECT_EQ(static_cast<RowId>(v), rid);  // id column mirrors the rid
    EXPECT_NE(rid, 5u);
    EXPECT_NE(rid, 6u);
    ++count;
    return true;
  }));
  EXPECT_EQ(count, 28);
}

TEST_F(FrozenStoreTest, ReadsThroughCacheEviction) {
  // More distinct blocks than the decoded-block cache holds: the second
  // pass re-decodes blocks the first pass evicted.
  constexpr int kRowsPerBlock = 4;
  const int blocks = static_cast<int>(FrozenStore::kCacheBlocks) + 16;
  for (int b = 0; b < blocks; ++b) {
    RowId first = static_cast<RowId>(b * kRowsPerBlock + 1);
    Freeze(first, kRowsPerBlock, first + kRowsPerBlock - 1);
  }
  ASSERT_EQ(store_->num_blocks(), static_cast<size_t>(blocks));
  std::string row;
  for (int pass = 0; pass < 2; ++pass) {
    for (RowId rid = 1; rid <= static_cast<RowId>(blocks * kRowsPerBlock);
         ++rid) {
      ASSERT_OK(store_->ReadRow(rid, &row));
      RowView v(&schema_, row.data());
      EXPECT_EQ(v.GetInt64(0), static_cast<int64_t>(rid));
      EXPECT_EQ(v.GetInt32(1), static_cast<int32_t>((rid - 1) % kRowsPerBlock));
    }
  }
}

TEST_F(FrozenStoreTest, RejectsFreezeBelowWatermark) {
  Freeze(1, 10, 10);
  std::vector<RowId> rids = {5};
  std::vector<std::string> rows = {MakeRow(schema_, 5, 1, 1.0, "x")};
  EXPECT_TRUE(store_->FreezeBlock(rids, rows, 10).IsInvalidArgument());
}

}  // namespace
}  // namespace phoebe
