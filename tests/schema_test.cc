#include "storage/schema.h"

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/random.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

Schema TestSchema() {
  return Schema({
      {"a", ColumnType::kInt32, 0, false},
      {"b", ColumnType::kInt64, 0, false},
      {"c", ColumnType::kDouble, 0, true},
      {"d", ColumnType::kString, 40, false},
      {"e", ColumnType::kString, 10, true},
  });
}

TEST(SchemaTest, LayoutAndLookup) {
  Schema s = TestSchema();
  EXPECT_EQ(s.num_columns(), 5u);
  EXPECT_EQ(s.ColumnIndex("c"), 2);
  EXPECT_EQ(s.ColumnIndex("zzz"), -1);
  EXPECT_EQ(Schema::FixedWidth(ColumnType::kInt32), 4u);
  EXPECT_EQ(Schema::FixedWidth(ColumnType::kInt64), 8u);
  EXPECT_EQ(Schema::FixedWidth(ColumnType::kString), 4u);  // offset+len slot
  EXPECT_GT(s.max_row_size(), 40u);
}

TEST(SchemaTest, SerializeRoundTrip) {
  Schema s = TestSchema();
  std::string bytes = s.Serialize();
  Result<Schema> back = Schema::Deserialize(bytes);
  ASSERT_OK_R(back);
  EXPECT_EQ(back.value().num_columns(), 5u);
  EXPECT_EQ(back.value().column(3).name, "d");
  EXPECT_EQ(back.value().column(3).max_len, 40u);
  EXPECT_TRUE(back.value().column(4).nullable);
}

TEST(RowCodecTest, RoundTripAllTypes) {
  Schema s = TestSchema();
  RowBuilder b(&s);
  b.SetInt32(0, -42).SetInt64(1, 1ll << 40).SetDouble(2, 3.25)
      .SetString(3, "hello world").SetNull(4);
  Result<std::string> row = b.Encode();
  ASSERT_OK_R(row);
  RowView v(&s, row.value().data());
  EXPECT_EQ(v.GetInt32(0), -42);
  EXPECT_EQ(v.GetInt64(1), 1ll << 40);
  EXPECT_DOUBLE_EQ(v.GetDouble(2), 3.25);
  EXPECT_EQ(v.GetString(3), Slice("hello world"));
  EXPECT_TRUE(v.IsNull(4));
  EXPECT_FALSE(v.IsNull(0));
  EXPECT_EQ(v.size(), row.value().size());
}

TEST(RowCodecTest, MissingRequiredColumnFails) {
  Schema s = TestSchema();
  RowBuilder b(&s);
  b.SetInt32(0, 1).SetInt64(1, 2);  // "d" (required) missing
  EXPECT_TRUE(b.Encode().status().IsInvalidArgument());
}

TEST(RowCodecTest, NullableUnsetBecomesNull) {
  Schema s = TestSchema();
  RowBuilder b(&s);
  b.SetInt32(0, 1).SetInt64(1, 2).SetString(3, "x");
  Result<std::string> row = b.Encode();
  ASSERT_OK_R(row);
  RowView v(&s, row.value().data());
  EXPECT_TRUE(v.IsNull(2));
  EXPECT_TRUE(v.IsNull(4));
}

TEST(RowCodecTest, OversizedStringRejected) {
  Schema s = TestSchema();
  RowBuilder b(&s);
  b.SetInt32(0, 1).SetInt64(1, 2).SetString(3, std::string(41, 'x'));
  EXPECT_TRUE(b.Encode().status().IsInvalidArgument());
}

TEST(RowCodecTest, GetValueMirrorsGetters) {
  Schema s = TestSchema();
  RowBuilder b(&s);
  b.SetInt32(0, 5).SetInt64(1, 6).SetDouble(2, 7.5).SetString(3, "s")
      .SetString(4, "t");
  auto row = b.Encode();
  ASSERT_OK_R(row);
  RowView v(&s, row.value().data());
  EXPECT_EQ(v.GetValue(0).i64, 5);
  EXPECT_EQ(v.GetValue(3).str, "s");
  EXPECT_FALSE(v.GetValue(4).is_null);
}

// --- DeltaCodec ----------------------------------------------------------------

const uint32_t kAllColumns[] = {0, 1, 2, 3, 4};

TEST(DeltaCodecTest, BeforeDeltaRoundTrip) {
  Schema s = TestSchema();
  RowBuilder b1(&s);
  b1.SetInt32(0, 1).SetInt64(1, 100).SetDouble(2, 1.0).SetString(3, "old")
      .SetString(4, "keep");
  std::string old_row = b1.Encode().value();

  RowBuilder b2(&s);
  b2.SetInt32(0, 1).SetInt64(1, 200).SetDouble(2, 2.0).SetString(3, "new")
      .SetString(4, "keep");
  std::string new_row = b2.Encode().value();

  Arena arena;
  const uint32_t changed[] = {1, 2, 3};
  Slice delta =
      DeltaCodec::MakeDelta(s, RowView(&s, old_row.data()), changed, 3, &arena);
  EXPECT_FALSE(delta.empty());

  // Applying the before-delta onto the new row reconstructs the old row.
  Result<Slice> back = DeltaCodec::ApplyDelta(s, new_row, delta, &arena);
  ASSERT_OK_R(back);
  EXPECT_EQ(back.value(), Slice(old_row));

  Result<std::vector<uint32_t>> touched = DeltaCodec::TouchedColumns(s, delta);
  ASSERT_OK_R(touched);
  EXPECT_EQ(touched.value(), (std::vector<uint32_t>{1, 2, 3}));
}

TEST(DeltaCodecTest, NoChangeProducesEmptyColumnSet) {
  Schema s = TestSchema();
  RowBuilder b(&s);
  b.SetInt32(0, 1).SetInt64(1, 2).SetString(3, "same");
  std::string row = b.Encode().value();
  Arena arena;
  Slice delta =
      DeltaCodec::MakeDelta(s, RowView(&s, row.data()), nullptr, 0, &arena);
  Result<std::vector<uint32_t>> touched = DeltaCodec::TouchedColumns(s, delta);
  ASSERT_OK_R(touched);
  EXPECT_TRUE(touched.value().empty());
  Result<Slice> same = DeltaCodec::ApplyDelta(s, row, delta, &arena);
  ASSERT_OK_R(same);
  EXPECT_EQ(same.value(), Slice(row));
}

TEST(DeltaCodecTest, NullTransitions) {
  Schema s = TestSchema();
  RowBuilder b1(&s);
  b1.SetInt32(0, 1).SetInt64(1, 2).SetDouble(2, 5.0).SetString(3, "x");
  std::string old_row = b1.Encode().value();  // c=5.0, e=null
  RowBuilder b2(&s);
  b2.SetInt32(0, 1).SetInt64(1, 2).SetNull(2).SetString(3, "x")
      .SetString(4, "now");
  std::string new_row = b2.Encode().value();  // c=null, e="now"

  Arena arena;
  Slice delta = DeltaCodec::MakeDelta(s, RowView(&s, old_row.data()),
                                      kAllColumns, 5, &arena);
  Result<Slice> back = DeltaCodec::ApplyDelta(s, new_row, delta, &arena);
  ASSERT_OK_R(back);
  EXPECT_EQ(back.value(), Slice(old_row));
}

TEST(DeltaCodecTest, CorruptDeltaRejected) {
  Schema s = TestSchema();
  RowBuilder b(&s);
  b.SetInt32(0, 1).SetInt64(1, 2).SetString(3, "x");
  std::string row = b.Encode().value();
  Arena arena;
  EXPECT_FALSE(DeltaCodec::ApplyDelta(s, row, "\xff\xff\xff", &arena).ok());
}

// Property sweep: random rows; the before-delta of all columns applied to
// the new row always reconstructs the old row exactly.
class DeltaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DeltaPropertyTest, RandomRoundTrips) {
  Schema s = TestSchema();
  Random rng(GetParam() * 2654435761u + 1);
  Arena arena;
  for (int iter = 0; iter < 200; ++iter) {
    auto random_row = [&]() {
      RowBuilder b(&s);
      b.SetInt32(0, static_cast<int32_t>(rng.Next()));
      b.SetInt64(1, static_cast<int64_t>(rng.Next()));
      if (rng.OneIn(3)) {
        b.SetNull(2);
      } else {
        b.SetDouble(2, static_cast<double>(rng.Next() % 1000) / 7.0);
      }
      b.SetString(3, std::string(rng.Uniform(40), 'a' + rng.Uniform(26)));
      if (rng.OneIn(3)) {
        b.SetNull(4);
      } else {
        b.SetString(4, std::string(rng.Uniform(10), 'z'));
      }
      return b.Encode().value();
    };
    std::string old_row = random_row();
    std::string new_row = random_row();
    Slice delta = DeltaCodec::MakeDelta(s, RowView(&s, old_row.data()),
                                        kAllColumns, 5, &arena);
    Result<Slice> back = DeltaCodec::ApplyDelta(s, new_row, delta, &arena);
    ASSERT_OK_R(back);
    ASSERT_EQ(back.value(), Slice(old_row));
    arena.Reset();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaPropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace phoebe
