#ifndef PHOEBE_STORAGE_SCHEMA_H_
#define PHOEBE_STORAGE_SCHEMA_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/slice.h"
#include "common/status.h"

namespace phoebe {

/// Column types supported by the storage engine. Strings are
/// bounded-length (CHAR/VARCHAR(n)); timestamps/decimals map onto
/// int64/double in the TPC-C schema.
enum class ColumnType : uint8_t {
  kInt32 = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kInt64;
  /// Maximum byte length for kString columns (ignored otherwise).
  uint32_t max_len = 0;
  bool nullable = false;
};

/// A table schema: ordered column definitions plus the derived physical
/// layout used by the row codec and the PAX page layout.
///
/// Row format (the serialized tuple representation used in the public API,
/// UNDO before-images, and WAL payloads):
///   [u16 total_size][null bitmap][fixed slots][string heap]
/// Fixed slot widths: int32 -> 4, int64/double -> 8, string -> u16 offset +
/// u16 length into the heap (offset relative to row start).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnDef> columns);

  size_t num_columns() const { return columns_.size(); }
  const ColumnDef& column(size_t i) const { return columns_[i]; }
  /// Returns -1 if not found.
  int ColumnIndex(const std::string& name) const;

  size_t null_bitmap_bytes() const { return (columns_.size() + 7) / 8; }
  /// Offset of column i's fixed slot, relative to the start of the fixed
  /// slot area.
  uint32_t fixed_offset(size_t i) const { return fixed_offsets_[i]; }
  size_t fixed_area_size() const { return fixed_size_; }
  /// Worst-case encoded row size (all strings at max_len).
  size_t max_row_size() const { return max_row_size_; }
  static uint32_t FixedWidth(ColumnType t) {
    return t == ColumnType::kInt32 ? 4 : (t == ColumnType::kString ? 4 : 8);
  }

  /// Serialized schema (for the catalog file).
  std::string Serialize() const;
  static Result<Schema> Deserialize(Slice input);

 private:
  std::vector<ColumnDef> columns_;
  std::vector<uint32_t> fixed_offsets_;
  size_t fixed_size_ = 0;
  size_t max_row_size_ = 2;
};

/// A decoded column value used when building rows through the public API.
/// Strings come in two flavors: owned (`str`, via Value::String) and
/// borrowed (`ref`, via Value::StringRef) — borrowed values carry a Slice
/// into memory the caller keeps alive (typically an encoded row in the
/// transaction arena) so the hot path never copies column bytes.
struct Value {
  ColumnType type = ColumnType::kInt64;
  bool is_null = false;
  bool is_ref = false;   // kString: true -> `ref` is the payload, not `str`
  int64_t i64 = 0;       // kInt32/kInt64
  double f64 = 0;        // kDouble
  std::string str;       // kString, owned
  Slice ref;             // kString, borrowed

  Slice str_ref() const { return is_ref ? ref : Slice(str); }

  static Value Null(ColumnType t) {
    Value v;
    v.type = t;
    v.is_null = true;
    return v;
  }
  static Value Int32(int32_t x) {
    Value v;
    v.type = ColumnType::kInt32;
    v.i64 = x;
    return v;
  }
  static Value Int64(int64_t x) {
    Value v;
    v.type = ColumnType::kInt64;
    v.i64 = x;
    return v;
  }
  static Value Double(double x) {
    Value v;
    v.type = ColumnType::kDouble;
    v.f64 = x;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type = ColumnType::kString;
    v.str = std::move(s);
    return v;
  }
  /// Borrowed string: `s` must stay alive until the value is consumed.
  static Value StringRef(Slice s) {
    Value v;
    v.type = ColumnType::kString;
    v.is_ref = true;
    v.ref = s;
    return v;
  }
};

/// Read-only accessor over an encoded row.
class RowView {
 public:
  RowView() = default;
  RowView(const Schema* schema, const char* data)
      : schema_(schema), data_(data) {}

  bool valid() const { return data_ != nullptr; }
  const char* data() const { return data_; }
  uint16_t size() const;
  Slice AsSlice() const { return Slice(data_, size()); }

  bool IsNull(size_t col) const;
  int32_t GetInt32(size_t col) const;
  int64_t GetInt64(size_t col) const;
  double GetDouble(size_t col) const;
  Slice GetString(size_t col) const;
  Value GetValue(size_t col) const;

 private:
  const char* FixedSlot(size_t col) const;

  const Schema* schema_ = nullptr;
  const char* data_ = nullptr;
};

/// WriteRow's error for a string longer than its column's max_len (out of
/// line, keeping the message building off the encoding loop).
Status StringTooLong(const ColumnDef& def);

/// The one writer of the row format. `src` supplies column i's value:
///   bool IsNull(size_t i); int32_t Int32(size_t i); int64_t Int64(size_t i);
///   double Double(size_t i); Slice String(size_t i).
/// A template so each source's reads inline into the loop: the PAX leaf
/// read (TableLeaf::ReadRowTo) runs on every row access. Null columns set
/// their bitmap bit and keep an all-zero fixed slot; strings fill the heap
/// in column order. `out` must hold schema.max_row_size() bytes.
template <typename Source>
Status WriteRow(const Schema& schema, const Source& src, char* out,
                size_t* len) {
  const size_t ncols = schema.num_columns();
  const size_t fixed_base = 2 + schema.null_bitmap_bytes();
  char* const fixed = out + fixed_base;
  size_t pos = fixed_base + schema.fixed_area_size();
  memset(out, 0, pos);
  for (size_t i = 0; i < ncols; ++i) {
    if (src.IsNull(i)) {
      out[2 + i / 8] = static_cast<char>(
          static_cast<uint8_t>(out[2 + i / 8]) | (1u << (i % 8)));
      continue;
    }
    const ColumnDef& def = schema.column(i);
    char* slot = fixed + schema.fixed_offset(i);
    switch (def.type) {
      case ColumnType::kInt32: {
        int32_t x = src.Int32(i);
        memcpy(slot, &x, 4);
        break;
      }
      case ColumnType::kInt64: {
        int64_t x = src.Int64(i);
        memcpy(slot, &x, 8);
        break;
      }
      case ColumnType::kDouble: {
        double x = src.Double(i);
        memcpy(slot, &x, 8);
        break;
      }
      case ColumnType::kString: {
        Slice s = src.String(i);
        if (s.size() > def.max_len) return StringTooLong(def);
        uint16_t off = static_cast<uint16_t>(pos);
        uint16_t slen = static_cast<uint16_t>(s.size());
        memcpy(slot, &off, 2);
        memcpy(slot + 2, &slen, 2);
        memcpy(out + pos, s.data(), s.size());
        pos += s.size();
        break;
      }
    }
  }
  if (pos > 0xFFFF) return Status::InvalidArgument("row too large");
  uint16_t total = static_cast<uint16_t>(pos);
  memcpy(out, &total, 2);
  *len = pos;
  return Status::OK();
}

/// WriteRow into `arena`; the slice is valid until the arena resets.
template <typename Source>
Result<Slice> WriteRowTo(const Schema& schema, const Source& src,
                         Arena* arena) {
  const size_t cap = schema.max_row_size();
  char* buf = arena->Allocate(cap);
  size_t len = 0;
  Status st = WriteRow(schema, src, buf, &len);
  arena->ShrinkLast(buf, cap, st.ok() ? len : 0);
  if (!st.ok()) return Result<Slice>(st);
  return Result<Slice>(Slice(buf, len));
}

/// Builder producing encoded rows.
class RowBuilder {
 public:
  explicit RowBuilder(const Schema* schema);

  RowBuilder& Set(size_t col, const Value& v);
  RowBuilder& SetInt32(size_t col, int32_t v) { return Set(col, Value::Int32(v)); }
  RowBuilder& SetInt64(size_t col, int64_t v) { return Set(col, Value::Int64(v)); }
  RowBuilder& SetDouble(size_t col, double v) { return Set(col, Value::Double(v)); }
  RowBuilder& SetString(size_t col, std::string v) {
    return Set(col, Value::String(std::move(v)));
  }
  /// Borrowed string: `v` must stay alive until Encode/EncodeTo.
  RowBuilder& SetStringRef(size_t col, Slice v) {
    return Set(col, Value::StringRef(v));
  }
  RowBuilder& SetNull(size_t col);

  /// Encodes the row. All non-nullable columns must have been set.
  /// EncodeTo(std::string*) reuses `out`'s capacity; EncodeTo(Arena*)
  /// bump-allocates the row in the arena and returns a slice valid until
  /// the arena resets. Encode() is the convenience form of the former.
  Status EncodeTo(std::string* out) const;
  Result<Slice> EncodeTo(Arena* arena) const;
  Result<std::string> Encode() const;

 private:
  struct Source;
  Status CheckRequired() const;

  const Schema* schema_;
  std::vector<Value> values_;
  std::vector<bool> set_;
};

/// Patches an encoded row with explicit column updates, producing the new
/// encoded row in `arena` without going through RowBuilder. Used by
/// Table::UpdateApply; `old_row`'s bytes must stay valid during the call.
Result<Slice> PatchRowTo(const Schema& schema, RowView old_row,
                         const std::pair<uint32_t, Value>* sets, size_t nsets,
                         Arena* arena);

/// Column-delta codec for UNDO before-images (Section 6.2) and WAL
/// after-images: records only the listed columns. Format:
///   [varint32 column_count] then per column: [varint32 col][u8 null]
///   [payload: fixed width or varint-length-prefixed string]
/// Results live in `arena` until it resets.
class DeltaCodec {
 public:
  /// Encodes `row`'s values of `columns`.
  static Slice MakeDelta(const Schema& schema, RowView row,
                         const uint32_t* columns, size_t ncols, Arena* arena);

  /// Overwrites `row`'s columns with the delta's values (for a before-image
  /// delta: produces the earlier version).
  static Result<Slice> ApplyDelta(const Schema& schema, Slice row,
                                  Slice delta, Arena* arena);

  /// Lists the columns touched by a delta (for index-maintenance checks).
  static Result<std::vector<uint32_t>> TouchedColumns(const Schema& schema,
                                                      Slice delta);
};

}  // namespace phoebe

#endif  // PHOEBE_STORAGE_SCHEMA_H_
