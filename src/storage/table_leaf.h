#ifndef PHOEBE_STORAGE_TABLE_LEAF_H_
#define PHOEBE_STORAGE_TABLE_LEAF_H_

#include <cstdint>
#include <vector>

#include "common/constants.h"
#include "common/status.h"
#include "storage/node.h"
#include "storage/schema.h"

namespace phoebe {

/// Physical layout of a PAX table leaf for a given schema (Section 5.2: hot
/// and cold pages use the PAX format). All values of a column are stored
/// contiguously ("minipages"), which keeps OLTP in-place updates cheap and
/// leaves the door open for columnar OLAP scans:
///
///   [TableLeaf header]
///   [occupancy bitmap]            1 bit per slot
///   [null bitmap, column-major]   1 bit per (column, slot)
///   per column, column-major arrays:
///     int32            4 bytes * capacity
///     int64 / double   8 bytes * capacity
///     string           2-byte length array + max_len bytes * capacity
///
/// Strings reserve max_len bytes per slot, trading space for guaranteed
/// in-place updates without heap fragmentation (documented in DESIGN.md).
///
/// Slots map 1:1 to row_ids: slot = row_id - first_row_id. Because row_ids
/// are monotonically increasing, table leaves never split; a full leaf simply
/// ends the range and the next insert creates a fresh rightmost leaf. This is
/// exactly the paper's motivation for the internal row_id key (Section 5.1).
class TableLeafLayout {
 public:
  static TableLeafLayout Compute(const Schema& schema);

  uint16_t capacity() const { return capacity_; }
  uint32_t occupancy_offset() const { return occupancy_off_; }
  uint32_t deleted_offset() const { return deleted_off_; }
  uint32_t null_bitmap_offset(size_t col) const {
    return null_off_ + static_cast<uint32_t>(col) * bitmap_bytes_;
  }
  uint32_t bitmap_bytes() const { return bitmap_bytes_; }
  /// Offset of the column's value array (length array for strings).
  uint32_t column_offset(size_t col) const { return col_off_[col]; }
  /// Offset of a string column's data region.
  uint32_t string_data_offset(size_t col) const { return str_off_[col]; }

 private:
  uint16_t capacity_ = 0;
  uint32_t bitmap_bytes_ = 0;
  uint32_t occupancy_off_ = 0;
  uint32_t deleted_off_ = 0;
  uint32_t null_off_ = 0;
  std::vector<uint32_t> col_off_;
  std::vector<uint32_t> str_off_;
};

/// Accessor over a PAX table-leaf page.
class TableLeaf {
 public:
  struct Header {
    NodeHeader node;      // kind = kTableLeaf, count = live rows
    uint64_t first_row_id;
    uint16_t capacity;
    uint16_t pad0;
    uint32_t pad1;
  };
  static_assert(sizeof(Header) == 32);

  TableLeaf(char* page, const Schema* schema, const TableLeafLayout* layout)
      : page_(page), schema_(schema), layout_(layout) {}

  /// Initializes an empty leaf anchored at `first_row_id`.
  static void Init(char* page, const Schema& schema,
                   const TableLeafLayout& layout, RowId first_row_id);

  RowId first_row_id() const { return Hdr()->first_row_id; }
  uint16_t capacity() const { return Hdr()->capacity; }
  uint16_t live_count() const { return Hdr()->node.count; }
  bool InRange(RowId rid) const {
    return rid >= first_row_id() && rid < first_row_id() + capacity();
  }
  uint16_t SlotOf(RowId rid) const {
    return static_cast<uint16_t>(rid - first_row_id());
  }

  bool IsLive(uint16_t slot) const;

  /// MVCC logical-delete marker (the base tuple stays readable for older
  /// snapshots until GC physically purges it).
  bool IsDeleted(uint16_t slot) const;
  Status SetDeleted(uint16_t slot, bool deleted);

  /// Writes an encoded row into `slot`. Fails with AlreadyExists if live.
  Status InsertRow(uint16_t slot, RowView row);

  /// Overwrites all columns of a live row in place.
  Status UpdateRow(uint16_t slot, RowView row);

  /// Clears the slot (physical delete; MVCC logical deletes go through the
  /// twin table first).
  Status EraseRow(uint16_t slot);

  /// Materializes the slot into the serialized row format in `arena`
  /// (through WriteRow, straight from the PAX minipages), returning a slice
  /// valid until the arena resets, so the row survives releasing the page
  /// latch without a heap copy.
  Result<Slice> ReadRowTo(uint16_t slot, Arena* arena) const;

  /// Direct PAX minipage accessors (columnar fast path; callers check
  /// IsLive/IsDeleted/IsNullCol and the column type themselves).
  bool IsNullCol(uint16_t slot, size_t col) const {
    return TestBit(layout_->null_bitmap_offset(col), slot);
  }
  int64_t ReadInt64Col(uint16_t slot, size_t col) const {
    const char* base = page_ + layout_->column_offset(col);
    if (schema_->column(col).type == ColumnType::kInt32) {
      int32_t v;
      memcpy(&v, base + 4 * slot, 4);
      return v;
    }
    int64_t v;
    memcpy(&v, base + 8 * slot, 8);
    return v;
  }
  double ReadDoubleCol(uint16_t slot, size_t col) const {
    double v;
    memcpy(&v, page_ + layout_->column_offset(col) + 8 * slot, 8);
    return v;
  }

 private:
  const Header* Hdr() const { return reinterpret_cast<const Header*>(page_); }
  Header* Hdr() { return reinterpret_cast<Header*>(page_); }

  bool TestBit(uint32_t base, uint16_t slot) const {
    return (static_cast<uint8_t>(page_[base + slot / 8]) >> (slot % 8)) & 1;
  }
  void SetBit(uint32_t base, uint16_t slot, bool v) {
    uint8_t& b = reinterpret_cast<uint8_t*>(page_)[base + slot / 8];
    if (v) {
      b = static_cast<uint8_t>(b | (1u << (slot % 8)));
    } else {
      b = static_cast<uint8_t>(b & ~(1u << (slot % 8)));
    }
  }

  void WriteColumns(uint16_t slot, RowView row);

  struct PaxSource;

  char* page_;
  const Schema* schema_;
  const TableLeafLayout* layout_;
};

}  // namespace phoebe

#endif  // PHOEBE_STORAGE_TABLE_LEAF_H_
