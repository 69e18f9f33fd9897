#include "storage/table_leaf.h"

#include <cstring>

namespace phoebe {

TableLeafLayout TableLeafLayout::Compute(const Schema& schema) {
  TableLeafLayout layout;
  const size_t ncols = schema.num_columns();

  // Per-slot byte footprint excluding bitmaps.
  size_t per_row = 0;
  for (size_t i = 0; i < ncols; ++i) {
    const ColumnDef& c = schema.column(i);
    switch (c.type) {
      case ColumnType::kInt32: per_row += 4; break;
      case ColumnType::kInt64:
      case ColumnType::kDouble: per_row += 8; break;
      case ColumnType::kString: per_row += 2 + c.max_len; break;
    }
  }
  const size_t header = sizeof(TableLeaf::Header);
  // bitmaps: occupancy + deleted + one null bitmap per column, each
  // ceil(cap/8). Solve:
  //   header + (2+ncols)*ceil(cap/8) + cap*per_row <= kPageSize.
  size_t cap = (kPageSize - header) * 8 / (per_row * 8 + (2 + ncols));
  while (cap > 0) {
    size_t bitmap = (cap + 7) / 8;
    if (header + (2 + ncols) * bitmap + cap * per_row <= kPageSize) break;
    --cap;
  }
  if (cap > 0xFFFF) cap = 0xFFFF;
  layout.capacity_ = static_cast<uint16_t>(cap);
  layout.bitmap_bytes_ = static_cast<uint32_t>((cap + 7) / 8);

  uint32_t off = static_cast<uint32_t>(header);
  layout.occupancy_off_ = off;
  off += layout.bitmap_bytes_;
  layout.deleted_off_ = off;
  off += layout.bitmap_bytes_;
  layout.null_off_ = off;
  off += layout.bitmap_bytes_ * static_cast<uint32_t>(ncols);

  layout.col_off_.resize(ncols);
  layout.str_off_.resize(ncols, 0);
  for (size_t i = 0; i < ncols; ++i) {
    const ColumnDef& c = schema.column(i);
    layout.col_off_[i] = off;
    switch (c.type) {
      case ColumnType::kInt32: off += 4 * static_cast<uint32_t>(cap); break;
      case ColumnType::kInt64:
      case ColumnType::kDouble: off += 8 * static_cast<uint32_t>(cap); break;
      case ColumnType::kString:
        off += 2 * static_cast<uint32_t>(cap);  // length array
        layout.str_off_[i] = off;
        off += c.max_len * static_cast<uint32_t>(cap);
        break;
    }
  }
  return layout;
}

void TableLeaf::Init(char* page, const Schema& schema,
                     const TableLeafLayout& layout, RowId first_row_id) {
  memset(page, 0, kPageSize);
  auto* hdr = reinterpret_cast<Header*>(page);
  hdr->node.kind = static_cast<uint8_t>(NodeKind::kTableLeaf);
  hdr->node.count = 0;
  hdr->first_row_id = first_row_id;
  hdr->capacity = layout.capacity();
}

bool TableLeaf::IsLive(uint16_t slot) const {
  return TestBit(layout_->occupancy_offset(), slot);
}

bool TableLeaf::IsDeleted(uint16_t slot) const {
  return TestBit(layout_->deleted_offset(), slot);
}

Status TableLeaf::SetDeleted(uint16_t slot, bool deleted) {
  if (slot >= capacity() || !IsLive(slot)) {
    return Status::NotFound("set-deleted: slot not live");
  }
  SetBit(layout_->deleted_offset(), slot, deleted);
  return Status::OK();
}

void TableLeaf::WriteColumns(uint16_t slot, RowView row) {
  const size_t ncols = schema_->num_columns();
  for (size_t i = 0; i < ncols; ++i) {
    const ColumnDef& c = schema_->column(i);
    const bool is_null = row.IsNull(i);
    SetBit(layout_->null_bitmap_offset(i), slot, is_null);
    char* base = page_ + layout_->column_offset(i);
    switch (c.type) {
      case ColumnType::kInt32: {
        int32_t v = is_null ? 0 : row.GetInt32(i);
        memcpy(base + 4 * slot, &v, 4);
        break;
      }
      case ColumnType::kInt64: {
        int64_t v = is_null ? 0 : row.GetInt64(i);
        memcpy(base + 8 * slot, &v, 8);
        break;
      }
      case ColumnType::kDouble: {
        double v = is_null ? 0 : row.GetDouble(i);
        memcpy(base + 8 * slot, &v, 8);
        break;
      }
      case ColumnType::kString: {
        Slice s = is_null ? Slice() : row.GetString(i);
        uint16_t len = static_cast<uint16_t>(s.size());
        memcpy(base + 2 * slot, &len, 2);
        char* data = page_ + layout_->string_data_offset(i) +
                     static_cast<size_t>(c.max_len) * slot;
        if (len > 0) memcpy(data, s.data(), len);
        break;
      }
    }
  }
}

Status TableLeaf::InsertRow(uint16_t slot, RowView row) {
  if (slot >= capacity()) return Status::InvalidArgument("slot out of range");
  if (IsLive(slot)) return Status::AlreadyExists("slot occupied");
  WriteColumns(slot, row);
  SetBit(layout_->occupancy_offset(), slot, true);
  Hdr()->node.count += 1;
  return Status::OK();
}

Status TableLeaf::UpdateRow(uint16_t slot, RowView row) {
  if (slot >= capacity() || !IsLive(slot)) {
    return Status::NotFound("update: slot not live");
  }
  WriteColumns(slot, row);
  return Status::OK();
}

Status TableLeaf::EraseRow(uint16_t slot) {
  if (slot >= capacity() || !IsLive(slot)) {
    return Status::NotFound("erase: slot not live");
  }
  SetBit(layout_->occupancy_offset(), slot, false);
  SetBit(layout_->deleted_offset(), slot, false);
  Hdr()->node.count -= 1;
  return Status::OK();
}

/// WriteRow source over one slot's PAX minipages.
struct TableLeaf::PaxSource {
  const TableLeaf* leaf;
  uint16_t slot;

  bool IsNull(size_t i) const { return leaf->IsNullCol(slot, i); }
  int32_t Int32(size_t i) const { return Fixed<int32_t>(i); }
  int64_t Int64(size_t i) const { return Fixed<int64_t>(i); }
  double Double(size_t i) const { return Fixed<double>(i); }
  Slice String(size_t i) const {
    size_t width = leaf->schema_->column(i).max_len;
    return Slice(leaf->page_ + leaf->layout_->string_data_offset(i) +
                     width * slot,
                 Fixed<uint16_t>(i));
  }
  /// Column i's entry in its fixed-width array (a string's length).
  template <typename T>
  T Fixed(size_t i) const {
    const char* base = leaf->page_ + leaf->layout_->column_offset(i);
    T v;
    memcpy(&v, base + sizeof(T) * slot, sizeof(T));
    return v;
  }
};

Result<Slice> TableLeaf::ReadRowTo(uint16_t slot, Arena* arena) const {
  if (slot >= capacity() || !IsLive(slot)) {
    return Result<Slice>(Status::NotFound("read: slot not live"));
  }
  return WriteRowTo(*schema_, PaxSource{this, slot}, arena);
}

}  // namespace phoebe
