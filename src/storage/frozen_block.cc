#include "storage/frozen_block.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "common/crc32.h"

namespace phoebe {

int FrozenBlockCodec::DecodedBlock::Find(RowId rid) const {
  auto it = std::lower_bound(row_ids.begin(), row_ids.end(), rid);
  if (it == row_ids.end() || *it != rid) return -1;
  return static_cast<int>(it - row_ids.begin());
}

Result<std::string> FrozenBlockCodec::Encode(
    const Schema& schema, const std::vector<RowId>& row_ids,
    const std::vector<std::string>& rows) {
  if (row_ids.empty() || row_ids.size() != rows.size()) {
    return Result<std::string>(Status::InvalidArgument("bad freeze input"));
  }
  const uint32_t n = static_cast<uint32_t>(row_ids.size());
  std::string body;
  body.reserve(rows.size() * 64);

  // Row-id deltas.
  RowId prev = row_ids[0];
  for (uint32_t i = 1; i < n; ++i) {
    if (row_ids[i] <= prev) {
      return Result<std::string>(
          Status::InvalidArgument("row ids must be strictly increasing"));
    }
    PutVarint64(&body, row_ids[i] - prev);
    prev = row_ids[i];
  }

  std::vector<RowView> views;
  views.reserve(n);
  for (const auto& r : rows) views.emplace_back(&schema, r.data());

  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const ColumnDef& col = schema.column(c);
    // Null bitmap.
    std::string bitmap((n + 7) / 8, '\0');
    for (uint32_t i = 0; i < n; ++i) {
      if (views[i].IsNull(c)) {
        bitmap[i / 8] = static_cast<char>(
            static_cast<uint8_t>(bitmap[i / 8]) | (1u << (i % 8)));
      }
    }
    body.append(bitmap);
    switch (col.type) {
      case ColumnType::kInt32:
      case ColumnType::kInt64: {
        int64_t min_v = INT64_MAX;
        for (uint32_t i = 0; i < n; ++i) {
          int64_t v = views[i].IsNull(c) ? 0
                      : col.type == ColumnType::kInt32
                          ? views[i].GetInt32(c)
                          : views[i].GetInt64(c);
          min_v = std::min(min_v, v);
        }
        PutVarint64(&body, ZigZagEncode(min_v));
        for (uint32_t i = 0; i < n; ++i) {
          int64_t v = views[i].IsNull(c) ? 0
                      : col.type == ColumnType::kInt32
                          ? views[i].GetInt32(c)
                          : views[i].GetInt64(c);
          // Unsigned: the spread of a block may exceed INT64_MAX.
          PutVarint64(&body,
                      static_cast<uint64_t>(v) - static_cast<uint64_t>(min_v));
        }
        break;
      }
      case ColumnType::kDouble: {
        for (uint32_t i = 0; i < n; ++i) {
          double v = views[i].IsNull(c) ? 0 : views[i].GetDouble(c);
          body.append(reinterpret_cast<const char*>(&v), 8);
        }
        break;
      }
      case ColumnType::kString: {
        for (uint32_t i = 0; i < n; ++i) {
          Slice s = views[i].IsNull(c) ? Slice() : views[i].GetString(c);
          PutVarint32(&body, static_cast<uint32_t>(s.size()));
        }
        for (uint32_t i = 0; i < n; ++i) {
          if (!views[i].IsNull(c)) {
            Slice s = views[i].GetString(c);
            body.append(s.data(), s.size());
          }
        }
        break;
      }
    }
  }

  std::string out;
  std::string header;
  PutFixed64(&header, row_ids[0]);
  PutFixed32(&header, n);
  std::string checksummed = header + body;
  uint32_t crc = MaskCrc(Crc32c(checksummed.data(), checksummed.size()));

  PutFixed32(&out, kMagic);
  PutFixed32(&out, static_cast<uint32_t>(checksummed.size() + 4));
  out += checksummed;
  PutFixed32(&out, crc);
  return Result<std::string>(std::move(out));
}

namespace {

/// Verifies the framing + checksum and parses the row-id stream; leaves
/// *in positioned at the first column stream.
Status OpenBlock(Slice block, std::vector<RowId>* row_ids, Slice* in) {
  if (block.size() < 8) return Status::Corruption("frozen block: short");
  if (DecodeFixed32(block.data()) != FrozenBlockCodec::kMagic) {
    return Status::Corruption("frozen block: bad magic");
  }
  uint32_t payload = DecodeFixed32(block.data() + 4);
  if (block.size() < 8 + payload || payload < 16) {
    return Status::Corruption("frozen block: truncated");
  }
  const char* base = block.data() + 8;
  uint32_t stored_crc = DecodeFixed32(base + payload - 4);
  if (MaskCrc(Crc32c(base, payload - 4)) != stored_crc) {
    return Status::Corruption("frozen block: checksum mismatch");
  }
  *in = Slice(base, payload - 4);
  RowId first = DecodeFixed64(in->data());
  in->remove_prefix(8);
  uint32_t n = DecodeFixed32(in->data());
  in->remove_prefix(4);
  row_ids->resize(n);
  (*row_ids)[0] = first;
  for (uint32_t i = 1; i < n; ++i) {
    uint64_t d = 0;
    if (!GetVarint64(in, &d)) return Status::Corruption("rid stream");
    (*row_ids)[i] = (*row_ids)[i - 1] + d;
  }
  return Status::OK();
}

/// Skips one column's null bitmap + value stream.
Status SkipColumnStream(const Schema& schema, uint32_t col, uint32_t n,
                        Slice* in) {
  size_t bitmap_bytes = (n + 7) / 8;
  if (in->size() < bitmap_bytes) return Status::Corruption("null bitmap");
  in->remove_prefix(bitmap_bytes);
  switch (schema.column(col).type) {
    case ColumnType::kInt32:
    case ColumnType::kInt64: {
      uint64_t v = 0;
      if (!GetVarint64(in, &v)) return Status::Corruption("FOR min");
      for (uint32_t i = 0; i < n; ++i) {
        if (!GetVarint64(in, &v)) return Status::Corruption("FOR");
      }
      break;
    }
    case ColumnType::kDouble:
      if (in->size() < 8ull * n) return Status::Corruption("doubles");
      in->remove_prefix(8ull * n);
      break;
    case ColumnType::kString: {
      uint64_t total = 0;
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t len = 0;
        if (!GetVarint32(in, &len)) return Status::Corruption("lens");
        total += len;
      }
      // Null entries wrote a zero length, so `total` is exact.
      if (in->size() < total) return Status::Corruption("string data");
      in->remove_prefix(total);
      break;
    }
  }
  return Status::OK();
}

template <typename T, typename Map>
Status DecodeNumericColumn(const Schema& schema, Slice block, uint32_t col,
                           const std::function<bool(RowId, T)>& cb,
                           Map&& map) {
  if (col >= schema.num_columns()) {
    return Status::InvalidArgument("no such column");
  }
  std::vector<RowId> rids;
  Slice in;
  PHOEBE_RETURN_IF_ERROR(OpenBlock(block, &rids, &in));
  uint32_t n = static_cast<uint32_t>(rids.size());
  for (uint32_t c = 0; c < col; ++c) {
    PHOEBE_RETURN_IF_ERROR(SkipColumnStream(schema, c, n, &in));
  }
  size_t bitmap_bytes = (n + 7) / 8;
  if (in.size() < bitmap_bytes) return Status::Corruption("null bitmap");
  const uint8_t* bitmap = reinterpret_cast<const uint8_t*>(in.data());
  in.remove_prefix(bitmap_bytes);
  return map(rids, bitmap, &in, cb);
}

}  // namespace

Status FrozenBlockCodec::DecodeColumnInt64(
    const Schema& schema, Slice block, uint32_t col,
    const std::function<bool(RowId, int64_t)>& cb) {
  ColumnType type = schema.column(col).type;
  if (type != ColumnType::kInt32 && type != ColumnType::kInt64) {
    return Status::InvalidArgument("not an integer column");
  }
  return DecodeNumericColumn<int64_t>(
      schema, block, col, cb,
      [](const std::vector<RowId>& rids, const uint8_t* bitmap, Slice* in,
         const std::function<bool(RowId, int64_t)>& fn) -> Status {
        uint64_t zz = 0;
        if (!GetVarint64(in, &zz)) return Status::Corruption("FOR min");
        int64_t min_v = ZigZagDecode(zz);
        for (uint32_t i = 0; i < rids.size(); ++i) {
          uint64_t d = 0;
          if (!GetVarint64(in, &d)) return Status::Corruption("FOR");
          if ((bitmap[i / 8] >> (i % 8)) & 1) continue;  // null
          if (!fn(rids[i], min_v + static_cast<int64_t>(d))) break;
        }
        return Status::OK();
      });
}

Status FrozenBlockCodec::DecodeColumnDouble(
    const Schema& schema, Slice block, uint32_t col,
    const std::function<bool(RowId, double)>& cb) {
  if (schema.column(col).type != ColumnType::kDouble) {
    return Status::InvalidArgument("not a double column");
  }
  return DecodeNumericColumn<double>(
      schema, block, col, cb,
      [](const std::vector<RowId>& rids, const uint8_t* bitmap, Slice* in,
         const std::function<bool(RowId, double)>& fn) -> Status {
        if (in->size() < 8ull * rids.size()) {
          return Status::Corruption("doubles");
        }
        for (uint32_t i = 0; i < rids.size(); ++i) {
          if ((bitmap[i / 8] >> (i % 8)) & 1) continue;
          double v;
          memcpy(&v, in->data() + 8ull * i, 8);
          if (!fn(rids[i], v)) break;
        }
        return Status::OK();
      });
}

Result<FrozenBlockCodec::DecodedBlock> FrozenBlockCodec::Decode(
    const Schema& schema, Slice block) {
  using R = Result<DecodedBlock>;
  if (block.size() < 8) return R(Status::Corruption("frozen block: short"));
  if (DecodeFixed32(block.data()) != kMagic) {
    return R(Status::Corruption("frozen block: bad magic"));
  }
  uint32_t payload = DecodeFixed32(block.data() + 4);
  if (block.size() < 8 + payload || payload < 16) {
    return R(Status::Corruption("frozen block: truncated"));
  }
  const char* base = block.data() + 8;
  uint32_t stored_crc = DecodeFixed32(base + payload - 4);
  uint32_t crc = MaskCrc(Crc32c(base, payload - 4));
  if (crc != stored_crc) {
    return R(Status::Corruption("frozen block: checksum mismatch"));
  }

  DecodedBlock out;
  Slice in(base, payload - 4);
  out.first_row_id = DecodeFixed64(in.data());
  in.remove_prefix(8);
  uint32_t n = DecodeFixed32(in.data());
  in.remove_prefix(4);

  out.row_ids.resize(n);
  out.row_ids[0] = out.first_row_id;
  for (uint32_t i = 1; i < n; ++i) {
    uint64_t d = 0;
    if (!GetVarint64(&in, &d)) return R(Status::Corruption("rid stream"));
    out.row_ids[i] = out.row_ids[i - 1] + d;
  }

  const size_t ncols = schema.num_columns();
  std::vector<RowBuilder> builders(n, RowBuilder(&schema));

  for (size_t c = 0; c < ncols; ++c) {
    const ColumnDef& col = schema.column(c);
    size_t bitmap_bytes = (n + 7) / 8;
    if (in.size() < bitmap_bytes) return R(Status::Corruption("null bitmap"));
    const uint8_t* bitmap = reinterpret_cast<const uint8_t*>(in.data());
    auto is_null = [bitmap](uint32_t i) {
      return (bitmap[i / 8] >> (i % 8)) & 1;
    };
    in.remove_prefix(bitmap_bytes);
    switch (col.type) {
      case ColumnType::kInt32:
      case ColumnType::kInt64: {
        uint64_t zz = 0;
        if (!GetVarint64(&in, &zz)) return R(Status::Corruption("FOR min"));
        int64_t min_v = ZigZagDecode(zz);
        for (uint32_t i = 0; i < n; ++i) {
          uint64_t d = 0;
          if (!GetVarint64(&in, &d)) return R(Status::Corruption("FOR"));
          int64_t v = static_cast<int64_t>(static_cast<uint64_t>(min_v) + d);
          if (is_null(i)) {
            builders[i].SetNull(c);
          } else if (col.type == ColumnType::kInt32) {
            builders[i].SetInt32(c, static_cast<int32_t>(v));
          } else {
            builders[i].SetInt64(c, v);
          }
        }
        break;
      }
      case ColumnType::kDouble: {
        if (in.size() < 8ull * n) return R(Status::Corruption("doubles"));
        for (uint32_t i = 0; i < n; ++i) {
          double v;
          memcpy(&v, in.data() + 8ull * i, 8);
          if (is_null(i)) {
            builders[i].SetNull(c);
          } else {
            builders[i].SetDouble(c, v);
          }
        }
        in.remove_prefix(8ull * n);
        break;
      }
      case ColumnType::kString: {
        std::vector<uint32_t> lens(n);
        for (uint32_t i = 0; i < n; ++i) {
          if (!GetVarint32(&in, &lens[i])) {
            return R(Status::Corruption("string lens"));
          }
        }
        for (uint32_t i = 0; i < n; ++i) {
          if (is_null(i)) {
            builders[i].SetNull(c);
            continue;
          }
          if (in.size() < lens[i]) return R(Status::Corruption("string data"));
          builders[i].SetString(c, std::string(in.data(), lens[i]));
          in.remove_prefix(lens[i]);
        }
        break;
      }
    }
  }

  out.rows.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Result<std::string> enc = builders[i].Encode();
    if (!enc.ok()) return R(enc.status());
    out.rows.push_back(std::move(enc.value()));
  }
  return R(std::move(out));
}

}  // namespace phoebe
