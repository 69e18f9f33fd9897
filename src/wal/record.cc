#include "wal/record.h"

#include <cstring>

#include "common/arena.h"
#include "common/coding.h"
#include "common/crc32.h"

namespace phoebe {

size_t WalBlockCodec::BlockHeaderSize(uint64_t first_lsn) {
  return kBlockPrefix + 1 + static_cast<size_t>(VarintLength(first_lsn));
}

WalBlockCodec::RecordHeader WalBlockCodec::MakeHeader(const Cursor& cursor,
                                                      WalRecordType type,
                                                      uint64_t gsn, Xid xid,
                                                      size_t payload_len) {
  RecordHeader h;
  const bool same_xid = cursor.records > 0 && xid == cursor.prev_xid;
  h.tag = static_cast<uint8_t>(type) | (same_xid ? kSameXid : 0);
  h.payload_len = static_cast<uint32_t>(payload_len);
  // Zigzag: writers shared by several slots can see a gsn below its
  // predecessor's.
  h.gsn_delta = ZigZagEncode(static_cast<int64_t>(gsn - cursor.prev_gsn));
  h.size = 1 + VarintLength(h.payload_len) + VarintLength(h.gsn_delta);
  if (!same_xid) {
    h.xid_ts = XidStartTs(xid);
    h.size += VarintLength(h.xid_ts);
  }
  return h;
}

void WalBlockCodec::EncodeRecord(const RecordHeader& h, Slice payload,
                                 char* dst) {
  *dst++ = static_cast<char>(h.tag);
  dst = EncodeVarint32(dst, h.payload_len);
  dst = EncodeVarint64(dst, h.gsn_delta);
  if ((h.tag & kSameXid) == 0) dst = EncodeVarint64(dst, h.xid_ts);
  if (!payload.empty()) memcpy(dst, payload.data(), payload.size());
}

void WalBlockCodec::SealBlock(char* block, size_t block_size,
                              uint64_t first_lsn) {
  char* body = block + kBlockPrefix;
  const size_t body_len = block_size - kBlockPrefix;
  body[0] = static_cast<char>(kBlockFormat);
  EncodeVarint64(body + 1, first_lsn);
  EncodeFixed32(block, static_cast<uint32_t>(body_len));
  EncodeFixed32(block + 4, MaskCrc(Crc32c(body, body_len)));
}

Status WalBlockCodec::DecodeBlock(Slice* input, uint32_t writer_id,
                                  std::vector<WalRecord>* out) {
  if (input->empty()) return Status::NotFound();
  if (input->size() < kBlockPrefix) {
    return Status::Corruption("torn wal block header");
  }
  const uint32_t body_len = DecodeFixed32(input->data());
  if (body_len == 0 || input->size() - kBlockPrefix < body_len) {
    return Status::Corruption("torn wal block");
  }
  const char* p = input->data() + kBlockPrefix;
  const char* const limit = p + body_len;
  if (MaskCrc(Crc32c(p, body_len)) != DecodeFixed32(input->data() + 4)) {
    return Status::Corruption("wal block crc mismatch");
  }
  // The CRC held, so this is no torn write: a body that does not parse
  // comes from another format or a writer bug, and must not be mistaken
  // for a torn tail.
  const size_t first = out->size();
  auto malformed = [&] {
    out->resize(first);
    return Status::NotSupported("wal block passes its crc but does not parse");
  };
  if (static_cast<uint8_t>(*p++) != kBlockFormat) return malformed();
  uint64_t first_lsn = 0;
  p = GetVarint64Ptr(p, limit, &first_lsn);
  if (p == nullptr || p == limit) return malformed();
  Cursor cursor;
  while (p < limit) {
    const uint8_t tag = static_cast<uint8_t>(*p++);
    const uint8_t type = tag & static_cast<uint8_t>(~kSameXid);
    const bool same_xid = (tag & kSameXid) != 0;
    if (type < static_cast<uint8_t>(WalRecordType::kInsert) ||
        type > static_cast<uint8_t>(WalRecordType::kCommit) ||
        (same_xid && cursor.records == 0)) {
      return malformed();
    }
    uint32_t payload_len = 0;
    uint64_t gsn_delta = 0;
    p = GetVarint32Ptr(p, limit, &payload_len);
    if (p != nullptr) p = GetVarint64Ptr(p, limit, &gsn_delta);
    Xid xid = cursor.prev_xid;
    if (p != nullptr && !same_xid) {
      uint64_t xid_ts = 0;
      p = GetVarint64Ptr(p, limit, &xid_ts);
      xid = MakeXid(xid_ts);
    }
    if (p == nullptr || static_cast<size_t>(limit - p) < payload_len) {
      return malformed();
    }
    WalRecord& rec = out->emplace_back();
    rec.writer_id = writer_id;
    rec.lsn = first_lsn + cursor.records;
    rec.gsn = cursor.prev_gsn + static_cast<uint64_t>(ZigZagDecode(gsn_delta));
    rec.xid = xid;
    rec.type = static_cast<WalRecordType>(type);
    rec.payload.assign(p, payload_len);
    p += payload_len;
    cursor.Advance(rec.gsn, xid);
  }
  input->remove_prefix(kBlockPrefix + body_len);
  return Status::OK();
}

WalBlockBuilder::WalBlockBuilder(uint64_t first_lsn, std::string* out)
    : out_(out), start_(out->size()), first_lsn_(first_lsn) {
  out_->resize(start_ + WalBlockCodec::BlockHeaderSize(first_lsn));
}

void WalBlockBuilder::Add(WalRecordType type, uint64_t gsn, Xid xid,
                          Slice payload) {
  WalBlockCodec::RecordHeader h =
      WalBlockCodec::MakeHeader(cursor_, type, gsn, xid, payload.size());
  const size_t at = out_->size();
  out_->resize(at + h.record_size());
  WalBlockCodec::EncodeRecord(h, payload, &(*out_)[at]);
  cursor_.Advance(gsn, xid);
}

void WalBlockBuilder::Finish() {
  WalBlockCodec::SealBlock(&(*out_)[start_], out_->size() - start_,
                           first_lsn_);
}

Slice WalRecordCodec::DataPayloadTo(RelationId rel, RowId rid, Slice body,
                                    Arena* arena) {
  const size_t cap = 5 + 10 + body.size();  // varint32 + varint64 worst case
  char* buf = arena->Allocate(cap);
  char* p = EncodeVarint32(buf, rel);
  p = EncodeVarint64(p, rid);
  if (!body.empty()) {
    memcpy(p, body.data(), body.size());
    p += body.size();
  }
  size_t len = static_cast<size_t>(p - buf);
  arena->ShrinkLast(buf, cap, len);
  return Slice(buf, len);
}

Status WalRecordCodec::ParseDataPayload(Slice payload, RelationId* rel,
                                        RowId* rid, Slice* body) {
  uint32_t r = 0;
  uint64_t id = 0;
  if (!GetVarint32(&payload, &r) || !GetVarint64(&payload, &id)) {
    return Status::Corruption("wal payload");
  }
  *rel = r;
  *rid = id;
  if (body != nullptr) *body = payload;
  return Status::OK();
}

std::string WalRecordCodec::CommitPayload(Timestamp cts) {
  std::string out;
  PutVarint64(&out, cts);
  return out;
}

Status WalRecordCodec::ParseCommitPayload(Slice payload, Timestamp* cts) {
  if (!GetVarint64(&payload, cts)) return Status::Corruption("commit payload");
  return Status::OK();
}

}  // namespace phoebe
