#include "wal/record.h"

#include <cstring>

#include "common/arena.h"
#include "common/coding.h"
#include "common/crc32.h"

namespace phoebe {

void WalRecordCodec::Encode(WalRecordType type, uint64_t lsn, uint64_t gsn,
                            Xid xid, Slice payload, std::string* out) {
  size_t old = out->size();
  out->resize(old + EncodedSize(payload.size()));
  EncodeTo(type, lsn, gsn, xid, payload, &(*out)[old]);
}

size_t WalRecordCodec::EncodeTo(WalRecordType type, uint64_t lsn, uint64_t gsn,
                                Xid xid, Slice payload, char* dst) {
  char* body = dst + kFrameHeader;
  body[0] = static_cast<char>(type);
  EncodeFixed64(body + 1, lsn);
  EncodeFixed64(body + 9, gsn);
  EncodeFixed64(body + 17, xid);
  memcpy(body + kBodyPrefix, payload.data(), payload.size());
  size_t body_len = kBodyPrefix + payload.size();
  EncodeFixed32(dst, static_cast<uint32_t>(body_len));
  EncodeFixed32(dst + 4, MaskCrc(Crc32c(body, body_len)));
  return kFrameHeader + body_len;
}

Status WalRecordCodec::DecodeNext(Slice* input, uint32_t writer_id,
                                  WalRecord* out) {
  if (input->empty()) return Status::NotFound();
  if (input->size() < kFrameHeader) return Status::Corruption("torn header");
  uint32_t len = DecodeFixed32(input->data());
  uint32_t crc = DecodeFixed32(input->data() + 4);
  if (len < 25 || input->size() < kFrameHeader + len) {
    return Status::Corruption("torn frame");
  }
  const char* body = input->data() + kFrameHeader;
  if (MaskCrc(Crc32c(body, len)) != crc) {
    return Status::Corruption("wal crc mismatch");
  }
  out->writer_id = writer_id;
  out->type = static_cast<WalRecordType>(body[0]);
  out->lsn = DecodeFixed64(body + 1);
  out->gsn = DecodeFixed64(body + 9);
  out->xid = DecodeFixed64(body + 17);
  out->payload.assign(body + 25, len - 25);
  input->remove_prefix(kFrameHeader + len);
  return Status::OK();
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
