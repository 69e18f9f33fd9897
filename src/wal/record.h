#ifndef PHOEBE_WAL_RECORD_H_
#define PHOEBE_WAL_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/constants.h"
#include "common/slice.h"
#include "common/status.h"

namespace phoebe {

class Arena;

/// Logical WAL record types. PhoebeDB logs logical redo (operation + row
/// payload); recovery replays committed transactions' records in GSN order
/// (see DESIGN.md for the recovery-model substitution).
enum class WalRecordType : uint8_t {
  kInsert = 1,      // payload: [varint rel][varint rid][row bytes]
  kUpdate = 2,      // payload: [varint rel][varint rid][after-image delta]
  kDelete = 3,      // payload: [varint rel][varint rid]
  kCommit = 4,      // payload: [varint cts]
  kAbort = 5,       // payload: empty
  kIndexInsert = 6, // payload: [varint rel][varint rid][key bytes]
  kIndexRemove = 7, // payload: [varint rel][varint rid][key bytes]
};

/// A parsed WAL record (recovery side).
struct WalRecord {
  uint32_t writer_id = 0;
  uint64_t lsn = 0;
  uint64_t gsn = 0;
  Xid xid = 0;
  WalRecordType type = WalRecordType::kCommit;
  std::string payload;
};

/// On-disk framing:
///   [u32 frame_len][u32 masked crc over the rest]
///   [u8 type][u64 lsn][u64 gsn][u64 xid][payload]
class WalRecordCodec {
 public:
  static constexpr size_t kFrameHeader = 8;

  /// Fixed body prefix: [u8 type][u64 lsn][u64 gsn][u64 xid].
  static constexpr size_t kBodyPrefix = 25;

  /// Appends an encoded frame to `out`.
  static void Encode(WalRecordType type, uint64_t lsn, uint64_t gsn, Xid xid,
                     Slice payload, std::string* out);

  /// Exact on-disk size of a frame carrying `payload_size` payload bytes.
  static constexpr size_t EncodedSize(size_t payload_size) {
    return kFrameHeader + kBodyPrefix + payload_size;
  }

  /// Encodes a frame into `dst`, which must hold EncodedSize(payload.size())
  /// bytes. Used by the reservation-based WAL append path to encode outside
  /// the writer's critical section. Returns the number of bytes written.
  static size_t EncodeTo(WalRecordType type, uint64_t lsn, uint64_t gsn,
                         Xid xid, Slice payload, char* dst);

  /// Parses one frame at the front of `input`; advances it. kNotFound on a
  /// clean end, kCorruption on a torn/garbage frame.
  static Status DecodeNext(Slice* input, uint32_t writer_id, WalRecord* out);

  /// Payload helpers. DataPayloadTo writes into `arena` (on the DML path
  /// the transaction arena; LogData copies the payload within the call).
  static Slice DataPayloadTo(RelationId rel, RowId rid, Slice body,
                             Arena* arena);
  static Status ParseDataPayload(Slice payload, RelationId* rel, RowId* rid,
                                 Slice* body);
  static std::string CommitPayload(Timestamp cts);
  static Status ParseCommitPayload(Slice payload, Timestamp* cts);
};

}  // namespace phoebe

#endif  // PHOEBE_WAL_RECORD_H_
