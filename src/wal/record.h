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
/// (see DESIGN.md for the recovery-model substitution). Aborts and read-only
/// commits log nothing: recovery drops records without a commit.
enum class WalRecordType : uint8_t {
  kInsert = 1,      // payload: [varint rel][varint rid][row bytes]
  kUpdate = 2,      // payload: [varint rel][varint rid][after-image delta]
  kDelete = 3,      // payload: [varint rel][varint rid]
  kCommit = 4,      // payload: [varint cts]
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

/// On-disk framing (DESIGN.md §4c). A writer's log file is a sequence of
/// blocks, one per flushed writer buffer, or one for a record larger than
/// the buffer:
///
///   block  = [u32 body_len][u32 masked crc32c of body][body]
///   body   = [u8 kBlockFormat][varint first_lsn][record]...
///   record = [u8 type | kSameXid][varint payload_len]
///            [varint zigzag(gsn - gsn of the previous record in the block)]
///            [varint XidStartTs(xid), only without kSameXid][payload]
///
/// The first record of a block codes its gsn against 0 and always carries
/// its xid. The i-th record of a block has LSN first_lsn + i. Xids must be
/// MakeXid() values: only the start timestamp is stored. The format byte
/// tells a block of this layout from anything else that passes the CRC,
/// such as a log written by a build with another layout.
class WalBlockCodec {
 public:
  /// [u32 body_len][u32 crc]; the body then starts with the format byte and
  /// varint first_lsn.
  static constexpr size_t kBlockPrefix = 8;
  static constexpr uint8_t kBlockFormat = 0xB1;
  static constexpr size_t kMaxBlockHeader = kBlockPrefix + 1 + 10;
  /// Type byte, varint32 payload length, varint64 gsn delta, varint64 xid
  /// start timestamp (62 bits).
  static constexpr size_t kMaxRecordHeader = 1 + 5 + 10 + 9;
  static constexpr uint8_t kSameXid = 0x80;

  static size_t BlockHeaderSize(uint64_t first_lsn);

  /// The previous record of an open block, which the next header is coded
  /// against.
  struct Cursor {
    uint64_t prev_gsn = 0;
    Xid prev_xid = 0;
    uint32_t records = 0;

    void Advance(uint64_t gsn, Xid xid) {
      prev_gsn = gsn;
      prev_xid = xid;
      ++records;
    }
  };

  /// One record's header, sized against a block's cursor.
  struct RecordHeader {
    uint8_t tag = 0;
    uint32_t payload_len = 0;
    uint64_t gsn_delta = 0;  // zigzag-coded
    uint64_t xid_ts = 0;     // written only without kSameXid
    size_t size = 0;         // encoded bytes of the header

    size_t record_size() const { return size + payload_len; }
  };

  static RecordHeader MakeHeader(const Cursor& cursor, WalRecordType type,
                                 uint64_t gsn, Xid xid, size_t payload_len);

  /// Writes header + payload to `dst`, which must hold h.record_size()
  /// bytes.
  static void EncodeRecord(const RecordHeader& h, Slice payload, char* dst);

  /// Fills in the header of the `block_size`-byte block at `block`, whose
  /// first BlockHeaderSize(first_lsn) bytes were reserved for it: body
  /// length, first LSN and the CRC over the body.
  static void SealBlock(char* block, size_t block_size, uint64_t first_lsn);

  /// Parses the block at the front of `input`, appends its records to
  /// `out`, and advances `input`. kNotFound on a clean end; kCorruption on a
  /// torn block (cut short, or failing its CRC); kNotSupported on a block
  /// that passes its CRC but is not a block of this format. `out` is left
  /// as it was on any error.
  static Status DecodeBlock(Slice* input, uint32_t writer_id,
                            std::vector<WalRecord>* out);
};

/// Encodes one block into a string: records larger than a writer buffer,
/// and tests and benchmarks that need log bytes without a writer.
class WalBlockBuilder {
 public:
  /// Starts a block at the end of `out`.
  WalBlockBuilder(uint64_t first_lsn, std::string* out);

  /// Appends the next record; its LSN is first_lsn + records added before.
  void Add(WalRecordType type, uint64_t gsn, Xid xid, Slice payload);

  /// Fills in the block header. Add at least one record first.
  void Finish();

 private:
  std::string* out_;
  size_t start_;
  uint64_t first_lsn_;
  WalBlockCodec::Cursor cursor_;
};

/// Record payload helpers.
class WalRecordCodec {
 public:
  /// DataPayloadTo writes into `arena` (on the DML path the transaction
  /// arena; LogData copies the payload within the call).
  static Slice DataPayloadTo(RelationId rel, RowId rid, Slice body,
                             Arena* arena);
  static Status ParseDataPayload(Slice payload, RelationId* rel, RowId* rid,
                                 Slice* body);
  static std::string CommitPayload(Timestamp cts);
  static Status ParseCommitPayload(Slice payload, Timestamp* cts);
};

}  // namespace phoebe

#endif  // PHOEBE_WAL_RECORD_H_
