#include "wal/recovery.h"

#include <algorithm>

#include "io/io_retry.h"
#include "io/io_stats.h"

namespace phoebe {

Result<WalRecovery::ScanResult> WalRecovery::Scan(Env* env,
                                                  const std::string& dir,
                                                  uint64_t watermark_gsn) {
  using R = Result<ScanResult>;
  ScanResult out;
  std::vector<std::string> names;
  Status st = env->ListDir(dir, &names);
  if (st.IsNotFound()) return R(std::move(out));
  if (!st.ok()) return R(st);

  std::vector<WalRecord> all;
  for (const auto& name : names) {
    if (name.rfind("wal_", 0) != 0) continue;
    uint32_t writer_id =
        static_cast<uint32_t>(atoi(name.c_str() + 4));
    std::unique_ptr<File> f;
    Env::OpenOptions fo;
    fo.create = false;
    fo.read_only = true;
    st = env->OpenFile(dir + "/" + name, fo, &f);
    if (!st.ok()) return R(st);
    uint64_t size = f->Size();
    std::string buf(size, '\0');
    if (size > 0) {
      // A short or failed read here is a *mid-log I/O error*, not a torn
      // tail: retrying absorbs transient faults, and a persistent failure
      // aborts the scan. Treating it as end-of-log would silently drop
      // every record past the failure — committed history vanishing on a
      // flaky disk.
      st = RetryIo(DefaultIoRetryPolicy(),
                   &IoStats::Global().read_retries, [&] {
                     size_t got = 0;
                     PHOEBE_RETURN_IF_ERROR(
                         f->Read(0, size, buf.data(), &got));
                     if (got != size) {
                       return Status::IOError("short wal read: " + name);
                     }
                     return Status::OK();
                   });
      if (!st.ok()) return R(st);
    }
    out.bytes_scanned += size;
    Slice input(buf.data(), size);
    std::vector<WalRecord> block;
    for (;;) {
      block.clear();
      Status ds = WalBlockCodec::DecodeBlock(&input, writer_id, &block);
      if (ds.IsNotFound()) break;
      if (ds.IsCorruption()) {
        // Torn tail: the crash interrupted the last block's write. Keep the
        // clean prefix; every block before it decoded with a valid CRC. No
        // acknowledged commit is lost with the torn block: a commit is
        // acknowledged only after the flush that wrote its block completed.
        out.torn_tails += 1;
        break;
      }
      if (ds.IsNotSupported()) {
        // Not a torn write: the block is whole. Dropping it and what
        // follows would silently lose acknowledged commits, so refuse.
        return R(Status::Corruption(
            name + " at offset " + std::to_string(size - input.size()) +
            ": " + ds.ToString()));
      }
      if (!ds.ok()) return R(ds);
      for (WalRecord& rec : block) {
        out.total_records += 1;
        // max_ts must cover watermark-skipped records too: the restarted
        // clock has to stay above all pre-checkpoint history.
        out.max_ts = std::max(out.max_ts, XidStartTs(rec.xid));
        if (rec.type == WalRecordType::kCommit) {
          Timestamp cts = 0;
          Status ps = WalRecordCodec::ParseCommitPayload(rec.payload, &cts);
          if (!ps.ok()) return R(ps);
          out.commits[rec.xid] = cts;
          out.max_ts = std::max(out.max_ts, cts);
        } else if (rec.gsn <= watermark_gsn) {
          // Already reflected in the checkpoint image this watermark came
          // from. Quiescence at the cut guarantees no transaction straddles
          // it, so skipping by GSN never splits a transaction.
          out.skipped_checkpointed += 1;
        } else {
          all.push_back(std::move(rec));
        }
      }
    }
  }

  // Keep only records of committed transactions, ordered by (gsn, writer,
  // lsn): the GSN merge order of Distributed Logging / parallel WAL.
  for (auto& rec : all) {
    if (out.commits.count(rec.xid) != 0) {
      out.records.push_back(std::move(rec));
    } else {
      out.skipped_uncommitted += 1;
    }
  }
  std::sort(out.records.begin(), out.records.end(),
            [](const WalRecord& a, const WalRecord& b) {
              if (a.gsn != b.gsn) return a.gsn < b.gsn;
              if (a.writer_id != b.writer_id) return a.writer_id < b.writer_id;
              return a.lsn < b.lsn;
            });
  return R(std::move(out));
}

Status WalRecovery::Replay(
    const ScanResult& result,
    const std::function<Status(const WalRecord&, Timestamp)>& apply) {
  for (const auto& rec : result.records) {
    auto it = result.commits.find(rec.xid);
    Timestamp cts = it != result.commits.end() ? it->second : 0;
    PHOEBE_RETURN_IF_ERROR(apply(rec, cts));
  }
  return Status::OK();
}

}  // namespace phoebe
