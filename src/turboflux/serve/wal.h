#ifndef TURBOFLUX_SERVE_WAL_H_
#define TURBOFLUX_SERVE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "turboflux/common/serialize.h"
#include "turboflux/common/status.h"
#include "turboflux/harness/fault_injection.h"
#include "turboflux/serve/admission.h"

namespace turboflux {
namespace serve {

// Operation journal (WAL) of the ingestion service (DESIGN.md §3.12).
//
// An append-only file of CRC-framed records (bin::PutRecord), one per
// admitted update op:
//
//   u32 payload_len | payload | u32 crc32(payload)
//   payload := u64 channel, u64 seq, u8 type, u32 from, u32 label, u32 to
//
// Durability contract: an op is acknowledged to its producer only after
// its record is appended AND flushed. The journal therefore defines the
// service's op index space — record i (0-based) is "op index i" in every
// other durable structure (match log watermarks, snapshot positions).
//
// Torn tails are expected: a crash mid-append leaves a record with a bad
// length/CRC at the end of the file. Load() stops at the first invalid
// record and reports the byte offset of the valid prefix; Open()
// truncates the file there, so the torn bytes never survive a restart.
// Ops lost to a torn tail were never acked, so producers resend them.

class OpJournal {
 public:
  OpJournal() = default;

  /// Parses `path` (missing file = zero records), tolerating a torn tail.
  /// *valid_bytes is the offset of the valid prefix — the caller (or
  /// Open) truncates there. Corruption *before* the tail (a bad record
  /// followed by a good one) is indistinguishable from a tear and is
  /// likewise treated as end-of-journal.
  [[nodiscard]] static Status Load(const std::string& path,
                                   std::vector<PendingOp>* records,
                                   uint64_t* valid_bytes);

  /// Truncates the file to its valid prefix and opens it for appends.
  /// `record_count` must be the size of the vector Load produced (it
  /// seeds the op-index counter).
  [[nodiscard]] Status Open(const std::string& path, uint64_t valid_bytes,
                            uint64_t record_count);

  /// Appends one record. If `injector` trips ShouldTearWalRecord, only a
  /// prefix of the record reaches the file and the returned status is
  /// kIoError ("injected torn write") — the server treats that as a
  /// crash. No flush is implied; call Flush() before acking.
  [[nodiscard]] Status Append(const PendingOp& record,
                              FaultInjector* injector);

  /// Flushes appended records to the OS. Acks may be sent after this.
  [[nodiscard]] Status Flush();

  void Close() { file_.Close(); }

  /// Total records durable in the journal == the next op index.
  uint64_t record_count() const { return record_count_; }

  static void EncodeRecord(const PendingOp& record, std::string& out);

 private:
  bin::AppendFile file_;
  uint64_t record_count_ = 0;
};

}  // namespace serve
}  // namespace turboflux

#endif  // TURBOFLUX_SERVE_WAL_H_
