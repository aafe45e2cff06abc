#ifndef TURBOFLUX_SERVE_MATCH_LOG_H_
#define TURBOFLUX_SERVE_MATCH_LOG_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "turboflux/common/match.h"
#include "turboflux/common/serialize.h"
#include "turboflux/common/status.h"
#include "turboflux/harness/fault_injection.h"

namespace turboflux {
namespace serve {

/// One emitted match, tagged with the journal op index that produced it.
/// The op index is what makes recovery exactly-once: replayed evaluation
/// regenerates the same matches deterministically, and the tag says which
/// of them are already durable here.
struct MatchRecord {
  uint64_t op_index = 0;  ///< 0-based WAL record index of the causing op
  uint32_t query = 0;     ///< multi::QueryId
  uint8_t positive = 1;   ///< 1 = new match, 0 = retracted match
  Mapping mapping;

  friend bool operator==(const MatchRecord& a, const MatchRecord& b) {
    return a.op_index == b.op_index && a.query == b.query &&
           a.positive == b.positive && a.mapping == b.mapping;
  }
};

// Durable match stream (DESIGN.md §3.12). An append-only file of
// CRC-framed blocks (bin::PutRecord):
//
//   u32 payload_len | payload | u32 crc32(payload)
//   payload := u8 kind (0 = matches, 1 = commit)
//     kind 0: u32 count, count × (u64 op_index, u32 query, u8 positive,
//                                 u32 mapping_len, mapping_len × u32)
//     kind 1: u64 through_op
//
// Only matches at or below the last COMMIT marker's `through_op` are
// considered delivered. Load() discards everything after the last
// complete commit — a torn commit block rolls the stream back to the
// previous marker, and replay regenerates the lost matches. Commit
// ordering vs. the engine snapshot is the server's job: the match log
// must be flushed BEFORE the snapshot rename (invariant S ≤ W ≤ J),
// otherwise a crash between the two loses matches the snapshot already
// skipped past.
class MatchLog {
 public:
  MatchLog() = default;

  /// Parses `path` (missing = empty). Returns the records covered by
  /// complete commits, the watermark W (= last commit's through_op; 0 if
  /// no commit), and the byte offset of the last complete commit block.
  [[nodiscard]] static Status Load(const std::string& path,
                                   std::vector<MatchRecord>* records,
                                   uint64_t* watermark,
                                   uint64_t* valid_bytes);

  /// Truncates past the last complete commit and opens for appends.
  [[nodiscard]] Status Open(const std::string& path, uint64_t valid_bytes);

  /// Appends `records` plus a COMMIT(through_op) marker and flushes.
  /// If `injector` trips ShouldTearMatchLogCommit, the write is cut
  /// short of the commit marker and kIoError("injected...") is returned —
  /// the server treats that as a crash.
  [[nodiscard]] Status AppendCommit(std::span<const MatchRecord> records,
                                    uint64_t through_op,
                                    FaultInjector* injector);

  void Close() { file_.Close(); }

  /// Canonical byte serialization of a match stream, independent of how
  /// the records were grouped into commit blocks — the chaos suite
  /// compares this against a single-process oracle byte-for-byte.
  static std::string CanonicalMatchStream(
      std::span<const MatchRecord> records);

 private:
  bin::AppendFile file_;
};

}  // namespace serve
}  // namespace turboflux

#endif  // TURBOFLUX_SERVE_MATCH_LOG_H_
