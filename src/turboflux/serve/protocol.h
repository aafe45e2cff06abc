#ifndef TURBOFLUX_SERVE_PROTOCOL_H_
#define TURBOFLUX_SERVE_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "turboflux/common/status.h"
#include "turboflux/graph/update_stream.h"
#include "turboflux/serve/match_log.h"

namespace turboflux {
namespace serve {

// Wire protocol of the tfx_serve ingestion service (DESIGN.md §3.12).
//
// Transport framing: every message is a length-prefixed frame — a u32
// little-endian payload size followed by that many payload bytes. The
// payload is a single ASCII command (request) or result (response) line;
// binary framing keeps torn-write detection trivial while text payloads
// keep client sessions debuggable with a hex dump.
//
// Requests:
//   U <channel> <seq> <n> {I|D <from> <label> <to>} x n
//       Submit n consecutive update ops. `channel` identifies a logical
//       producer (64-bit, client-chosen); `seq` is the 1-based sequence
//       number of the FIRST op. Retrying a frame is always safe: ops at or
//       below the channel's durable high-water mark are acknowledged as
//       duplicates without re-ingesting.
//   POS <channel>    Durable high-water sequence of the channel (0 = none);
//                    a reconnecting producer resumes from POS + 1.
//   MATCHES <start> <limit>
//                    Up to `limit` committed match records starting at
//                    0-based record index `start` (paging cursor).
//   HEALTH           Liveness + overload state; served from atomics, never
//                    blocked behind evaluation.
//   STATS            Full obs::StatsSnapshot as one JSON document.
//   PING             Round-trip no-op.
//
// Responses:
//   OK <seq>                         ops through `seq` are durable
//   DUP <seq>                        everything submitted was already durable
//   RETRY <ms> <depth> <cap> <tier>  backpressure: retry after `ms`
//                                    milliseconds; queue-depth diagnostics
//   ERR <code> <message>             protocol or state error
//   HEALTH <tier> <depth> <cap> <accepted> <committed>
//                                    accepted = ops journaled (J);
//                                    committed = match watermark (W): the
//                                    matches of every op below it are in
//                                    MATCHES (advances every drained batch)
//   POS <seq>
//   STATS <json>
//   MATCHES <count> {<op_index> <query> +|- <k> <v> x k} x count
//   PONG

/// Hard cap on one frame's payload; a corrupted length field larger than
/// this is a protocol error, not an allocation attempt.
inline constexpr uint32_t kMaxFrameBytes = 1u << 22;  // 4 MiB

/// Appends the 4-byte length prefix + payload to `out`.
void EncodeFrame(std::string_view payload, std::string& out);

/// Incremental frame decoder: Feed() bytes as they arrive, Next() pops
/// complete payloads. A malformed length field poisons the decoder (the
/// stream cannot be resynchronized); bytes of an incomplete trailing
/// frame simply stay buffered.
class FrameDecoder {
 public:
  void Feed(std::string_view bytes);

  /// True when a complete frame was popped into *payload.
  bool Next(std::string* payload);

  /// Non-OK once a frame declared a payload above kMaxFrameBytes.
  const Status& status() const { return status_; }

  /// Bytes buffered but not yet returned (partial frame).
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
  Status status_;
};

struct Request {
  enum class Kind : uint8_t {
    kSubmit,
    kPos,
    kHealth,
    kStats,
    kMatches,
    kPing,
  };

  Kind kind = Kind::kPing;
  uint64_t channel = 0;
  uint64_t seq = 0;    ///< kSubmit: sequence of ops.front()
  uint64_t start = 0;  ///< kMatches: first record index
  uint64_t limit = 0;  ///< kMatches: max records returned
  std::vector<UpdateOp> ops;
};

/// Overload tiers, least to most degraded (DESIGN.md §3.12). Declared
/// here so responses can carry the tier without depending on overload.h.
enum class Tier : uint8_t { kNormal = 0, kShed = 1, kWiden = 2, kReject = 3 };
const char* TierName(Tier tier);

struct Response {
  enum class Kind : uint8_t {
    kOk,
    kDup,
    kRetry,
    kErr,
    kHealth,
    kPos,
    kStats,
    kMatches,
    kPong,
  };

  Kind kind = Kind::kErr;
  uint64_t seq = 0;            ///< kOk / kDup / kPos
  uint32_t retry_after_ms = 0; ///< kRetry
  uint64_t queue_depth = 0;    ///< kRetry / kHealth
  uint64_t queue_cap = 0;      ///< kRetry / kHealth
  Tier tier = Tier::kNormal;   ///< kRetry / kHealth
  uint64_t accepted = 0;       ///< kHealth: ops durable in the WAL
  uint64_t committed = 0;      ///< kHealth: ops covered by the last commit
  StatusCode code = StatusCode::kOk;  ///< kErr
  std::string text;            ///< kErr message / kStats JSON
  std::vector<MatchRecord> matches;  ///< kMatches
};

std::string EncodeRequest(const Request& request);
std::string EncodeResponse(const Response& response);

/// Parses one payload line. Unknown verbs, malformed numbers, op-count
/// mismatches, and trailing garbage all fail with kInvalidArgument.
[[nodiscard]] Status ParseRequest(std::string_view payload, Request* out);
[[nodiscard]] Status ParseResponse(std::string_view payload, Response* out);

/// Convenience: a submit request for `ops` starting at `seq`.
Request MakeSubmit(uint64_t channel, uint64_t seq,
                   std::span<const UpdateOp> ops);

}  // namespace serve
}  // namespace turboflux

#endif  // TURBOFLUX_SERVE_PROTOCOL_H_
