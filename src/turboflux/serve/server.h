#ifndef TURBOFLUX_SERVE_SERVER_H_
#define TURBOFLUX_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "turboflux/common/status.h"
#include "turboflux/common/synchronization.h"
#include "turboflux/common/thread_annotations.h"
#include "turboflux/graph/graph.h"
#include "turboflux/harness/fault_injection.h"
#include "turboflux/multi/query_set.h"
#include "turboflux/query/query_graph.h"
#include "turboflux/serve/admission.h"
#include "turboflux/serve/match_log.h"
#include "turboflux/serve/overload.h"
#include "turboflux/serve/protocol.h"
#include "turboflux/serve/wal.h"

namespace turboflux {
namespace serve {

/// Configuration of one server instance. Everything is deterministic
/// given the same inputs except thread interleaving; the chaos suite
/// relies on the durability protocol (not scheduling) for its
/// byte-equality guarantee.
struct ServeOptions {
  /// Directory holding ops.wal, matches.log, snapshot.tfxq. Created if
  /// missing. Restarting a server on the same data_dir resumes it.
  std::string data_dir;

  /// Admission queue (bounded hand-off producers → ingest thread).
  AdmissionConfig admission;

  /// Overload degradation thresholds (fractions of the admission cap).
  OverloadConfig overload;

  /// Max ops drained and evaluated per ingest iteration...
  size_t batch_window = 64;
  /// ...and the widened window used at Tier::kWiden and above, trading
  /// per-op latency for fewer WAL flushes and commits per op.
  size_t widen_batch_window = 512;

  /// Snapshot cadence: write the whole-set snapshot once this many ops
  /// have been evaluated since the last one, or once this much wall time
  /// has passed with ops evaluated. Matches do not wait for it (they
  /// commit after every drained batch); the cadence bounds only the WAL
  /// suffix a restart replays, at roughly the per-op evaluation cost.
  uint64_t checkpoint_every_ops = 65'536;
  uint32_t checkpoint_interval_ms = 10'000;

  /// Per-connection token-bucket rate limit (ops/sec; 0 disables) used by
  /// ServerHandle and the TCP layer.
  double rate_limit_per_sec = 0;
  double rate_limit_burst = 256;

  /// How long the ingest thread waits for work per iteration (also the
  /// resolution of the snapshot timer) and how long a producer waits
  /// for its durability ack before giving up.
  uint32_t drain_wait_ms = 5;
  uint32_t ack_timeout_ms = 10000;

  /// Synthetic per-op evaluation cost (busy time, microseconds). Test
  /// hook: pins the sustainable throughput so overload tests can submit
  /// at a known multiple of it. 0 in production.
  uint32_t eval_throttle_us = 0;

  /// Multi-query engine configuration.
  multi::QuerySetOptions set;

  /// Optional service-level fault injection (chaos tests). Not owned.
  FaultInjector* injector = nullptr;
};

/// The tfx_serve ingestion daemon core (DESIGN.md §3.12): a
/// multi::QuerySet fronted by a bounded admission queue, an op journal
/// (WAL), and a durable match log, with a match commit per drained batch,
/// cadence-driven snapshots and tiered overload degradation.
///
/// Durability protocol (exactly-once under kill -9), over three stream
/// positions: snapshot position S, match watermark W, journal length J.
///   * An op is acked only after its WAL record is flushed. Producers
///     key ops with (channel, seq); the server acks `OK seq`, answers
///     resends below the durable high-water mark with `DUP`, and rejects
///     sequence gaps — so any number of retries lands each op once.
///   * Matches are buffered in memory, tagged with the 0-based WAL index
///     of the op that produced them, and become durable at the match
///     commit after each drained batch: a match-log block + COMMIT marker
///     is flushed and W advances. A batch without matches writes nothing
///     and advances W in memory only, because replay regenerates no
///     records for it.
///   * The snapshot (S) is written by Start(), after each query-set
///     change (a RegisterQuery after Start(), a tier shed or restore),
///     when the checkpoint_every_ops/checkpoint_interval_ms cadence trips,
///     and by Shutdown(). It runs a match commit with a marker FIRST and
///     atomically renames the snapshot SECOND, so S <= W <= J holds at
///     every instant; a set change snapshots before W moves past it.
///   * Recovery: restore the snapshot (or bind g0), truncate the WAL's
///     torn tail and the match log past its last complete COMMIT, replay
///     WAL[S, J) — matches from ops below W are regenerated and
///     discarded (already durable), matches at or above W are committed
///     fresh by Start(). Deterministic evaluation makes the regenerated
///     stream identical, which is what the chaos suite's byte-equality
///     check pins. Restart time grows with J - S, which the cadence
///     bounds.
///
/// Known non-atomicity: a RegisterQuery after Start() commits its
/// initial-match report (W) before the snapshot that records the query
/// (S); a crash between the two leaves the report durable and the
/// registration lost, and re-registering reports the initial matches
/// again. Registrations before Start() have no such window: nothing is
/// durable until Start()'s snapshot, and a data dir without a snapshot
/// recovers as fresh, discarding any report of a set-up whose first
/// snapshot never finished. Stream ops are exactly-once regardless.
class Server {
 public:
  /// Builds a server over `options.data_dir`, running crash recovery if
  /// the directory holds prior state. `g0` is required for a fresh
  /// directory (it seeds the graph) and ignored when a snapshot exists.
  [[nodiscard]] static Status Create(const ServeOptions& options,
                                     const Graph* g0,
                                     std::unique_ptr<Server>* out);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a standing query. Higher `priority` survives longer under
  /// overload shedding (ties shed together). Reports the query's matches
  /// against the current graph into the match stream. Before Start() the
  /// query and its report wait for Start()'s snapshot; after it, both are
  /// committed (match log, then snapshot) before returning. Internally
  /// serialized with evaluation.
  [[nodiscard]] Status RegisterQuery(const QueryGraph& q, int priority,
                                     multi::QueryId* id) EXCLUDES(state_mu_);

  /// Writes the first snapshot (covering every set-up registration and
  /// the recovery replay, if either is pending), then starts the ingest
  /// thread. Call after the initial RegisterQuery calls. If the snapshot
  /// fails the server dies and no thread starts; check died().
  void Start() EXCLUDES(reg_mu_);

  /// Graceful stop: drains the admission queue, evaluates everything,
  /// writes a final snapshot, closes files. Idempotent.
  void Shutdown();

  /// Chaos stop: abandons queued and in-flight work without committing,
  /// as a kill -9 would. Acked ops stay durable in the WAL; uncommitted
  /// matches are regenerated by the next recovery. Idempotent.
  void Kill();

  // --- Client surface (thread-safe; called from connection threads) ---

  /// Submits ops with consecutive sequence numbers starting at `seq` on
  /// `channel`. Blocks until the ops are durable (OK), known-duplicate
  /// (DUP), refused by backpressure (RETRY), or failed (ERR).
  Response Submit(uint64_t channel, uint64_t seq,
                  std::span<const UpdateOp> ops) EXCLUDES(state_mu_);

  /// Durable high-water sequence for `channel` (POS).
  Response Pos(uint64_t channel) EXCLUDES(state_mu_);

  /// Overload tier + queue depth + op counters (accepted = J, committed
  /// = W: matches of every op below it are readable). Served from atomics and
  /// one short queue lock — never waits on evaluation (the < 100 ms
  /// overload guarantee rests on this).
  Response Health();

  /// Full StatsSnapshot JSON (takes the QuerySet mutex; may wait).
  Response Stats() EXCLUDES(state_mu_);

  /// Committed match records [start, start+limit) from the durable match
  /// log (prefix-consistent read of the on-disk file).
  Response Matches(uint64_t start, uint64_t limit);

  // --- Introspection (tests) ---

  /// All committed match records (loads the match log from disk).
  [[nodiscard]] Status CommittedMatches(std::vector<MatchRecord>* out) const;

  bool died() const { return died_.load(std::memory_order_acquire); }
  Tier tier() const {
    return static_cast<Tier>(tier_.load(std::memory_order_relaxed));
  }
  size_t LiveQueryCount() EXCLUDES(state_mu_);
  uint64_t accepted_ops() const {
    return accepted_ops_.load(std::memory_order_relaxed);
  }
  uint64_t committed_ops() const {
    return committed_ops_.load(std::memory_order_relaxed);
  }
  const ServeOptions& options() const { return options_; }

 private:
  explicit Server(const ServeOptions& options);

  Status Recover(const Graph* g0) EXCLUDES(reg_mu_);
  void IngestLoop() EXCLUDES(reg_mu_);
  /// Evaluates one admitted op; matches land in pending_matches_.
  Status EvalOp(const PendingOp& op) REQUIRES(reg_mu_);
  /// The match commit: appends pending_matches_ and a COMMIT marker
  /// through the applied ops (always when `marker`, else only if matches
  /// are pending), then advances W.
  Status CommitMatches(bool marker) REQUIRES(reg_mu_);
  /// A match commit with a marker, then the snapshot (S = W).
  Status Snapshot() REQUIRES(reg_mu_);
  /// True when the on-disk snapshot lags the set or the stream.
  bool SnapshotBehind() const REQUIRES(reg_mu_) {
    return set_changed_ || ops_since_snapshot_ > 0;
  }
  /// Marks the server dead after an (injected or real) IO fault, as if
  /// the process had been killed at that exact write.
  void Die(const std::string& reason);
  void PublishTier(Tier t) {
    tier_.store(static_cast<uint8_t>(t), std::memory_order_relaxed);
  }
  /// Applies shed/restore actions on tier change; true when the query
  /// set changed. Ingest thread only.
  bool ApplyTierActions(Tier t) REQUIRES(reg_mu_) EXCLUDES(state_mu_);

  std::string WalPath() const { return options_.data_dir + "/ops.wal"; }
  std::string MatchLogPath() const {
    return options_.data_dir + "/matches.log";
  }
  std::string SnapshotPath() const {
    return options_.data_dir + "/snapshot.tfxq";
  }

  const ServeOptions options_;

  // Engine + durable structures: ingest thread only after Start() (the
  // registration path is serialized against the loop via reg_mu_).
  Mutex reg_mu_;  ///< serializes RegisterQuery/shed against ingest iterations
  multi::QuerySet set_;
  OpJournal journal_ GUARDED_BY(reg_mu_);
  MatchLog match_log_ GUARDED_BY(reg_mu_);
  std::vector<MatchRecord> pending_matches_ GUARDED_BY(reg_mu_);
  OverloadController overload_{OverloadConfig{}};
  int64_t last_snapshot_us_ GUARDED_BY(reg_mu_) = 0;
  uint64_t ops_since_snapshot_ GUARDED_BY(reg_mu_) = 0;
  /// The snapshot is missing or lacks a query-set change.
  bool set_changed_ GUARDED_BY(reg_mu_) = false;

  AdmissionQueue queue_;

  /// Standing-query bookkeeping for shedding. std::map keeps shed order
  /// deterministic (ascending id within a priority scan).
  struct StandingQuery {
    QueryGraph query;
    int priority = 0;
    bool shed = false;
  };

  mutable Mutex state_mu_;
  CondVar ack_cv_;  // paired with state_mu_; notified outside the lock
  std::map<uint64_t, uint64_t> durable_hw_ GUARDED_BY(state_mu_);
  std::map<multi::QueryId, StandingQuery> queries_ GUARDED_BY(state_mu_);

  std::atomic<uint8_t> tier_{0};
  std::atomic<uint64_t> accepted_ops_{0};   ///< WAL-durable op count (J)
  std::atomic<uint64_t> committed_ops_{0};  ///< match watermark (W)
  std::atomic<bool> stopping_{false};
  std::atomic<bool> killed_{false};
  std::atomic<bool> died_{false};
  std::atomic<uint64_t> sheds_{0};
  std::atomic<uint64_t> shed_restores_{0};

  std::thread ingest_;
  bool started_ = false;  ///< written under reg_mu_ by Start()
};

/// In-process client: owns a channel, tracks its next sequence number,
/// and applies the per-connection token bucket exactly like a TCP
/// connection would. The test harness's window onto the server.
class ServerHandle {
 public:
  ServerHandle(Server& server, uint64_t channel);

  /// One submit attempt (rate-limited). Returns the raw response.
  Response TrySubmit(std::span<const UpdateOp> ops);

  /// Submits with retry: honors RETRY/rate-limit hints by sleeping, up
  /// to `max_attempts`. Returns the final response (OK/DUP on success).
  Response Submit(std::span<const UpdateOp> ops, int max_attempts = 64);

  /// Re-syncs next_seq from the server's durable position — the
  /// reconnect dance a remote producer performs after a crash. Returns
  /// the durable high-water mark.
  uint64_t Resync();

  uint64_t next_seq() const { return next_seq_; }
  uint64_t channel() const { return channel_; }
  /// RETRY responses observed (backpressure visibility for tests).
  uint64_t retries_observed() const { return retries_observed_; }

 private:
  Server& server_;
  const uint64_t channel_;
  uint64_t next_seq_ = 1;
  TokenBucket bucket_;
  uint64_t retries_observed_ = 0;
};

}  // namespace serve
}  // namespace turboflux

#endif  // TURBOFLUX_SERVE_SERVER_H_
