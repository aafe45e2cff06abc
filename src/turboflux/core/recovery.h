#ifndef TURBOFLUX_CORE_RECOVERY_H_
#define TURBOFLUX_CORE_RECOVERY_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "turboflux/common/status.h"
#include "turboflux/harness/engine.h"
#include "turboflux/harness/fault_injection.h"
#include "turboflux/obs/stats.h"

namespace turboflux {

/// Options for RunResilient (DESIGN.md §3.7).
struct ResilientOptions {
  /// Whole-run wall-clock budget (Init + stream + recoveries); <= 0 means
  /// unlimited. A run abandoned by a *real* expiry is not recovered — the
  /// committed prefix is the result.
  int64_t timeout_ms = 0;

  /// Take a checkpoint (and commit buffered matches) every N consumed ops;
  /// 0 checkpoints only after Init and at end-of-stream. Smaller N bounds
  /// replay work after a failure at the cost of more snapshot writes.
  size_t checkpoint_every = 0;

  /// Give up after this many restore-and-replay cycles.
  size_t max_recoveries = 8;

  /// When non-empty, every committed snapshot is also written to this file
  /// (latest wins), so a later process can resume via `restore_from`.
  std::string checkpoint_path;

  /// When non-empty, skip Init and resume from this snapshot file: the
  /// engine restarts at the snapshot's stream position and `stream` must
  /// be the same full stream the snapshot was taken against.
  std::string restore_from;

  /// Optional fault injector threaded through the engine for the run
  /// (tests); nullptr injects nothing.
  FaultInjector* injector = nullptr;

  /// Optional externally-driven checkpoint trigger (a timer thread in the
  /// ingestion service, a test's race probe). When non-null, the runner
  /// polls it between engine calls; if set, it commits immediately —
  /// exactly as if checkpoint_every had just elapsed — and clears the
  /// flag. The poll point is deliberately *between* ops, never inside
  /// one: a commit can land between an op's journal append (the engine
  /// consuming it) and its match flush, which is the race the concurrent-
  /// checkpoint property test pins as exactly-once-safe.
  std::atomic<bool>* checkpoint_request = nullptr;

  /// Export the engine's hot-path counters (plus run.* bookkeeping) into
  /// ResilientResult::stats. Note that engine counters accumulate across
  /// restore-and-replay cycles, so after a recovery they over-count the
  /// logical stream (DESIGN.md §3.8).
  bool collect_stats = false;
};

struct ResilientResult {
  bool ok = false;
  /// First fatal status when !ok (recovery limit, unrecoverable snapshot,
  /// real deadline expiry, I/O failure).
  Status status = Status::Ok();
  /// Stream position durably committed (matches up to here were delivered).
  uint64_t ops_consumed = 0;
  /// Positive matches of the initial graph, counted during Init but (as in
  /// RunContinuous) not forwarded to the sink. 0 when resuming a snapshot.
  uint64_t initial_matches = 0;
  size_t recoveries = 0;
  size_t quarantined = 0;
  size_t checkpoints = 0;
  double seconds = 0.0;
  /// Populated when ResilientOptions::collect_stats is set.
  std::optional<obs::StatsSnapshot> stats;
};

/// Runs `engine` over `stream` with crash-consistent recovery: matches are
/// buffered and only released to `sink` at checkpoint commit points, so a
/// mid-op failure (deadline expiry or injected fault) is handled by
/// dropping the buffer, restoring the last snapshot, and replaying the
/// journal suffix — the sink observes exactly the match stream of an
/// uninterrupted run, each match exactly once, in order.
ResilientResult RunResilient(EngineInterface& engine, const QueryGraph& q,
                             const Graph& g0, const UpdateStream& stream,
                             MatchSink& sink, const ResilientOptions& options);

}  // namespace turboflux

#endif  // TURBOFLUX_CORE_RECOVERY_H_
