#ifndef TURBOFLUX_HARNESS_RUNNER_H_
#define TURBOFLUX_HARNESS_RUNNER_H_

#include <cstdint>
#include <iosfwd>

#include "turboflux/harness/engine.h"
#include "turboflux/harness/metrics.h"

namespace turboflux {

struct RunOptions {
  /// Per-query wall-clock budget covering Init plus the whole stream;
  /// <= 0 means unlimited. (The paper used a 2-hour timeout; our scaled
  /// experiments default to a few seconds.)
  int64_t timeout_ms = 0;

  /// When true, stream_seconds subtracts the time of a bare graph-update
  /// pass over the same stream, mirroring the paper's cost(M(Δg, q)).
  bool subtract_graph_update_cost = true;

  /// Collect per-op latency histograms and export the engine's
  /// hot-path counters into RunResult::stats. Runtime-gated: works (and
  /// records the run.* metrics) even in TFX_STATS=0 builds, where the
  /// engine.* entries are absent.
  bool collect_stats = false;

  /// With collect_stats: every N processed ops, write an intermediate
  /// snapshot as one JSON line to *stats_sink (ignored when either is
  /// unset). Lines are self-contained — a poor man's time series.
  int64_t stats_every = 0;
  std::ostream* stats_sink = nullptr;
};

/// Runs `engine` on query `q`: initializes with `g0`, then feeds `stream`
/// one operation at a time, reporting matches into `sink`.
RunResult RunContinuous(ContinuousEngine& engine, const QueryGraph& q,
                        const Graph& g0, const UpdateStream& stream,
                        MatchSink& sink, const RunOptions& options);

/// Measures how long applying `stream` to a copy of `g0` takes with no
/// matching at all — the baseline subtracted to obtain cost(M(Δg, q)).
double MeasureGraphUpdateSeconds(const Graph& g0, const UpdateStream& stream);

}  // namespace turboflux

#endif  // TURBOFLUX_HARNESS_RUNNER_H_
