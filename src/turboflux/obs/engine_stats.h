#ifndef TURBOFLUX_OBS_ENGINE_STATS_H_
#define TURBOFLUX_OBS_ENGINE_STATS_H_

#include <string>

#include "turboflux/obs/stats.h"

// Typed hot-path counters (DESIGN.md §3.8). Engines own one EngineStats
// each and bump named members directly — no string lookup or registry
// indirection on a path executed per DCG transition. The structs compile
// to (nearly) empty shells when TFX_STATS=0; every increment site
// disappears entirely.

namespace turboflux {
namespace obs {

/// Per-DCG counters, bumped inside Dcg::SetState — the single funnel all
/// DCG mutations go through. The transition taxonomy is the paper's
/// Figure 5; candidate-list churn is derivable: list appends equal
/// null_to_implicit (Transition 1 is the only way an edge materializes),
/// list removals equal explicit_to_null + implicit_to_null, and in-place
/// state flips equal implicit_to_explicit + explicit_to_implicit.
struct DcgStats {
  Counter transitions;           ///< every legal state change
  Counter null_to_implicit;      ///< Transition 1 (edge stored)
  Counter implicit_to_explicit;  ///< Transition 2
  Counter explicit_to_null;      ///< Transition 3 (edge removed)
  Counter explicit_to_implicit;  ///< Transition 4
  Counter implicit_to_null;      ///< Transition 5 (edge removed)

  void Reset();
  void AppendTo(StatsSnapshot& out, const std::string& prefix) const;
};

/// Per-DCS counters (the SymBi engine, DESIGN.md §3.13), bumped inside the
/// Dcs flag funnels — one increment per D1/D2 flag flip, which is the
/// bidirectional-DP analogue of the DCG transition taxonomy above.
/// `transitions` totals all four flip kinds; `isolated_groups` counts
/// enumeration steps that took the isolated-vertex fast path (every
/// remaining query vertex had all neighbours mapped, so candidates were
/// produced once per vertex instead of once per backtracking state).
struct DcsStats {
  Counter transitions;      ///< every D1/D2 flag flip
  Counter d1_set;           ///< top-down flag 0 -> 1
  Counter d1_cleared;       ///< top-down flag 1 -> 0
  Counter d2_set;           ///< bottom-up flag 0 -> 1
  Counter d2_cleared;       ///< bottom-up flag 1 -> 0
  Counter isolated_groups;  ///< isolated-vertex enumeration activations

  void Reset();
  void AppendTo(StatsSnapshot& out, const std::string& prefix) const;
};

/// Data-graph memory-layout gauges (DESIGN.md §3.11), sampled from the
/// Graph accessors after every update of a standalone engine (a QuerySet
/// samples its shared graph when its stats are read). `adj_dead_slots`
/// vs the live entry count is the signal the tombstone/compaction
/// regression tests watch; `compactions`/`rehashes` are monotonic event
/// counts surfaced as gauges because the Graph owns the authoritative
/// tally.
struct GraphLayoutStats {
  Gauge adj_bytes;         ///< adjacency slab + span bytes (out + in)
  Gauge adj_dead_slots;    ///< relocation holes awaiting compaction
  Gauge pair_table_bytes;  ///< flat edge-label pair-table bytes
  Gauge compactions;       ///< adjacency compaction epochs (out + in)
  Gauge rehashes;          ///< pair-table rehashes (grow/shrink/purge)

  void Reset();
  void AppendTo(StatsSnapshot& out, const std::string& prefix) const;
};

/// Counters shared by every ContinuousEngine implementation (exposed via
/// ContinuousEngine::engine_stats()). TurboFlux populates all of them; the
/// baselines populate the subset that applies (ops, search, matches).
struct EngineStats {
  Counter ops_insert;    ///< insertion ops evaluated (incl. no-op dups)
  Counter ops_delete;    ///< deletion ops evaluated (incl. absent-edge)
  Counter insert_evals;  ///< insertions that changed the graph
  Counter delete_evals;  ///< deletions that changed the graph
  Counter search_seeds;  ///< RunSearch invocations (seed paths reached)
  Counter search_states; ///< backtracking states explored (SubgraphSearch)
  Counter matches_positive;  ///< positive matches emitted (incl. initial)
  Counter matches_negative;
  Counter order_recomputes;    ///< matching-order drift recomputations
  Gauge intermediate_size;     ///< IntermediateSize() after the last op
  Gauge peak_intermediate;     ///< high-water IntermediateSize()

  Counter checkpoints;       ///< successful Checkpoint() calls
  Counter restores;          ///< successful Restore() calls
  Counter checkpoint_bytes;  ///< total snapshot bytes written
  Counter restore_bytes;     ///< total snapshot bytes read
  Histogram checkpoint_seconds;
  Histogram restore_seconds;

  DcgStats dcg;
  DcsStats dcs;
  GraphLayoutStats graph;

  void Reset();

  /// Exports every metric as prefix + member name ("engine." yields
  /// "engine.search_states", "engine.dcg.transitions", ...). Histograms
  /// get a "_ns" suffix and are recorded in nanoseconds. Engines that
  /// share one graph leave `graph` to its owner (`include_graph=false`).
  void AppendTo(StatsSnapshot& out, const std::string& prefix,
                bool include_graph = true) const;
};

}  // namespace obs
}  // namespace turboflux

#endif  // TURBOFLUX_OBS_ENGINE_STATS_H_
