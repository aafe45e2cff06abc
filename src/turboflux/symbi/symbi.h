#ifndef TURBOFLUX_SYMBI_SYMBI_H_
#define TURBOFLUX_SYMBI_SYMBI_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "turboflux/common/deadline.h"
#include "turboflux/common/match.h"
#include "turboflux/common/status.h"
#include "turboflux/common/types.h"
#include "turboflux/graph/graph.h"
#include "turboflux/graph/update_stream.h"
#include "turboflux/harness/engine.h"
#include "turboflux/harness/fault_injection.h"
#include "turboflux/obs/engine_stats.h"
#include "turboflux/query/query_graph.h"
#include "turboflux/symbi/dcs.h"
#include "turboflux/symbi/query_dag.h"

namespace turboflux {
namespace symbi {

struct SymBiOptions {
  MatchSemantics semantics = MatchSemantics::kHomomorphism;
};

/// The SymBi continuous subgraph matching engine (DESIGN.md §3.13),
/// after "Symmetric Continuous Subgraph Matching with Bidirectional
/// Dynamic Programming" (PAPERS.md): a sibling of TurboFlux behind the
/// same EngineInterface.
///
///  * Init: root selection (minimum initial-candidates/degree ratio),
///    QueryDag construction, Dcs build, and the initial-solution report
///    enumerated from the DCS;
///  * insertion: graph first, then Dcs::ApplyInsert, then positive-match
///    enumeration seeded at every query edge matching the new data edge
///    and restricted to D2 candidates;
///  * deletion: negative matches are enumerated against the intact
///    DCS/graph first, then the edge is removed and Dcs::ApplyDelete runs.
///
/// Where TurboFlux's DCG encodes only the spanning tree (non-tree edges
/// checked late, in SubgraphSearch), the DCS constrains every query edge
/// in both directions before enumeration starts — the per-op
/// `search_states` counter is the A/B comparison the bench records.
///
/// Duplicate elimination is the same total order over query edges the
/// other engines use: among all query edges a solution maps onto the
/// updated data edge, only the maximum-id one reports on insertion and
/// the minimum-id one on deletion.
///
/// Enumeration defers *isolated* query vertices — unmapped vertices whose
/// query neighbours are all mapped — to the end of the search: their
/// candidate sets are fully determined, so they are produced once and
/// combined as a product instead of being re-derived per backtracking
/// state (the paper's isolated-vertex optimization; counted by
/// obs dcs.isolated_groups).
class SymBiEngine : public EngineInterface {
 public:
  explicit SymBiEngine(SymBiOptions options = {});

  bool Init(const QueryGraph& q, const Graph& g0, MatchSink& sink,
            Deadline deadline) override;
  bool ApplyUpdate(const UpdateOp& op, MatchSink& sink,
                   Deadline deadline) override;

  /// DCS size: maintained (query vertex, data vertex) pairs with the
  /// top-down flag set (every D2 pair is also a D1 pair, so this is the
  /// structure's full footprint in flag entries).
  size_t IntermediateSize() const override { return dcs_.D1Count(); }
  std::string name() const override;
  const obs::EngineStats* engine_stats() const override { return &stats_; }

  // --- EngineInterface fault tolerance (contract in harness/engine.h) ---

  [[nodiscard]] Status TryApplyUpdate(const UpdateOp& op, MatchSink& sink,
                                      Deadline deadline) override;

  /// Snapshot format: magic "TFXS" + version, then CRC32-framed sections —
  /// meta (stream position + semantics), query graph, DAG vertex order,
  /// data graph, and the D1/D2 bitsets. The DCS itself is a pure function
  /// of (graph, query, DAG), so Restore recomputes it and cross-validates
  /// the recomputed flags against the snapshot's bitsets (a corruption
  /// check on top of the per-section CRCs).
  [[nodiscard]] Status Checkpoint(std::ostream& out) const override;
  [[nodiscard]] Status Restore(std::istream& in) override;

  uint64_t applied_ops() const override { return applied_ops_; }
  bool dead() const override { return dead_; }
  const std::vector<QuarantinedOp>& quarantine() const override {
    return quarantine_;
  }
  void set_fault_injector(FaultInjector* injector) override {
    injector_ = injector;
  }

  // --- Introspection (tests, benches) ---

  const QueryDag& dag() const { return dag_; }
  const Dcs& dcs() const { return dcs_; }
  const QueryGraph& query() const { return *q_; }
  const Graph& graph() const { return g_; }

  /// Builds a fresh DCS from the *current* data graph, exactly as Init
  /// would. Property tests assert Compare-equality with the incrementally
  /// maintained DCS after every update.
  Dcs RebuildDcsFromScratch() const;

  /// Enumerates every match of the query in the *current* data graph into
  /// `sink` (reported as positive) by searching the maintained DCS.
  /// Returns false on deadline expiry.
  bool EnumerateCurrentMatches(MatchSink& sink,
                               Deadline deadline = Deadline::Infinite());

 private:
  void EvalUpdate(VertexId v, EdgeLabel l, VertexId v2, bool positive,
                  MatchSink& sink);
  void Extend(size_t matched_count, QEdgeId eq, bool positive,
              MatchSink& sink);
  /// Tail of the search once every unmapped query vertex is isolated.
  void EnumerateIsolated(size_t idx, QEdgeId eq, bool positive,
                         MatchSink& sink);
  void Report(QEdgeId eq, bool positive, MatchSink& sink);
  bool SelfLoopsOk(QVertexId u, VertexId v) const;
  /// True iff u is unmapped and all its query neighbours are mapped.
  bool IsIsolated(QVertexId u) const;
  void NoteOpGauges();

  SymBiOptions options_;
  const QueryGraph* q_ = nullptr;
  /// Engine-owned query storage after Restore (q_ then points here).
  std::unique_ptr<QueryGraph> owned_q_;
  Graph g_;
  QueryDag dag_;
  Dcs dcs_;

  // Search scratch.
  Mapping m_;
  std::vector<bool> mapped_;
  std::vector<QVertexId> isolated_;  // deferred vertices, current search
  std::vector<std::vector<VertexId>> iso_cands_;
  bool has_updated_edge_ = false;
  VertexId upd_from_ = kNullVertex;
  EdgeLabel upd_label_ = 0;
  VertexId upd_to_ = kNullVertex;
  Deadline* deadline_ = nullptr;

  bool dead_ = false;
  uint64_t applied_ops_ = 0;
  std::vector<QuarantinedOp> quarantine_;
  FaultInjector* injector_ = nullptr;
  mutable obs::EngineStats stats_;
};

}  // namespace symbi
}  // namespace turboflux

#endif  // TURBOFLUX_SYMBI_SYMBI_H_
