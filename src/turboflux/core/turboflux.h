#ifndef TURBOFLUX_CORE_TURBOFLUX_H_
#define TURBOFLUX_CORE_TURBOFLUX_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "turboflux/common/arena.h"
#include "turboflux/common/deadline.h"
#include "turboflux/common/match.h"
#include "turboflux/common/status.h"
#include "turboflux/common/types.h"
#include "turboflux/core/dcg.h"
#include "turboflux/graph/graph.h"
#include "turboflux/graph/update_stream.h"
#include "turboflux/harness/engine.h"
#include "turboflux/harness/fault_injection.h"
#include "turboflux/query/query_graph.h"
#include "turboflux/query/query_tree.h"

namespace turboflux {

/// Samples the graph memory-layout gauges (adjacency slab bytes, dead
/// slots, pair-table bytes, compaction/rehash counts) from `g`. A
/// standalone engine samples its own graph after every update; a
/// QuerySet samples the shared graph once, when its stats are read.
void SampleGraphLayout(const Graph& g, obs::GraphLayoutStats* stats);

struct TurboFluxOptions {
  MatchSemantics semantics = MatchSemantics::kHomomorphism;

  /// Matching-order policy: the paper's cost-based greedy order derived
  /// from explicit-DCG path counts, or a plain BFS order of the query
  /// tree (ablation baseline).
  enum class OrderPolicy { kCostBased, kBfs };
  OrderPolicy order_policy = OrderPolicy::kCostBased;

  /// Updates between AdjustMatchingOrder drift checks.
  size_t adjust_interval = 1024;
  /// Recompute the matching order when some per-query-vertex explicit-edge
  /// count drifted by more than this factor since the order was computed.
  double adjust_drift = 2.0;
};

/// The TurboFlux continuous subgraph matching engine (Algorithm 2):
/// maintains the DCG under the edge transition model and reports
/// positive/negative matches per update without set differences.
///
///  * Init: ChooseStartQVertex + TransformToTree, BuildDCG for g0
///    (Algorithm 3), DetermineMatchingOrder, and the initial-solution
///    report;
///  * insertion: InsertEdgeAndEval (Algorithm 5) — BuildDCG downwards,
///    BuildUpwardsAndEval (Algorithm 6) to the start vertices with
///    Transition 1/2, then SubgraphSearch (Algorithm 7);
///  * deletion: DeleteEdgeAndEval (Algorithm 8) — ClearUpwardsAndEval
///    (Algorithm 9) first so explicit edges survive until negative matches
///    are reported, then ClearDCG (Algorithm 10) with Transition 3/4/5.
///
/// Duplicate elimination uses the paper's total order over query edges
/// (maximum-order seed reports on insertion, minimum on deletion), applied
/// both inline in IsJoinable and at report time, which also covers
/// solutions mapping several *tree* edges onto the updated data edge.
class TurboFluxEngine : public EngineInterface {
 public:
  explicit TurboFluxEngine(TurboFluxOptions options = {});

  bool Init(const QueryGraph& q, const Graph& g0, MatchSink& sink,
            Deadline deadline) override;
  bool ApplyUpdate(const UpdateOp& op, MatchSink& sink,
                   Deadline deadline) override;

  // --- Shared-graph mode (the QuerySet serving layer, DESIGN.md §3.10) ---
  //
  // A shared-mode engine reads the data graph through a caller-owned
  // pointer instead of its private copy, so N co-registered queries share
  // one graph while keeping per-query DCG/matching-order state. The owner
  // (QuerySet) is the only graph mutator and follows the engine's own
  // update protocol: on insertion it adds the edge *before* any engine
  // evaluates; on deletion it removes the edge only *after* every engine
  // evaluated (negative matches need the edge present). The graph is
  // therefore constant during evaluation, which also makes concurrent
  // EvalSharedUpdate calls on distinct engines safe.

  /// Init against a caller-owned graph: identical bootstrap (tree choice,
  /// DCG build, matching order, initial-solution report) without copying
  /// `*shared`. Both `q` and `*shared` must outlive the engine's use; the
  /// vertex universe of `*shared` must stay fixed (updates are edge-only).
  bool InitShared(const QueryGraph& q, const Graph* shared, MatchSink& sink,
                  Deadline deadline);

  /// Shared-mode counterpart of ApplyUpdate: evaluates the op's DCG
  /// transitions and match delta assuming the owner already applied the
  /// protocol above, i.e. the shared graph currently *contains* op's edge
  /// (for both insertion and deletion). Must only be called for effective
  /// ops — the owner skips duplicate insertions / absent deletions.
  bool EvalSharedUpdate(const UpdateOp& op, MatchSink& sink,
                        Deadline deadline);

  /// Shared-mode counterpart of EvalSharedUpdate for ops the owner did not
  /// evaluate because neither endpoint was active (see
  /// set_active_vertex_listener): such an op changes no DCG state and
  /// reports nothing, so accounting for `ops` of them (`inserts` of which
  /// are insertions) advances only what evaluating them would have —
  /// applied_ops(), the op counters and the adjust-interval count. A
  /// drift check the interval crossed runs once here; the DCG has not
  /// changed since the skipped op, so its result is the same.
  void SkipSharedUpdates(uint64_t ops, uint64_t inserts);

  /// The engine's vertex-activity hook (ActiveVertexListener): `listener`
  /// is told whenever a data vertex gains its first DCG in-edge or loses
  /// its last (nullptr detaches). Not owned.
  void set_active_vertex_listener(ActiveVertexListener* listener) {
    dcg_.set_listener(listener);
  }
  /// Appends every currently active vertex, ascending.
  void AppendActiveVertices(std::vector<VertexId>* out) const {
    dcg_.AppendInEdgeVertices(out);
  }

  bool shared_mode() const { return shared_g_ != nullptr; }

  size_t IntermediateSize() const override { return dcg_.EdgeCount(); }
  std::string name() const override;
  const obs::EngineStats* engine_stats() const override { return &stats_; }

  // --- Fault tolerance (DESIGN.md §3.7) ---

  /// An update op rejected before evaluation: applying it would have
  /// corrupted the engine (e.g. it references a vertex outside the data
  /// universe). The op was consumed from the stream as a no-op.
  using QuarantinedOp = ::turboflux::QuarantinedOp;

  /// Writes a crash-consistent snapshot of the full engine state: format
  /// header (magic + version), then per-section CRC32-framed payloads for
  /// the query, spanning tree, data graph, DCG, and matching-order state.
  /// Adjacency and DCG list *orders* are preserved exactly, so an engine
  /// restored from the snapshot reproduces the original's subsequent match
  /// stream byte-for-byte. Requires Init to have succeeded and the engine
  /// to be alive.
  [[nodiscard]] Status Checkpoint(std::ostream& out) const override;

  /// Rebuilds the engine from a Checkpoint snapshot, replacing all current
  /// state (the query graph is deserialized into engine-owned storage, so
  /// the snapshot outlives any QueryGraph passed to Init). Every section is
  /// checksum- and structure-validated; a corrupted or truncated snapshot
  /// yields a non-OK status and never crashes. On success the engine is
  /// alive and `applied_ops()` reports the snapshot's stream position — the
  /// caller resumes by replaying the update stream from that index. On
  /// failure the engine is left dead (its state may be partially
  /// overwritten).
  [[nodiscard]] Status Restore(std::istream& in) override;

  /// Writes only the CRC32-framed state sections (no format header): meta,
  /// query, tree, optionally the data graph, DCG, matching-order state.
  /// Multi-engine containers (QuerySet) call this with
  /// `include_graph=false` to persist N engines against one shared graph
  /// section of their own; Checkpoint is exactly header +
  /// WriteStateSections(out, true).
  [[nodiscard]] Status WriteStateSections(std::ostream& out,
                                          bool include_graph) const;

  /// Reads back what WriteStateSections wrote and commits it, validating
  /// every section. With `shared_graph == nullptr` the snapshot must
  /// contain a graph section, which is restored into the engine's private
  /// copy (standalone mode). With a non-null `shared_graph` the snapshot
  /// must lack the graph section and the engine comes up in shared mode
  /// bound to `*shared_graph` (which must already hold the graph state the
  /// snapshot was taken against). On failure the engine is left dead.
  [[nodiscard]] Status ReadStateSections(std::istream& in,
                                         const Graph* shared_graph);

  /// ApplyUpdate with graceful degradation: ops that would corrupt the
  /// engine (out-of-range endpoints) are quarantined and consumed as
  /// no-ops (kOutOfRange); legal no-ops are applied and reported
  /// (kNotFound for deleting an absent edge, kFailedPrecondition for a
  /// duplicate insertion); deadline expiry returns kDeadlineExceeded and
  /// leaves the engine dead *without* consuming the op — Restore() and
  /// replay from applied_ops().
  [[nodiscard]] Status TryApplyUpdate(const UpdateOp& op, MatchSink& sink,
                                      Deadline deadline) override;

  /// Number of stream ops consumed so far (applied + quarantined) — the
  /// journal position persisted by Checkpoint.
  uint64_t applied_ops() const override { return applied_ops_; }

  /// True once an op or batch was abandoned (deadline expiry or injected
  /// fault); a dead engine rejects further updates until Restore().
  bool dead() const override { return dead_; }

  /// Ops quarantined since Init (pruned on Restore to positions before the
  /// snapshot, so replay re-reports exactly the re-consumed ones).
  const std::vector<QuarantinedOp>& quarantine() const override {
    return quarantine_;
  }

  /// Installs a test-only fault injector (nullptr to disarm). Not owned.
  void set_fault_injector(FaultInjector* injector) override {
    injector_ = injector;
  }

  // --- Introspection (tests, benches, examples) ---

  const Dcg& dcg() const { return dcg_; }
  const QueryTree& tree() const { return tree_; }
  const QueryGraph& query() const { return *q_; }
  const Graph& graph() const { return G(); }
  const std::vector<QVertexId>& matching_order() const { return mo_; }
  QVertexId start_query_vertex() const { return tree_.root(); }
  size_t matching_order_recomputations() const { return order_recomputes_; }

  /// Builds a fresh DCG from the *current* data graph, exactly as Init
  /// would. Property tests assert Snapshot equality with the incrementally
  /// maintained DCG after every update.
  Dcg RebuildDcgFromScratch() const;

  /// Enumerates every match of the query in the *current* data graph into
  /// `sink` (reported as positive) by searching the maintained DCG — no
  /// recomputation. Returns false on deadline expiry.
  bool EnumerateCurrentMatches(MatchSink& sink,
                               Deadline deadline = Deadline::Infinite());

 private:
  /// Everything Init does after the query/graph bindings are in place;
  /// shared by Init and InitShared.
  bool InitCommon(MatchSink& sink, Deadline deadline);

  /// The data graph all read paths go through: the shared graph in shared
  /// mode, the engine's private copy otherwise. Writes never use this —
  /// only ApplyUpdate mutates, and only in standalone mode.
  const Graph& G() const { return shared_g_ != nullptr ? *shared_g_ : g_; }

  // Algorithm 3: builds the DCG for the subtree of `child` hanging off the
  // data edge (pv, cv), applying Transition 1 and 2. Operates on `dcg` so
  // RebuildDcgFromScratch can share it.
  void BuildDcg(Dcg& dcg, QVertexId child, VertexId pv, VertexId cv) const;

  // Algorithm 5 / 8.
  void InsertEdgeAndEval(VertexId v, EdgeLabel l, VertexId v2,
                         MatchSink& sink);
  void DeleteEdgeAndEval(VertexId v, EdgeLabel l, VertexId v2,
                         MatchSink& sink);

  // Algorithm 6: walks the DCG upwards from (u, v) applying Transition 2
  // Case 2 when `transit` is set, and runs SubgraphSearch at every start
  // vertex reached.
  void BuildUpwardsAndEval(QVertexId u, VertexId v, QEdgeId eq, bool transit,
                           MatchSink& sink);

  // Algorithm 9: the deletion counterpart; Transition 4 is applied *after*
  // the upward recursion so negative matches see the pre-deletion state.
  void ClearUpwardsAndEval(QVertexId u, VertexId v, QVertexId child_u,
                           QEdgeId eq, bool transit, MatchSink& sink);

  // Algorithm 10: Transition 3/5 downwards.
  void ClearDcg(QVertexId child, VertexId pv, VertexId cv);

  // Algorithm 7.
  void RunSearch(QEdgeId eq, bool positive, MatchSink& sink);
  void SubgraphSearch(size_t depth, QEdgeId eq, bool positive,
                      MatchSink& sink);
  bool IsJoinable(QVertexId u, VertexId v, QEdgeId eq, bool positive) const;
  void Report(QEdgeId eq, bool positive, MatchSink& sink);

  // Seed lookup shared by insert and delete: tree children whose parent
  // edge carries the label, and non-tree edges with the label, both
  // pre-sorted ascending by duplicate-elimination rank at Init so the hot
  // path allocates nothing.
  const std::vector<QVertexId>& TreeChildrenForLabel(EdgeLabel l) const;
  const std::vector<QEdgeId>& NonTreeEdgesForLabel(EdgeLabel l) const;

  // Duplicate-elimination total order: tree edges (by id) before non-tree
  // edges (by id).
  uint32_t DedupRank(QEdgeId e) const { return dedup_rank_[e]; }

  void MaybeAdjustMatchingOrder();
  void RecomputeMatchingOrder();

  /// Rebuilds everything derivable from (q_, tree_, g_): dedup ranks,
  /// label-indexed seed lists, the mapping scratch, and start_vertices_.
  /// Shared by Init and Restore.
  void RebuildDerivedIndexes();

  bool Expired() { return deadline_ != nullptr && deadline_->Expired(); }

  TurboFluxOptions options_;
  const QueryGraph* q_ = nullptr;
  // After Restore, q_ points at this engine-owned deserialized copy
  // instead of a caller-provided graph.
  std::unique_ptr<QueryGraph> owned_q_;
  Graph g_;
  // Non-null in shared-graph mode; then g_ stays empty and all graph reads
  // resolve through G(). Not owned — the QuerySet keeps it alive and is the
  // sole mutator (see the shared-mode protocol above).
  const Graph* shared_g_ = nullptr;
  QueryTree tree_;
  Dcg dcg_;
  std::vector<QVertexId> mo_;
  std::vector<VertexId> start_vertices_;
  std::vector<uint32_t> dedup_rank_;
  // Flat label→seed-list indexes (DESIGN.md §3.11): a short spine sorted
  // by label, binary-searched by the ForLabel accessors — queries carry a
  // handful of distinct labels, so this beats hashing and keeps the spine
  // in one cache line. Per-label lists stay in ascending dedup rank.
  std::vector<std::pair<EdgeLabel, std::vector<QVertexId>>>
      tree_children_by_label_;
  std::vector<std::pair<EdgeLabel, std::vector<QEdgeId>>> non_tree_by_label_;

  Mapping m_;
  // Per-op scratch (DESIGN.md §3.11): bump-allocated worklists (ClearDcg
  // recursion targets) reset at the top of every update, so a warm engine
  // performs no heap allocation on the delete hot path.
  Arena scratch_;
  bool has_updated_edge_ = false;
  VertexId upd_from_ = kNullVertex;
  EdgeLabel upd_label_ = 0;
  VertexId upd_to_ = kNullVertex;

  Deadline* deadline_ = nullptr;
  bool dead_ = false;

  // Hot-path counters (reset on Init). Mutable because the const
  // Checkpoint path records bytes/durations too.
  mutable obs::EngineStats stats_;

  // Fault-tolerance state (see TryApplyUpdate / Checkpoint).
  uint64_t applied_ops_ = 0;
  std::vector<QuarantinedOp> quarantine_;
  FaultInjector* injector_ = nullptr;  // not owned

  std::vector<uint64_t> order_counts_snapshot_;
  size_t ops_since_adjust_check_ = 0;
  size_t order_recomputes_ = 0;
};

}  // namespace turboflux

#endif  // TURBOFLUX_CORE_TURBOFLUX_H_
