#ifndef TURBOFLUX_MULTI_QUERY_SET_H_
#define TURBOFLUX_MULTI_QUERY_SET_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "turboflux/common/deadline.h"
#include "turboflux/common/match.h"
#include "turboflux/common/status.h"
#include "turboflux/common/synchronization.h"
#include "turboflux/common/thread_annotations.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/graph/graph.h"
#include "turboflux/graph/update_stream.h"
#include "turboflux/multi/routing_index.h"
#include "turboflux/obs/stats.h"
#include "turboflux/parallel/thread_pool.h"
#include "turboflux/query/query_graph.h"

namespace turboflux {
namespace multi {

/// Identifier of a registered query within a QuerySet: dense from 0 in
/// registration order, never reused after Deregister. Structurally the
/// monotonically assigned by the owning set, never reused.
using QueryId = uint32_t;

/// Byte-exact structural identity of a query graph (vertex labels in id
/// order + edge triples in id order). Two queries with equal signatures
/// have identical match sets over any data graph, so the QuerySet serves
/// them from one runtime. This is *structural* identity, not isomorphism —
/// a relabeled-vertex duplicate gets its own runtime, which is only a
/// missed sharing opportunity, never a correctness issue.
std::string QuerySignature(const QueryGraph& q);

struct QuerySetOptions {
  /// Per-runtime engine options. The QuerySet parallelizes *across*
  /// queries, never inside one.
  TurboFluxOptions engine;

  /// Worker threads for cross-query evaluation (1 = sequential; N > 1
  /// evaluates an op's runtimes on the calling thread plus up to N-1 pool
  /// workers, with per-runtime match buffers flushed deterministically).
  /// An op uses min(N, runtimes evaluated) threads.
  size_t threads = 1;

  /// Serve signature-identical queries from one shared runtime (engine +
  /// DCG); registration of a duplicate then costs one DCG enumeration
  /// instead of a full bootstrap, and every update is evaluated once per
  /// *distinct* query instead of once per registered query.
  bool share_identical = true;
};

/// The multi-query serving layer (DESIGN.md §3.10): N standing queries
/// over ONE shared data graph, with per-query DCG state, online
/// Register/Deregister while the stream runs, and two-stage per-update
/// routing so each update only touches the queries it can affect: an
/// inverted (edge-label, src-label, dst-label) index, then a vertex index
/// that keeps the runtimes in which an endpoint is active (has a DCG
/// in-edge). A routed runtime the vertex index skips is never touched;
/// what evaluating the op would have counted is applied lazily.
///
/// Replaces a naive per-query engine fan-out (one private graph copy per
/// query, every query evaluated on every update). Per-query match streams
/// are exactly those of N independent TurboFluxEngine runs — the
/// differential suite (test_query_set_differential.cc) pins this per
/// query, per op, under registration churn.
///
/// Update protocol (what makes one shared graph sound): the QuerySet is
/// the graph's only mutator. On insertion it applies the edge *before*
/// any engine evaluates; on deletion it removes the edge only *after*
/// every routed engine evaluated. The graph is constant during
/// evaluation, so routed runtimes evaluate concurrently without
/// synchronizing on it.
///
/// Thread safety: all public methods are mutually exclusive via an
/// internal mutex — Register/Deregister may race ApplyUpdate from other
/// threads and serialize cleanly (the TSan stress test exercises this).
/// Sinks are invoked with the mutex held and must not call back into the
/// QuerySet.
class QuerySet {
 public:
  /// Receives (query id, sign, mapping) callbacks.
  class Sink {
   public:
    virtual ~Sink() = default;
    virtual void OnMatch(QueryId query, bool positive, const Mapping& m) = 0;
  };

  /// Per-query cost attribution, maintained unconditionally (plain
  /// uint64 adds on the serving layer, not an engine hot path).
  struct QueryCosts {
    /// ops the label route sent to this query, evaluated or not
    uint64_t routed_ops = 0;
    uint64_t matches_positive = 0;
    uint64_t matches_negative = 0;
  };

  explicit QuerySet(QuerySetOptions options = {});
  ~QuerySet();

  QuerySet(const QuerySet&) = delete;
  QuerySet& operator=(const QuerySet&) = delete;

  /// Binds the initial data graph (copied). Must be called once before the
  /// first Register; Restore() is the only other way to bind.
  void Bind(const Graph& g0) EXCLUDES(mu_);

  /// Registers a query against the *current* graph: bootstraps its DCG
  /// (or joins a signature-identical runtime), reports its initial
  /// matches to `sink` tagged with the new id, and indexes it for
  /// routing. Ids are dense from 0 and never reused. On deadline expiry
  /// nothing shared was mutated — the set stays fully usable.
  [[nodiscard]] Status Register(const QueryGraph& q, Sink& sink,
                                Deadline deadline, QueryId* id) EXCLUDES(mu_);

  /// Removes a query. Its runtime (engine + DCG) is reclaimed when the
  /// last signature-sharing member leaves; routing keys are dropped with
  /// the runtime.
  [[nodiscard]] Status Deregister(QueryId id) EXCLUDES(mu_);

  /// Applies one update: validates it, routes it through the label and
  /// vertex indexes, mutates the shared graph per the update protocol,
  /// evaluates the runtimes both route to (in parallel when
  /// options.threads > 1), and reports every match tagged with its query
  /// id — members ascending within a runtime, runtimes in slot order, so
  /// output is deterministic.
  ///
  /// Returns kOutOfRange (op quarantined, consumed as a no-op),
  /// kNotFound / kFailedPrecondition (legal no-op, consumed), OK
  /// (evaluated), or kDeadlineExceeded — the set is then dead: no matches
  /// of the abandoned op were flushed and the op was NOT consumed;
  /// Restore() from a snapshot and replay from applied_ops(). The
  /// deadline is polled once per op that the label route sends to any
  /// runtime, evaluated or not.
  [[nodiscard]] Status ApplyUpdate(const UpdateOp& op, Sink& sink,
                                   Deadline deadline) EXCLUDES(mu_);

  /// Sequential convenience loop over ApplyUpdate; stops at the first
  /// deadline expiry. No-op statuses are consumed silently.
  [[nodiscard]] Status ApplyBatch(std::span<const UpdateOp> ops, Sink& sink,
                                  Deadline deadline) EXCLUDES(mu_);

  // --- Whole-set checkpoint (DESIGN.md §3.7/§3.10) ---

  /// Snapshots the whole set: magic "TFXQ" + version, then CRC32-framed
  /// sections — set meta, the shared graph (once), the query registry
  /// (ids, runtime assignments, per-query cost counters), and each live
  /// runtime's engine state via WriteStateSections(include_graph=false).
  [[nodiscard]] Status Checkpoint(std::ostream& out) const EXCLUDES(mu_);

  /// Rebuilds the set from a Checkpoint snapshot, replacing all current
  /// state; every runtime is re-bound to the restored shared graph and
  /// the routing index and signature map are recomputed. On
  /// success applied_ops() is the snapshot's stream position. On failure
  /// the set is left dead.
  [[nodiscard]] Status Restore(std::istream& in) EXCLUDES(mu_);

  // --- Introspection ---

  /// Live (registered, not deregistered) query count.
  size_t QueryCount() const EXCLUDES(mu_);
  /// Distinct runtimes serving them (== QueryCount unless sharing).
  size_t RuntimeCount() const EXCLUDES(mu_);
  /// Sum of the per-runtime DCG sizes.
  size_t IntermediateSize() const EXCLUDES(mu_);
  /// Ids of all live queries, ascending.
  std::vector<QueryId> LiveQueries() const EXCLUDES(mu_);
  bool IsLive(QueryId id) const EXCLUDES(mu_);

  uint64_t applied_ops() const EXCLUDES(mu_);
  bool dead() const EXCLUDES(mu_);
  const Graph& graph() const EXCLUDES(mu_);

  /// Per-query attribution; zeros for unknown ids, the totals at exit
  /// for deregistered ones.
  QueryCosts Costs(QueryId id) const EXCLUDES(mu_);
  /// Runtime evaluations across all ops since Bind or Restore (it is not
  /// snapshotted): the "queries consulted" figure the naive fan-out pays
  /// QueryCount() per op for.
  uint64_t ConsultedEvals() const EXCLUDES(mu_);
  /// Runtimes the label route reached across all ops (snapshotted), so
  /// RoutedEvals() - ConsultedEvals() is what the vertex index saved.
  uint64_t RoutedEvals() const EXCLUDES(mu_);

  /// The engine serving `id`, first caught up on every op routed to it;
  /// nullptr for unknown or deregistered ids. For introspection: the
  /// pointer stays valid until the query's runtime is dropped or the set
  /// restored, and must not be read concurrently with other calls.
  const TurboFluxEngine* Engine(QueryId id) EXCLUDES(mu_);

  /// Exhaustive check of the vertex index: it must hold exactly the
  /// (vertex, slot) pairs whose runtime has the vertex active, ascending
  /// per vertex. Returns an empty string when consistent, else the first
  /// violation (like Dcg::Validate). O(|V| · runtimes); for tests.
  std::string ValidateVertexIndex() const EXCLUDES(mu_);

  /// Appends set counters ("queryset.*"), the shared graph's layout
  /// gauges ("queryset.graph.*"), per-query attribution
  /// ("queryset.q<ID>.*"), and each runtime's engine counters (under its
  /// lowest live member id) to `out`.
  void AppendStats(obs::StatsSnapshot& out) const EXCLUDES(mu_);

 private:
  /// One engine serving every registered query with an identical
  /// signature. It is its engine's ActiveVertexListener: flips are
  /// buffered here while the engine evaluates (pool workers may evaluate
  /// runtimes concurrently) and applied to the vertex index afterwards.
  struct Runtime : ActiveVertexListener {
    Runtime() = default;
    Runtime(const Runtime&) = delete;  // the engine holds its address
    Runtime& operator=(const Runtime&) = delete;

    std::unique_ptr<QueryGraph> query;  // stable address for the engine
    std::unique_ptr<TurboFluxEngine> engine;
    std::vector<QueryId> members;  // live member ids, ascending
    std::string signature;
    // The slot's routed count as of the engine's last CatchUp.
    RoutingIndex::RoutedCount synced;
    std::vector<std::pair<VertexId, bool>> flips;

    void OnActiveChange(VertexId v, bool active) override {
      flips.emplace_back(v, active);
    }
  };

  struct QueryRecord {
    uint32_t slot = 0;
    bool live = false;
    // costs.routed_ops is the total as of the slot's routed count
    // `routed_mark`; RoutedOps adds what was routed since.
    QueryCosts costs;
    uint64_t routed_mark = 0;
  };

  class RuntimeMatchBuffer;  // query_set.cc

  uint32_t AllocSlot() REQUIRES(mu_);
  void IndexRuntime(uint32_t slot) REQUIRES(mu_);
  void DropRuntime(uint32_t slot) REQUIRES(mu_);
  void ResetStateLocked() REQUIRES(mu_);
  bool EvalRouted(const UpdateOp& op, size_t routed, Sink& sink,
                  Deadline deadline) REQUIRES(mu_);
  uint64_t RoutedOps(QueryId id) const REQUIRES(mu_);

  /// Applies to the runtime in `slot` the ops routed to it that it was
  /// not evaluated for (TurboFluxEngine::SkipSharedUpdates), except
  /// `evaluating`, the op about to be evaluated, when non-null. Runs
  /// before a runtime is evaluated or enumerated and before a snapshot
  /// or stats read. Logically const: the engine ends up exactly as if it
  /// had evaluated every routed op, which is what the set's readers
  /// observe; it is reached through its owning pointer.
  void CatchUp(uint32_t slot, const UpdateOp* evaluating) const
      REQUIRES(mu_);
  void CatchUpAll() const REQUIRES(mu_);

  const QuerySetOptions options_;

  mutable Mutex mu_;
  bool bound_ GUARDED_BY(mu_) = false;
  bool dead_ GUARDED_BY(mu_) = false;
  Graph g_ GUARDED_BY(mu_);

  // Slot vector with free-list reuse; nullptr = free slot. QueryIds are
  // monotonic and never reused; slots are.
  std::vector<std::unique_ptr<Runtime>> runtimes_ GUARDED_BY(mu_);
  std::vector<uint32_t> free_slots_ GUARDED_BY(mu_);
  std::vector<QueryRecord> records_ GUARDED_BY(mu_);  // indexed by QueryId

  std::unordered_map<std::string, uint32_t> by_signature_ GUARDED_BY(mu_);
  RoutingIndex routing_ GUARDED_BY(mu_);
  VertexIndex vertex_index_ GUARDED_BY(mu_);

  // Per-op scratch, reused so a warm EvalRouted does not allocate: the
  // slots evaluated, their engines (for pool workers), their match
  // buffers, and the mapping a flush passes to the sink.
  std::vector<uint32_t> evaluated_ GUARDED_BY(mu_);
  std::vector<TurboFluxEngine*> evaluated_engines_ GUARDED_BY(mu_);
  std::vector<RuntimeMatchBuffer> buffers_ GUARDED_BY(mu_);
  Mapping flush_scratch_ GUARDED_BY(mu_);
  std::vector<VertexId> active_scratch_ GUARDED_BY(mu_);

  uint64_t applied_ops_ GUARDED_BY(mu_) = 0;

  // Set-level counters (always maintained; exported by AppendStats).
  uint64_t ops_evaluated_ GUARDED_BY(mu_) = 0;
  uint64_t ops_noop_ GUARDED_BY(mu_) = 0;
  uint64_t ops_quarantined_ GUARDED_BY(mu_) = 0;
  uint64_t routed_evals_ GUARDED_BY(mu_) = 0;
  uint64_t consulted_evals_ GUARDED_BY(mu_) = 0;
  uint64_t registrations_ GUARDED_BY(mu_) = 0;
  uint64_t registrations_shared_ GUARDED_BY(mu_) = 0;
  uint64_t deregistrations_ GUARDED_BY(mu_) = 0;
  // Mutable: Checkpoint is logically const but counts itself.
  mutable uint64_t checkpoints_ GUARDED_BY(mu_) = 0;
  uint64_t restores_ GUARDED_BY(mu_) = 0;

  std::unique_ptr<parallel::ThreadPool> pool_ GUARDED_BY(mu_);
};

}  // namespace multi
}  // namespace turboflux

#endif  // TURBOFLUX_MULTI_QUERY_SET_H_
