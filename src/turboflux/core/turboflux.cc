#include "turboflux/core/turboflux.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "turboflux/core/matching_order.h"
#include "turboflux/query/query_stats.h"

namespace turboflux {

TurboFluxEngine::TurboFluxEngine(TurboFluxOptions options)
    : options_(options) {}

std::string TurboFluxEngine::name() const {
  return options_.semantics == MatchSemantics::kIsomorphism ? "TurboFlux-iso"
                                                            : "TurboFlux";
}

bool TurboFluxEngine::Init(const QueryGraph& q, const Graph& g0,
                           MatchSink& sink, Deadline deadline) {
  q_ = &q;
  owned_q_.reset();
  shared_g_ = nullptr;
  g_ = g0;
  return InitCommon(sink, deadline);
}

bool TurboFluxEngine::InitShared(const QueryGraph& q, const Graph* shared,
                                 MatchSink& sink, Deadline deadline) {
  assert(shared != nullptr);
  q_ = &q;
  owned_q_.reset();
  g_ = Graph();  // reads go through *shared; keep no private copy
  shared_g_ = shared;
  return InitCommon(sink, deadline);
}

bool TurboFluxEngine::InitCommon(MatchSink& sink, Deadline deadline) {
  assert(q_->VertexCount() > 0 && q_->EdgeCount() > 0 && q_->IsConnected());
  deadline_ = &deadline;
  dead_ = false;
  has_updated_edge_ = false;
  applied_ops_ = 0;
  quarantine_.clear();
  stats_.Reset();

  QueryStats stats = ComputeQueryStats(*q_, G());
  QVertexId root = ChooseStartQVertex(*q_, stats);
  tree_ = QueryTree::Build(*q_, root, stats);

  RebuildDerivedIndexes();
  dcg_.Reset(G().VertexCount(), tree_);

  for (VertexId v : start_vertices_) {
    BuildDcg(dcg_, root, kArtificialVertex, v);
    if (Expired()) {
      dead_ = true;
      return false;
    }
  }

  RecomputeMatchingOrder();

  // Report the solutions of the initial data graph g0.
  for (VertexId v : start_vertices_) {
    if (dcg_.GetState(kArtificialVertex, root, v) != DcgState::kExplicit) {
      continue;
    }
    m_[root] = v;
    RunSearch(kNullQEdge, /*positive=*/true, sink);
    m_[root] = kNullVertex;
    if (Expired()) {
      dead_ = true;
      return false;
    }
  }
  deadline_ = nullptr;
  if (deadline.ExpiredNow()) {
    dead_ = true;
    return false;
  }
  stats_.intermediate_size.Set(dcg_.EdgeCount());
  stats_.peak_intermediate.SetMax(dcg_.EdgeCount());
  ResetPeakIntermediate();
  if (!shared_mode()) SampleGraphLayout(g_, &stats_.graph);
  return true;
}

void SampleGraphLayout(const Graph& g, obs::GraphLayoutStats* stats) {
  stats->adj_bytes.Set(g.AdjacencyMemoryBytes());
  stats->adj_dead_slots.Set(g.AdjacencyDeadSlots());
  stats->pair_table_bytes.Set(g.PairTableMemoryBytes());
  stats->compactions.Set(g.CompactionEpochs());
  stats->rehashes.Set(g.PairTableRehashes());
}

void TurboFluxEngine::RebuildDerivedIndexes() {
  const QueryGraph& q = *q_;
  const QVertexId root = tree_.root();

  // Duplicate-elimination rank: tree edges (by id) before non-tree edges.
  dedup_rank_.assign(q.EdgeCount(), 0);
  for (QEdgeId e = 0; e < q.EdgeCount(); ++e) {
    dedup_rank_[e] =
        e + (tree_.IsTreeEdge(e) ? 0 : static_cast<uint32_t>(q.EdgeCount()));
  }

  // Label-indexed seed lists, ascending dedup rank (tree edges are
  // visited in query-edge-id order, which is ascending rank). Appending
  // preserves per-label order; only the spine is sorted, for the binary
  // search in the ForLabel accessors.
  tree_children_by_label_.clear();
  non_tree_by_label_.clear();
  auto list_for = [](auto& index, EdgeLabel l) -> auto& {
    for (auto& entry : index) {
      if (entry.first == l) return entry.second;
    }
    index.emplace_back();
    index.back().first = l;
    return index.back().second;
  };
  for (QEdgeId e = 0; e < q.EdgeCount(); ++e) {
    const QEdge& qe = q.edge(e);
    if (tree_.IsTreeEdge(e)) {
      QVertexId child =
          tree_.parent_edge(qe.from).qedge == e ? qe.from : qe.to;
      list_for(tree_children_by_label_, qe.label).push_back(child);
    } else {
      list_for(non_tree_by_label_, qe.label).push_back(e);
    }
  }
  auto by_label = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(tree_children_by_label_.begin(), tree_children_by_label_.end(),
            by_label);
  std::sort(non_tree_by_label_.begin(), non_tree_by_label_.end(), by_label);

  m_.assign(q.VertexCount(), kNullVertex);

  // (Re)bind DCG transition counters: shared by Init and Restore, and the
  // binding must survive dcg_.Reset/Deserialize.
  dcg_.set_stats(&stats_.dcg);

  start_vertices_.clear();
  for (VertexId v = 0; v < G().VertexCount(); ++v) {
    if (q.VertexMatches(root, G(), v)) start_vertices_.push_back(v);
  }
}

bool TurboFluxEngine::ApplyUpdate(const UpdateOp& op, MatchSink& sink,
                                  Deadline deadline) {
  assert(q_ != nullptr);
  assert(!shared_mode());  // the graph owner drives EvalSharedUpdate instead
  if (dead_) return false;
  scratch_.Reset();
  // Crash simulation: on the op the fault plan marks, evaluate against an
  // already-expired deadline. The amortized expiry check trips partway
  // through the op's transitions, abandoning it at a genuine
  // partial-progress point — exactly what a crash mid-op leaves behind.
  // The caller's deadline is untouched, so harnesses can distinguish an
  // injected fault (deadline.ExpiredNow() == false) from a real expiry.
  Deadline poison = Deadline::AfterMillis(0);
  const bool injected = injector_ != nullptr && injector_->ShouldFailOp();
  deadline_ = injected ? &poison : &deadline;
  has_updated_edge_ = true;
  upd_from_ = op.from;
  upd_label_ = op.label;
  upd_to_ = op.to;

  if (op.IsInsert()) {
    stats_.ops_insert.Inc();
    // Line 15-16 of Algorithm 2: insert into g first, then evaluate.
    if (g_.AddEdge(op.from, op.label, op.to)) {
      stats_.insert_evals.Inc();
      InsertEdgeAndEval(op.from, op.label, op.to, sink);
    }
  } else {
    stats_.ops_delete.Inc();
    // Line 18-19: evaluate first (negative matches need the edge), then
    // delete from g.
    if (g_.HasEdge(op.from, op.label, op.to)) {
      stats_.delete_evals.Inc();
      DeleteEdgeAndEval(op.from, op.label, op.to, sink);
      g_.RemoveEdge(op.from, op.label, op.to);
    }
  }

  has_updated_edge_ = false;
  deadline_ = nullptr;
  if (deadline.ExpiredNow() || injected || dead_) {
    dead_ = true;
    return false;
  }
  ++applied_ops_;
  stats_.intermediate_size.Set(dcg_.EdgeCount());
  stats_.peak_intermediate.SetMax(dcg_.EdgeCount());
  NotePeakIntermediate();
  SampleGraphLayout(g_, &stats_.graph);
  MaybeAdjustMatchingOrder();
  return true;
}

bool TurboFluxEngine::EvalSharedUpdate(const UpdateOp& op, MatchSink& sink,
                                       Deadline deadline) {
  assert(q_ != nullptr && shared_mode());
  if (dead_) return false;
  scratch_.Reset();
  deadline_ = &deadline;
  has_updated_edge_ = true;
  upd_from_ = op.from;
  upd_label_ = op.label;
  upd_to_ = op.to;

  // The owner already screened no-ops and applied the graph mutation
  // protocol (insert before, delete after), so both branches evaluate
  // unconditionally against a graph that contains op's edge.
  if (op.IsInsert()) {
    stats_.ops_insert.Inc();
    stats_.insert_evals.Inc();
    InsertEdgeAndEval(op.from, op.label, op.to, sink);
  } else {
    stats_.ops_delete.Inc();
    stats_.delete_evals.Inc();
    DeleteEdgeAndEval(op.from, op.label, op.to, sink);
  }

  has_updated_edge_ = false;
  deadline_ = nullptr;
  if (deadline.ExpiredNow() || dead_) {
    dead_ = true;
    return false;
  }
  ++applied_ops_;
  stats_.intermediate_size.Set(dcg_.EdgeCount());
  stats_.peak_intermediate.SetMax(dcg_.EdgeCount());
  NotePeakIntermediate();
  MaybeAdjustMatchingOrder();
  return true;
}

void TurboFluxEngine::SkipSharedUpdates(uint64_t ops, uint64_t inserts) {
  assert(q_ != nullptr && shared_mode() && inserts <= ops);
  if (ops == 0) return;
  applied_ops_ += ops;
  stats_.ops_insert.Inc(inserts);
  stats_.insert_evals.Inc(inserts);
  stats_.ops_delete.Inc(ops - inserts);
  stats_.delete_evals.Inc(ops - inserts);
  // MaybeAdjustMatchingOrder once per skipped op, folded: only the first
  // crossing of the interval can recompute (the DCG is unchanged, so a
  // later crossing sees no drift), and every crossing restarts the count.
  const uint64_t interval = std::max<size_t>(options_.adjust_interval, 1);
  const uint64_t total = ops_since_adjust_check_ + ops;
  if (total >= interval) {
    ops_since_adjust_check_ = interval - 1;
    MaybeAdjustMatchingOrder();
  }
  ops_since_adjust_check_ = total % interval;
}

Status TurboFluxEngine::TryApplyUpdate(const UpdateOp& op, MatchSink& sink,
                                       Deadline deadline) {
  assert(q_ != nullptr);
  if (dead_) {
    return Status::FailedPrecondition("engine is dead; Restore() it first");
  }
  Status v = ValidateOp(G(), op);
  if (v.code() == StatusCode::kOutOfRange) {
    // Applying this op would index past the adjacency arrays: quarantine
    // it and consume it from the stream as a no-op.
    quarantine_.push_back({applied_ops_, op, v});
    ++applied_ops_;
    return v;
  }
  // kNotFound (deleting an absent edge) and kFailedPrecondition (duplicate
  // insertion) are legal no-ops; ApplyUpdate handles them without state
  // damage and the informational status is passed through.
  if (!ApplyUpdate(op, sink, deadline)) {
    return Status::DeadlineExceeded("update " + op.ToString() +
                                    " abandoned mid-evaluation");
  }
  return v;
}

bool TurboFluxEngine::EnumerateCurrentMatches(MatchSink& sink,
                                              Deadline deadline) {
  assert(q_ != nullptr && !dead_);
  deadline_ = &deadline;
  has_updated_edge_ = false;
  QVertexId root = tree_.root();
  for (VertexId v : start_vertices_) {
    if (dcg_.GetState(kArtificialVertex, root, v) != DcgState::kExplicit) {
      continue;
    }
    m_[root] = v;
    RunSearch(kNullQEdge, /*positive=*/true, sink);
    m_[root] = kNullVertex;
    if (Expired()) break;
  }
  deadline_ = nullptr;
  return !deadline.ExpiredNow();
}

// --- DCG construction (Algorithm 3) ---

void TurboFluxEngine::BuildDcg(Dcg& dcg, QVertexId child, VertexId pv,
                               VertexId cv) const {
  if (deadline_ != nullptr && deadline_->Expired()) return;
  // Case 1 (non-recursive call) or Case 2 (recursive) of Transition 1.
  dcg.SetState(pv, child, cv, DcgState::kImplicit);
  // Check-and-avoid: if cv already had another incoming edge labeled
  // `child`, its subtrees are already built.
  if (dcg.InCount(cv, child) == 1) {
    for (QVertexId cc : tree_.Children(child)) {
      const QueryTree::ParentEdge& pe = tree_.parent_edge(cc);
      const Graph::AdjView adj =
          pe.forward ? G().OutEdges(cv) : G().InEdges(cv);
      for (const AdjEntry& e : adj) {
        if (e.label != pe.label) continue;
        if (!q_->VertexMatches(cc, G(), e.other)) continue;
        BuildDcg(dcg, cc, cv, e.other);
      }
    }
  }
  // Case 1 or 2 of Transition 2.
  if (dcg.MatchAllChildren(cv, child)) {
    dcg.SetState(pv, child, cv, DcgState::kExplicit);
  }
}

Dcg TurboFluxEngine::RebuildDcgFromScratch() const {
  Dcg fresh;
  fresh.Reset(G().VertexCount(), tree_);
  QVertexId root = tree_.root();
  for (VertexId v = 0; v < G().VertexCount(); ++v) {
    if (q_->VertexMatches(root, G(), v)) {
      BuildDcg(fresh, root, kArtificialVertex, v);
    }
  }
  return fresh;
}

// --- Seeds ---

namespace {
const std::vector<QVertexId> kNoChildren;
const std::vector<QEdgeId> kNoEdges;
}  // namespace

namespace {
/// Binary search over a label-sorted spine (RebuildDerivedIndexes sorts).
template <typename Index>
const typename Index::value_type::second_type* FindLabel(const Index& index,
                                                         EdgeLabel l) {
  auto it = std::lower_bound(
      index.begin(), index.end(), l,
      [](const typename Index::value_type& e, EdgeLabel key) {
        return e.first < key;
      });
  if (it == index.end() || it->first != l) return nullptr;
  return &it->second;
}
}  // namespace

const std::vector<QVertexId>& TurboFluxEngine::TreeChildrenForLabel(
    EdgeLabel l) const {
  const std::vector<QVertexId>* found = FindLabel(tree_children_by_label_, l);
  return found != nullptr ? *found : kNoChildren;
}

const std::vector<QEdgeId>& TurboFluxEngine::NonTreeEdgesForLabel(
    EdgeLabel l) const {
  const std::vector<QEdgeId>* found = FindLabel(non_tree_by_label_, l);
  return found != nullptr ? *found : kNoEdges;
}

// --- Edge insertion (Algorithm 5) ---

void TurboFluxEngine::InsertEdgeAndEval(VertexId v, EdgeLabel l, VertexId v2,
                                        MatchSink& sink) {
  // Tree query edges matching the inserted data edge, ascending rank.
  for (QVertexId child : TreeChildrenForLabel(l)) {
    if (Expired()) return;
    const QueryTree::ParentEdge& pe = tree_.parent_edge(child);
    VertexId pv = pe.forward ? v : v2;
    VertexId cv = pe.forward ? v2 : v;
    QVertexId u = pe.parent;
    // Case 2 of Transition 0: no incoming edge labeled u at pv.
    if (!dcg_.HasInEdge(pv, u)) continue;
    // Case 1 of Transition 0: endpoint labels must match.
    if (!q_->VertexMatches(child, G(), cv)) continue;
    // Build downwards unless a concurrent seed's cascade already did.
    if (dcg_.GetState(pv, child, cv) == DcgState::kNull) {
      BuildDcg(dcg_, child, pv, cv);
    }
    if (dcg_.GetState(pv, child, cv) == DcgState::kExplicit &&
        dcg_.MatchAllChildren(pv, u)) {
      m_[child] = cv;
      BuildUpwardsAndEval(u, pv, pe.qedge, /*transit=*/true, sink);
      m_[child] = kNullVertex;
    }
  }

  // Non-tree query edges: no DCG modification, traverse upwards only.
  for (QEdgeId e : NonTreeEdgesForLabel(l)) {
    if (Expired()) return;
    const QEdge& qe = q_->edge(e);
    if (qe.from == qe.to && v != v2) continue;  // self-loop query edge
    if (!dcg_.HasInEdge(v, qe.from) || !dcg_.HasInEdge(v2, qe.to)) continue;
    if (!dcg_.MatchAllChildren(v, qe.from) ||
        !dcg_.MatchAllChildren(v2, qe.to)) {
      continue;
    }
    VertexId prev = m_[qe.to];
    if (prev != kNullVertex && prev != v2) continue;
    m_[qe.to] = v2;
    BuildUpwardsAndEval(qe.from, v, e, /*transit=*/false, sink);
    m_[qe.to] = prev;
  }
}

// --- Upward walk on insertion (Algorithm 6) ---

void TurboFluxEngine::BuildUpwardsAndEval(QVertexId u, VertexId v, QEdgeId eq,
                                          bool transit, MatchSink& sink) {
  if (Expired()) return;
  VertexId prev = m_[u];
  if (prev != kNullVertex && prev != v) return;  // conflicting fixed mapping
  m_[u] = v;
  // In-list membership is stable during the upward phase (only states
  // change), so indexed iteration is safe.
  const size_t n = dcg_.InEdgesOf(v, u).size();
  for (size_t i = 0; i < n; ++i) {
    const Dcg::InEdge& in = dcg_.InEdgesOf(v, u)[i];
    VertexId vp = in.from;
    if (in.state == DcgState::kImplicit) {
      if (!transit) continue;  // non-tree walk follows explicit edges only
      // Case 2 of Transition 2: v now has an explicit outgoing edge for
      // every child of u (guaranteed by the caller's MatchAllChildren).
      dcg_.SetState(vp, u, v, DcgState::kExplicit);
    }
    if (tree_.IsRoot(u)) {
      RunSearch(eq, /*positive=*/true, sink);
    } else {
      QVertexId up = tree_.Parent(u);
      if (dcg_.MatchAllChildren(vp, up)) {
        BuildUpwardsAndEval(up, vp, eq, transit, sink);
      }
    }
    if (Expired()) break;
  }
  m_[u] = prev;
}

// --- Edge deletion (Algorithm 8) ---

void TurboFluxEngine::DeleteEdgeAndEval(VertexId v, EdgeLabel l, VertexId v2,
                                        MatchSink& sink) {
  for (QVertexId child : TreeChildrenForLabel(l)) {
    if (Expired()) return;
    const QueryTree::ParentEdge& pe = tree_.parent_edge(child);
    VertexId pv = pe.forward ? v : v2;
    VertexId cv = pe.forward ? v2 : v;
    QVertexId u = pe.parent;
    if (!dcg_.HasInEdge(pv, u)) continue;
    if (!q_->VertexMatches(child, G(), cv)) continue;
    DcgState st = dcg_.GetState(pv, child, cv);
    if (st == DcgState::kNull) continue;  // cleared by an earlier cascade
    if (st == DcgState::kExplicit && dcg_.MatchAllChildren(pv, u)) {
      // Report negative matches before any state is cleared.
      m_[child] = cv;
      ClearUpwardsAndEval(u, pv, child, pe.qedge, /*transit=*/true, sink);
      m_[child] = kNullVertex;
    }
    ClearDcg(child, pv, cv);
  }

  for (QEdgeId e : NonTreeEdgesForLabel(l)) {
    if (Expired()) return;
    const QEdge& qe = q_->edge(e);
    if (qe.from == qe.to && v != v2) continue;
    if (!dcg_.HasInEdge(v, qe.from) || !dcg_.HasInEdge(v2, qe.to)) continue;
    if (!dcg_.MatchAllChildren(v, qe.from) ||
        !dcg_.MatchAllChildren(v2, qe.to)) {
      continue;
    }
    VertexId prev = m_[qe.to];
    if (prev != kNullVertex && prev != v2) continue;
    m_[qe.to] = v2;
    ClearUpwardsAndEval(qe.from, v, kNullQVertex, e, /*transit=*/false, sink);
    m_[qe.to] = prev;
  }
}

// --- Upward walk on deletion (Algorithm 9) ---

void TurboFluxEngine::ClearUpwardsAndEval(QVertexId u, VertexId v,
                                          QVertexId child_u, QEdgeId eq,
                                          bool transit, MatchSink& sink) {
  if (Expired()) return;
  VertexId prev = m_[u];
  if (prev != kNullVertex && prev != v) return;
  m_[u] = v;
  // Precondition of Case 1 of Transition 4: the edge about to disappear is
  // v's last outgoing explicit edge labeled child_u (counted while it is
  // still present).
  const bool precondition = transit && child_u != kNullQVertex &&
                            dcg_.ExplicitOutCount(v, child_u) == 1;
  const size_t n = dcg_.InEdgesOf(v, u).size();
  for (size_t i = 0; i < n; ++i) {
    const Dcg::InEdge& in = dcg_.InEdgesOf(v, u)[i];
    if (in.state != DcgState::kExplicit) continue;
    VertexId vp = in.from;
    if (tree_.IsRoot(u)) {
      RunSearch(eq, /*positive=*/false, sink);
    } else {
      QVertexId up = tree_.Parent(u);
      if (dcg_.MatchAllChildren(vp, up)) {
        ClearUpwardsAndEval(up, vp, u, eq, precondition, sink);
      }
    }
    // Case 1 of Transition 4, applied after the recursion so negative
    // matches are enumerated against the pre-deletion explicit state.
    if (precondition) {
      dcg_.SetState(vp, u, v, DcgState::kImplicit);
    }
    if (Expired()) break;
  }
  m_[u] = prev;
}

// --- Downward clearing (Algorithm 10) ---

void TurboFluxEngine::ClearDcg(QVertexId child, VertexId pv, VertexId cv) {
  if (dcg_.GetState(pv, child, cv) == DcgState::kNull) return;
  // Case 1 or 2 of Transition 3 (explicit) or 5 (implicit).
  dcg_.SetState(pv, child, cv, DcgState::kNull);
  // If cv lost its last incoming edge labeled `child`, its subtree no
  // longer has path support: clear it recursively.
  if (dcg_.InCount(cv, child) == 0) {
    for (QVertexId cc : tree_.Children(child)) {
      // The recursion mutates dcg_'s out-list, so the targets are copied
      // out first — into arena scratch (reset once per update), not a
      // per-level heap vector.
      const std::vector<Dcg::OutEdge>& out = dcg_.OutEdgesOf(cv, cc);
      const size_t n = out.size();
      VertexId* targets = scratch_.AllocateArray<VertexId>(n);
      for (size_t i = 0; i < n; ++i) targets[i] = out[i].to;
      for (size_t i = 0; i < n; ++i) ClearDcg(cc, cv, targets[i]);
    }
  }
}

// --- Subgraph search (Algorithm 7) ---

void TurboFluxEngine::RunSearch(QEdgeId eq, bool positive, MatchSink& sink) {
  stats_.search_seeds.Inc();
  if (options_.semantics == MatchSemantics::kIsomorphism) {
    // The fixed seed path must itself be injective.
    for (size_t i = 0; i < m_.size(); ++i) {
      if (m_[i] == kNullVertex) continue;
      for (size_t j = i + 1; j < m_.size(); ++j) {
        if (m_[j] == m_[i]) return;
      }
    }
  }
  SubgraphSearch(0, eq, positive, sink);
}

void TurboFluxEngine::SubgraphSearch(size_t depth, QEdgeId eq, bool positive,
                                     MatchSink& sink) {
  if (Expired()) return;
  stats_.search_states.Inc();
  if (depth == mo_.size()) {
    Report(eq, positive, sink);
    return;
  }
  QVertexId u = mo_[depth];
  VertexId vp =
      tree_.IsRoot(u) ? kArtificialVertex : m_[tree_.Parent(u)];
  assert(tree_.IsRoot(u) || vp != kNullVertex);

  if (m_[u] != kNullVertex) {
    // Already fixed by the seed path (or a non-tree endpoint): verify its
    // tree edge is explicit and its non-tree edges are satisfied.
    if (dcg_.GetState(vp, u, m_[u]) != DcgState::kExplicit) return;
    if (!IsJoinable(u, m_[u], eq, positive)) return;
    SubgraphSearch(depth + 1, eq, positive, sink);
    return;
  }

  const bool iso = options_.semantics == MatchSemantics::kIsomorphism;
  const size_t n = dcg_.OutEdgesOf(vp, u).size();
  for (size_t i = 0; i < n; ++i) {
    const Dcg::OutEdge& out = dcg_.OutEdgesOf(vp, u)[i];
    if (out.state != DcgState::kExplicit) continue;
    VertexId x = out.to;
    if (iso && MappingContains(m_, x)) continue;
    if (!IsJoinable(u, x, eq, positive)) continue;
    m_[u] = x;
    SubgraphSearch(depth + 1, eq, positive, sink);
    m_[u] = kNullVertex;
    if (Expired()) return;
  }
}

bool TurboFluxEngine::IsJoinable(QVertexId u, VertexId v, QEdgeId eq,
                                 bool positive) const {
  for (QEdgeId e : tree_.IncidentNonTreeEdges(u)) {
    const QEdge& qe = q_->edge(e);
    VertexId sv = qe.from == u ? v : m_[qe.from];
    VertexId dv = qe.to == u ? v : m_[qe.to];
    if (sv == kNullVertex || dv == kNullVertex) continue;  // not yet mapped
    if (!G().HasEdge(sv, qe.label, dv)) return false;
    // Total-order duplicate elimination (Algorithm 7, IsJoinable lines
    // 5-11): when another query edge also maps onto the updated data edge,
    // only the maximum-rank seed reports on insertion (minimum on
    // deletion).
    if (eq != kNullQEdge && e != eq && has_updated_edge_ &&
        sv == upd_from_ && qe.label == upd_label_ && dv == upd_to_) {
      if (positive && DedupRank(e) > DedupRank(eq)) return false;
      if (!positive && DedupRank(e) < DedupRank(eq)) return false;
    }
  }
  return true;
}

void TurboFluxEngine::Report(QEdgeId eq, bool positive, MatchSink& sink) {
  if (eq != kNullQEdge && has_updated_edge_) {
    // Full duplicate-elimination check, covering tree edges too: report
    // only from the maximum-rank (insertion) / minimum-rank (deletion)
    // query edge mapped onto the updated data edge.
    for (const QEdge& qe : q_->edges()) {
      if (qe.id == eq) continue;
      if (m_[qe.from] == upd_from_ && qe.label == upd_label_ &&
          m_[qe.to] == upd_to_) {
        if (positive && DedupRank(qe.id) > DedupRank(eq)) return;
        if (!positive && DedupRank(qe.id) < DedupRank(eq)) return;
      }
    }
  }
  (positive ? stats_.matches_positive : stats_.matches_negative).Inc();
  sink.OnMatch(positive, m_);
}

// --- Matching order maintenance ---

void TurboFluxEngine::RecomputeMatchingOrder() {
  mo_ = options_.order_policy == TurboFluxOptions::OrderPolicy::kBfs
            ? tree_.BfsOrder()
            : DetermineMatchingOrder(tree_, dcg_, start_vertices_);
  order_counts_snapshot_.assign(q_->VertexCount(), 0);
  for (QVertexId u = 0; u < q_->VertexCount(); ++u) {
    order_counts_snapshot_[u] = dcg_.ExplicitCountFor(u);
  }
  ops_since_adjust_check_ = 0;
}

void TurboFluxEngine::MaybeAdjustMatchingOrder() {
  if (++ops_since_adjust_check_ < options_.adjust_interval) return;
  ops_since_adjust_check_ = 0;
  for (QVertexId u = 0; u < q_->VertexCount(); ++u) {
    uint64_t then = order_counts_snapshot_[u];
    uint64_t now = dcg_.ExplicitCountFor(u);
    uint64_t lo = std::min(then, now);
    uint64_t hi = std::max(then, now);
    if (hi > 16 &&
        static_cast<double>(hi) >
            options_.adjust_drift * static_cast<double>(std::max<uint64_t>(
                                        lo, 1))) {
      RecomputeMatchingOrder();
      ++order_recomputes_;
      stats_.order_recomputes.Inc();
      return;
    }
  }
}

}  // namespace turboflux
