#include "turboflux/symbi/symbi.h"

#include <cassert>
#include <limits>

#include "turboflux/match/static_matcher.h"

namespace turboflux {
namespace symbi {

SymBiEngine::SymBiEngine(SymBiOptions options) : options_(options) {}

std::string SymBiEngine::name() const {
  return options_.semantics == MatchSemantics::kIsomorphism ? "SymBi-iso"
                                                            : "SymBi";
}

bool SymBiEngine::Init(const QueryGraph& q, const Graph& g0, MatchSink& sink,
                       Deadline deadline) {
  assert(q.VertexCount() > 0 && q.EdgeCount() > 0 && q.IsConnected());
  q_ = &q;
  owned_q_.reset();
  g_ = g0;
  stats_.Reset();

  // Root: minimize |initial candidates| / degree (the paper's C_ini rule),
  // ties to the smallest id; compared by cross-multiplication to stay in
  // integers. Checkpointed via the DAG order, so a restored engine keeps
  // the root its stream history was evaluated under.
  QVertexId root = 0;
  uint64_t best_num = 0, best_den = 1;
  for (QVertexId u = 0; u < q.VertexCount(); ++u) {
    uint64_t c = 0;
    for (VertexId v = 0; v < g_.VertexCount(); ++v) {
      if (q.VertexMatches(u, g_, v)) ++c;
    }
    const uint64_t deg = q.Degree(u);
    assert(deg > 0);  // connected with >= 1 edge
    if (u == 0 || c * best_den < best_num * deg) {
      best_num = c;
      best_den = deg;
      root = u;
    }
  }
  dag_ = QueryDag::Build(q, root);
  dcs_.Build(q, dag_, g_, &stats_.dcs);

  m_.assign(q.VertexCount(), kNullVertex);
  mapped_.assign(q.VertexCount(), false);
  iso_cands_.assign(q.VertexCount(), {});
  isolated_.clear();
  has_updated_edge_ = false;
  applied_ops_ = 0;
  quarantine_.clear();
  dead_ = false;

  if (!EnumerateCurrentMatches(sink, deadline)) {
    dead_ = true;
    return false;
  }
  NoteOpGauges();
  return true;
}

void SymBiEngine::NoteOpGauges() {
  stats_.intermediate_size.Set(dcs_.D1Count());
  stats_.peak_intermediate.SetMax(dcs_.D1Count());
  NotePeakIntermediate();
}

bool SymBiEngine::ApplyUpdate(const UpdateOp& op, MatchSink& sink,
                              Deadline deadline) {
  assert(q_ != nullptr && !dead_);
  // Crash simulation, as in TurboFlux: evaluate the marked op against an
  // already-expired deadline so it is abandoned at a genuine
  // partial-progress point; the caller's deadline stays untouched.
  Deadline poison = Deadline::AfterMillis(0);
  const bool injected = injector_ != nullptr && injector_->ShouldFailOp();
  deadline_ = injected ? &poison : &deadline;

  if (op.IsInsert()) {
    stats_.ops_insert.Inc();
    // Graph first, then the DCS (its insert protocol walks the new edge),
    // then positive matches from the updated candidate space.
    if (g_.AddEdge(op.from, op.label, op.to)) {
      stats_.insert_evals.Inc();
      dcs_.ApplyInsert(g_, op.from, op.label, op.to);
      EvalUpdate(op.from, op.label, op.to, /*positive=*/true, sink);
    }
  } else {
    stats_.ops_delete.Inc();
    // Negative matches need the edge present in both the graph and the
    // DCS; evaluate first, then remove and downgrade.
    if (g_.HasEdge(op.from, op.label, op.to)) {
      stats_.delete_evals.Inc();
      EvalUpdate(op.from, op.label, op.to, /*positive=*/false, sink);
      g_.RemoveEdge(op.from, op.label, op.to);
      dcs_.ApplyDelete(g_, op.from, op.label, op.to);
    }
  }

  deadline_ = nullptr;
  if (deadline.ExpiredNow() || injected) {
    dead_ = true;
    return false;
  }
  ++applied_ops_;
  NoteOpGauges();
  return true;
}

void SymBiEngine::EvalUpdate(VertexId v, EdgeLabel l, VertexId v2,
                             bool positive, MatchSink& sink) {
  has_updated_edge_ = true;
  upd_from_ = v;
  upd_label_ = l;
  upd_to_ = v2;
  const bool iso = options_.semantics == MatchSemantics::kIsomorphism;
  for (const QEdge& qe : q_->edges()) {
    if (qe.label != l) continue;
    if (qe.from == qe.to && v != v2) continue;
    if (iso && qe.from != qe.to && v == v2) continue;
    // The D2 restriction: a data vertex outside the bottom-up candidate
    // space cannot appear in any match, so the whole seed is pruned before
    // a single backtracking state is explored. (D2 implies the label
    // subset test, so no separate EdgeMatches probe is needed.)
    if (!dcs_.D2(qe.from, v) || !dcs_.D2(qe.to, v2)) continue;
    m_[qe.from] = v;
    m_[qe.to] = v2;
    mapped_[qe.from] = mapped_[qe.to] = true;
    // Every other query edge already fixed by the seed mapping (reverse,
    // parallel, and self-loop edges between the endpoints) must hold.
    if (MappedEdgesSatisfied(*q_, g_, m_, qe.id)) {
      stats_.search_seeds.Inc();
      Extend(qe.from == qe.to ? 1 : 2, qe.id, positive, sink);
    }
    m_[qe.from] = m_[qe.to] = kNullVertex;
    mapped_[qe.from] = mapped_[qe.to] = false;
    if (deadline_->Expired()) break;
  }
  has_updated_edge_ = false;
}

bool SymBiEngine::SelfLoopsOk(QVertexId u, VertexId v) const {
  for (QEdgeId e : dag_.self_loops(u)) {
    if (!g_.HasEdge(v, q_->edge(e).label, v)) return false;
  }
  return true;
}

bool SymBiEngine::IsIsolated(QVertexId u) const {
  for (QEdgeId e : q_->OutEdgeIds(u)) {
    const QEdge& qe = q_->edge(e);
    if (qe.to != u && !mapped_[qe.to]) return false;
  }
  for (QEdgeId e : q_->InEdgeIds(u)) {
    const QEdge& qe = q_->edge(e);
    if (qe.from != u && !mapped_[qe.from]) return false;
  }
  return true;
}

void SymBiEngine::Extend(size_t matched_count, QEdgeId eq, bool positive,
                         MatchSink& sink) {
  if (deadline_->Expired()) return;
  stats_.search_states.Inc();
  if (matched_count == q_->VertexCount()) {
    Report(eq, positive, sink);
    return;
  }

  // Pick the next vertex among unmapped vertices that still have an
  // unmapped neighbour (non-isolated), anchored at the mapped neighbour
  // with the smallest adjacency. Isolated vertices — every query
  // neighbour mapped, candidate set fully determined — are deferred: once
  // only they remain, each list is produced once and combined as a
  // product instead of re-derived per backtracking state.
  QVertexId best_u = kNullQVertex;
  QEdgeId best_e = kNullQEdge;
  size_t best_size = std::numeric_limits<size_t>::max();
  bool best_out = true;
  VertexId best_base = kNullVertex;
  EdgeLabel best_label = 0;
  for (QVertexId u = 0; u < q_->VertexCount(); ++u) {
    if (mapped_[u] || IsIsolated(u)) continue;
    for (QEdgeId e : q_->InEdgeIds(u)) {
      const QEdge& qe = q_->edge(e);
      if (qe.from == u || !mapped_[qe.from]) continue;
      const size_t size = g_.OutDegree(m_[qe.from]);
      if (size < best_size) {
        best_size = size;
        best_u = u;
        best_e = e;
        best_out = true;
        best_base = m_[qe.from];
        best_label = qe.label;
      }
    }
    for (QEdgeId e : q_->OutEdgeIds(u)) {
      const QEdge& qe = q_->edge(e);
      if (qe.to == u || !mapped_[qe.to]) continue;
      const size_t size = g_.InDegree(m_[qe.to]);
      if (size < best_size) {
        best_size = size;
        best_u = u;
        best_e = e;
        best_out = false;
        best_base = m_[qe.to];
        best_label = qe.label;
      }
    }
  }

  const bool iso = options_.semantics == MatchSemantics::kIsomorphism;
  if (best_u == kNullQVertex) {
    // Every remaining vertex is isolated (the connected query guarantees
    // each has a mapped neighbour to anchor at).
    isolated_.clear();
    for (QVertexId u = 0; u < q_->VertexCount(); ++u) {
      if (!mapped_[u]) isolated_.push_back(u);
    }
    assert(!isolated_.empty());
    stats_.dcs.isolated_groups.Inc();
    for (size_t i = 0; i < isolated_.size(); ++i) {
      const QVertexId u = isolated_[i];
      // Anchor: the incident edge whose mapped endpoint has the smallest
      // adjacency span.
      QEdgeId anchor = kNullQEdge;
      size_t anchor_size = std::numeric_limits<size_t>::max();
      bool anchor_out = true;
      for (QEdgeId e : q_->InEdgeIds(u)) {
        const QEdge& qe = q_->edge(e);
        if (qe.from == u) continue;
        const size_t size = g_.OutDegree(m_[qe.from]);
        if (size < anchor_size) {
          anchor_size = size;
          anchor = e;
          anchor_out = true;
        }
      }
      for (QEdgeId e : q_->OutEdgeIds(u)) {
        const QEdge& qe = q_->edge(e);
        if (qe.to == u) continue;
        const size_t size = g_.InDegree(m_[qe.to]);
        if (size < anchor_size) {
          anchor_size = size;
          anchor = e;
          anchor_out = false;
        }
      }
      assert(anchor != kNullQEdge);
      const QEdge& ae = q_->edge(anchor);
      const VertexId base = anchor_out ? m_[ae.from] : m_[ae.to];
      std::vector<VertexId>& cands = iso_cands_[i];
      cands.clear();
      for (const AdjEntry& a :
           anchor_out ? g_.OutEdges(base) : g_.InEdges(base)) {
        if (a.label != ae.label) continue;
        const VertexId x = a.other;
        if (!dcs_.D2(u, x)) continue;
        bool ok = SelfLoopsOk(u, x);
        for (QEdgeId e : q_->InEdgeIds(u)) {
          if (!ok) break;
          const QEdge& qe = q_->edge(e);
          if (e == anchor || qe.from == u) continue;
          ok = g_.HasEdge(m_[qe.from], qe.label, x);
        }
        for (QEdgeId e : q_->OutEdgeIds(u)) {
          if (!ok) break;
          const QEdge& qe = q_->edge(e);
          if (e == anchor || qe.to == u) continue;
          ok = g_.HasEdge(x, qe.label, m_[qe.to]);
        }
        if (ok) cands.push_back(x);
      }
    }
    EnumerateIsolated(0, eq, positive, sink);
    return;
  }

  for (const AdjEntry& a :
       best_out ? g_.OutEdges(best_base) : g_.InEdges(best_base)) {
    if (a.label != best_label) continue;
    const VertexId x = a.other;
    if (!dcs_.D2(best_u, x)) continue;
    if (iso && MappingContains(m_, x)) continue;
    bool ok = SelfLoopsOk(best_u, x);
    for (QEdgeId e : q_->InEdgeIds(best_u)) {
      if (!ok) break;
      const QEdge& qe = q_->edge(e);
      if (e == best_e || qe.from == best_u || !mapped_[qe.from]) continue;
      ok = g_.HasEdge(m_[qe.from], qe.label, x);
    }
    for (QEdgeId e : q_->OutEdgeIds(best_u)) {
      if (!ok) break;
      const QEdge& qe = q_->edge(e);
      if (e == best_e || qe.to == best_u || !mapped_[qe.to]) continue;
      ok = g_.HasEdge(x, qe.label, m_[qe.to]);
    }
    if (!ok) continue;
    m_[best_u] = x;
    mapped_[best_u] = true;
    Extend(matched_count + 1, eq, positive, sink);
    m_[best_u] = kNullVertex;
    mapped_[best_u] = false;
    if (deadline_->Expired()) return;
  }
}

void SymBiEngine::EnumerateIsolated(size_t idx, QEdgeId eq, bool positive,
                                    MatchSink& sink) {
  if (deadline_->Expired()) return;
  stats_.search_states.Inc();
  if (idx == isolated_.size()) {
    Report(eq, positive, sink);
    return;
  }
  const bool iso = options_.semantics == MatchSemantics::kIsomorphism;
  const QVertexId u = isolated_[idx];
  for (VertexId x : iso_cands_[idx]) {
    if (iso && MappingContains(m_, x)) continue;
    m_[u] = x;
    mapped_[u] = true;
    EnumerateIsolated(idx + 1, eq, positive, sink);
    m_[u] = kNullVertex;
    mapped_[u] = false;
    if (deadline_->Expired()) return;
  }
}

void SymBiEngine::Report(QEdgeId eq, bool positive, MatchSink& sink) {
  // Total-order duplicate elimination: among all query edges this solution
  // maps onto the updated data edge, only the maximum (insertion) /
  // minimum (deletion) one reports.
  if (has_updated_edge_) {
    for (const QEdge& qe : q_->edges()) {
      if (qe.id == eq) continue;
      if (m_[qe.from] == upd_from_ && qe.label == upd_label_ &&
          m_[qe.to] == upd_to_) {
        if (positive && qe.id > eq) return;
        if (!positive && qe.id < eq) return;
      }
    }
  }
  (positive ? stats_.matches_positive : stats_.matches_negative).Inc();
  sink.OnMatch(positive, m_);
}

bool SymBiEngine::EnumerateCurrentMatches(MatchSink& sink,
                                          Deadline deadline) {
  assert(q_ != nullptr);
  deadline_ = &deadline;
  has_updated_edge_ = false;
  std::fill(m_.begin(), m_.end(), kNullVertex);
  std::fill(mapped_.begin(), mapped_.end(), false);
  // Start at the query vertex with the fewest D2 candidates (ties: the
  // smallest id) — deterministic, so a restored engine enumerates in the
  // original's order.
  QVertexId u0 = 0;
  size_t best = std::numeric_limits<size_t>::max();
  for (QVertexId u = 0; u < q_->VertexCount(); ++u) {
    size_t count = 0;
    for (VertexId v = 0; v < g_.VertexCount(); ++v) {
      if (dcs_.D2(u, v)) ++count;
    }
    if (count < best) {
      best = count;
      u0 = u;
    }
  }
  for (VertexId v = 0; v < g_.VertexCount(); ++v) {
    if (!dcs_.D2(u0, v) || !SelfLoopsOk(u0, v)) continue;
    m_[u0] = v;
    mapped_[u0] = true;
    stats_.search_seeds.Inc();
    Extend(1, kNullQEdge, /*positive=*/true, sink);
    m_[u0] = kNullVertex;
    mapped_[u0] = false;
    if (deadline_->Expired()) break;
  }
  deadline_ = nullptr;
  return !deadline.ExpiredNow();
}

Dcs SymBiEngine::RebuildDcsFromScratch() const {
  Dcs fresh;
  fresh.Build(*q_, dag_, g_, nullptr);
  return fresh;
}

Status SymBiEngine::TryApplyUpdate(const UpdateOp& op, MatchSink& sink,
                                   Deadline deadline) {
  assert(q_ != nullptr);
  if (dead_) {
    return Status::FailedPrecondition("engine is dead; Restore() it first");
  }
  Status v = ValidateOp(g_, op);
  if (v.code() == StatusCode::kOutOfRange) {
    quarantine_.push_back({applied_ops_, op, v});
    ++applied_ops_;
    return v;
  }
  // kNotFound / kFailedPrecondition are legal no-ops; ApplyUpdate handles
  // them without state damage and the informational status passes through.
  if (!ApplyUpdate(op, sink, deadline)) {
    return Status::DeadlineExceeded("update " + op.ToString() +
                                    " abandoned mid-evaluation");
  }
  return v;
}

}  // namespace symbi
}  // namespace turboflux
