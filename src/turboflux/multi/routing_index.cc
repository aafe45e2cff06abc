#include "turboflux/multi/routing_index.h"

#include <algorithm>

namespace turboflux {
namespace multi {

RoutingIndex::Key RoutingIndex::KeyFor(const QueryGraph& q, QEdgeId e) {
  const QEdge& qe = q.edge(e);
  return Key{qe.label, q.labels(qe.from).FirstOr(kAnyRoutingLabel),
             q.labels(qe.to).FirstOr(kAnyRoutingLabel)};
}

void RoutingIndex::Add(uint32_t target, const QueryGraph& q) {
  if (target >= routed_.size()) routed_.resize(target + 1);
  routed_[target] = RoutedCount{};
  for (QEdgeId e = 0; e < q.EdgeCount(); ++e) {
    std::vector<uint32_t>& targets = index_[KeyFor(q, e)];
    // A query with several same-key edges registers once per key.
    if (targets.empty() || targets.back() != target) {
      targets.push_back(target);
    }
  }
}

void RoutingIndex::Remove(uint32_t target, const QueryGraph& q) {
  for (QEdgeId e = 0; e < q.EdgeCount(); ++e) {
    auto it = index_.find(KeyFor(q, e));
    if (it == index_.end()) continue;
    std::erase(it->second, target);
    if (it->second.empty()) index_.erase(it);
  }
}

size_t RoutingIndex::Probe(EdgeLabel l, Label s, Label d, bool insert) {
  auto it = index_.find(Key{l, s, d});
  if (it == index_.end()) return 0;
  size_t reached = 0;
  for (uint32_t t : it->second) {
    if (t >= stamp_.size()) stamp_.resize(t + 1, 0);
    if (stamp_[t] == epoch_) continue;
    stamp_[t] = epoch_;
    ++routed_[t].ops;
    routed_[t].inserts += insert ? 1 : 0;
    ++reached;
  }
  return reached;
}

size_t RoutingIndex::Route(EdgeLabel l, const LabelSet& src,
                           const LabelSet& dst, bool insert) {
  if (++epoch_ == 0) {  // epoch wrapped: invalidate all stamps
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  // The probe fan: every concrete/wildcard combination of the endpoints'
  // labels. See the class comment for why this cannot miss a target.
  size_t reached = Probe(l, kAnyRoutingLabel, kAnyRoutingLabel, insert);
  for (Label d : dst.labels()) {
    reached += Probe(l, kAnyRoutingLabel, d, insert);
  }
  for (Label s : src.labels()) {
    reached += Probe(l, s, kAnyRoutingLabel, insert);
    for (Label d : dst.labels()) reached += Probe(l, s, d, insert);
  }
  return reached;
}

void VertexIndex::Reset(size_t num_vertices) {
  slots_.assign(num_vertices, {});
}

void VertexIndex::Add(VertexId v, uint32_t slot) {
  std::vector<uint32_t>& list = slots_[v];
  list.insert(std::lower_bound(list.begin(), list.end(), slot), slot);
}

void VertexIndex::Remove(VertexId v, uint32_t slot) {
  std::vector<uint32_t>& list = slots_[v];
  auto it = std::lower_bound(list.begin(), list.end(), slot);
  if (it != list.end() && *it == slot) list.erase(it);
}

void VertexIndex::Candidates(VertexId v, VertexId v2,
                             const RoutingIndex& route,
                             std::vector<uint32_t>* out) const {
  out->clear();
  const std::vector<uint32_t>& a = slots_[v];
  const std::vector<uint32_t>& b = slots_[v2];
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    uint32_t slot;
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      slot = a[i++];
    } else if (i == a.size() || b[j] < a[i]) {
      slot = b[j++];
    } else {  // in both lists (always so when v == v2)
      slot = a[i++];
      ++j;
    }
    if (route.Routed(slot)) out->push_back(slot);
  }
}

}  // namespace multi
}  // namespace turboflux
