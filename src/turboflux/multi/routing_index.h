#ifndef TURBOFLUX_MULTI_ROUTING_INDEX_H_
#define TURBOFLUX_MULTI_ROUTING_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "turboflux/common/label_set.h"
#include "turboflux/common/types.h"
#include "turboflux/query/query_graph.h"

namespace turboflux {
namespace multi {

/// Wildcard sentinel in routing keys: the endpoint's label set is empty
/// (unconstrained), so the key matches updates touching any vertex.
inline constexpr Label kAnyRoutingLabel = 0xFFFFFFFFu;

/// The (edge-label, src-label, dst-label) -> targets inverted index that
/// makes multi-query serving sublinear in query count (DESIGN.md §3.10):
/// an update only reaches the runtimes whose query edges can possibly
/// match it; everything else is provably a no-op and is never consulted.
///
/// Key derivation: every query edge e contributes one key
/// (e.label, s*, d*) where s* is the *first* label of L(e.from) — or the
/// wildcard sentinel when the set is empty — and d* likewise for e.to.
/// Soundness: a query is affected by update (v, l, v2) only if it has an
/// edge e with e.label == l, L(e.from) ⊆ L(v) and L(e.to) ⊆ L(v2)
/// (Transition 0 / non-tree seed preconditions). When L(e.from) ⊆ L(v)
/// and is non-empty, its first label is one of v's labels; so probing
/// every (l, s, d) with s ∈ L(v) ∪ {any} and d ∈ L(v2) ∪ {any} — a
/// (|L(v)|+1)·(|L(v2)|+1) probe fan, typically 4 — can never miss an
/// affected query. It may over-approximate (the subset test is not fully
/// encoded in one label), which only costs a wasted no-op evaluation.
///
/// Targets are small dense integers (runtime slots). Route() deduplicates
/// across keys with an epoch-stamped scratch vector, so the hot path
/// allocates nothing once warmed up. The same stamp pass counts, per
/// target, the ops routed to it: the QuerySet applies those counts
/// lazily to runtimes it did not evaluate (DESIGN.md §3.10).
class RoutingIndex {
 public:
  /// Ops (and insertions among them) routed to a target since its last
  /// Add.
  struct RoutedCount {
    uint64_t ops = 0;
    uint64_t inserts = 0;
  };

  /// Registers `target` under one key per edge of `q` and zeroes its
  /// routed count (a reused slot starts over).
  void Add(uint32_t target, const QueryGraph& q);

  /// Removes `target` from every key `q` hashed it under. The same `q`
  /// that was passed to Add must be used (keys are recomputed from it).
  void Remove(uint32_t target, const QueryGraph& q);

  /// Marks every target with at least one key compatible with an update
  /// of label `l` between endpoints labeled `src` / `dst` as routed for
  /// this op (Routed), adds the op to its RoutedCount, and returns how
  /// many targets that is.
  size_t Route(EdgeLabel l, const LabelSet& src, const LabelSet& dst,
               bool insert);

  /// True iff the last Route reached `target`.
  bool Routed(uint32_t target) const {
    return target < stamp_.size() && stamp_[target] == epoch_;
  }

  RoutedCount routed_count(uint32_t target) const {
    return target < routed_.size() ? routed_[target] : RoutedCount{};
  }

  size_t KeyCount() const { return index_.size(); }

 private:
  // (edge label, src label, dst label) packed for hashing.
  struct Key {
    EdgeLabel l;
    Label s;
    Label d;
    friend bool operator==(const Key& a, const Key& b) {
      return a.l == b.l && a.s == b.s && a.d == b.d;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = (uint64_t{k.l} << 32) ^ (uint64_t{k.s} << 16) ^ k.d;
      h *= 0x9e3779b97f4a7c15ull;  // Fibonacci mix
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };

  static Key KeyFor(const QueryGraph& q, QEdgeId e);

  size_t Probe(EdgeLabel l, Label s, Label d, bool insert);

  std::unordered_map<Key, std::vector<uint32_t>, KeyHash> index_;

  // Per-target dedup stamps for Route: stamp_[t] == epoch_ means the
  // current op already reached target t.
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  std::vector<RoutedCount> routed_;  // indexed by target
};

/// The second routing stage (DESIGN.md §3.10): data vertex -> the slots
/// of the runtimes in which that vertex is active (ActiveVertexListener).
/// An update (v, l, v2) can act in a runtime only if v or v2 is active
/// there, so the QuerySet evaluates the label route ∩ (Slots(v) ∪
/// Slots(v2)). Holds one entry per active (vertex, runtime) pair; each
/// vertex's list is ascending.
class VertexIndex {
 public:
  /// Empties the index over a universe of `num_vertices` data vertices.
  void Reset(size_t num_vertices);

  void Add(VertexId v, uint32_t slot);
  void Remove(VertexId v, uint32_t slot);

  const std::vector<uint32_t>& Slots(VertexId v) const { return slots_[v]; }
  size_t VertexCount() const { return slots_.size(); }

  /// Sets `out` to the slots in Slots(v) ∪ Slots(v2) that the last
  /// route.Route reached, ascending.
  void Candidates(VertexId v, VertexId v2, const RoutingIndex& route,
                  std::vector<uint32_t>* out) const;

 private:
  std::vector<std::vector<uint32_t>> slots_;
};

}  // namespace multi
}  // namespace turboflux

#endif  // TURBOFLUX_MULTI_ROUTING_INDEX_H_
