// Checkpoint/Restore: crash-consistent binary snapshots of the full engine
// state (DESIGN.md §3.7).
//
// Layout: magic "TFXC", format version (u32), then CRC32-framed sections in
// fixed order — meta (stream position + semantics), query graph, spanning
// tree, data graph, DCG, matching-order state. Anything derivable from
// those (dedup ranks, seed indexes, start vertices, DCG bitmaps/counters)
// is recomputed on restore; anything whose *order* is observable through
// match enumeration (both graph adjacency directions, DCG node lists, the
// matching order itself) is stored verbatim so a restored engine reproduces
// the original's subsequent match stream byte-for-byte.

#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "turboflux/common/deadline.h"
#include "turboflux/common/serialize.h"
#include "turboflux/core/turboflux.h"

namespace turboflux {

namespace {

constexpr std::string_view kMagic = "TFXC";
constexpr uint32_t kFormatVersion = 1;

// Section tags (arbitrary distinct constants), in write order.
enum SectionTag : uint32_t {
  kSectionMeta = 0x4154454d,    // "META"
  kSectionQuery = 0x47595251,   // "QRYG"
  kSectionTree = 0x45455254,    // "TREE"
  kSectionGraph = 0x48505247,   // "GRPH"
  kSectionDcg = 0x31474344,     // "DCG1"
  kSectionEngine = 0x53474e45,  // "ENGS"
};

}  // namespace

Status TurboFluxEngine::Checkpoint(std::ostream& out) const {
  if (q_ == nullptr) {
    return Status::FailedPrecondition("Checkpoint before Init");
  }
  if (dead_) {
    return Status::FailedPrecondition(
        "engine is dead; a snapshot would capture partial state");
  }
  Stopwatch watch;
  const std::streampos start_pos = out.tellp();

  Status st = bin::WriteHeader(out, kMagic, kFormatVersion);
  if (st.ok()) st = WriteStateSections(out, /*include_graph=*/true);
  if (!st.ok()) return st;

  out.flush();
  if (!out) return Status::IoError("checkpoint stream write failed");
  stats_.checkpoints.Inc();
  stats_.checkpoint_seconds.RecordSeconds(watch.ElapsedSeconds());
  if (const std::streampos end_pos = out.tellp();
      start_pos != std::streampos(-1) && end_pos != std::streampos(-1)) {
    stats_.checkpoint_bytes.Inc(static_cast<uint64_t>(end_pos - start_pos));
  }
  return Status::Ok();
}

Status TurboFluxEngine::WriteStateSections(std::ostream& out,
                                           bool include_graph) const {
  if (q_ == nullptr) {
    return Status::FailedPrecondition("WriteStateSections before Init");
  }
  const QueryGraph& q = *q_;

  std::string meta;
  bin::PutU64(meta, applied_ops_);
  bin::PutU8(meta,
             options_.semantics == MatchSemantics::kIsomorphism ? 1 : 0);
  bin::PutU8(
      meta,
      options_.order_policy == TurboFluxOptions::OrderPolicy::kBfs ? 1 : 0);
  Status st = bin::WriteSection(out, kSectionMeta, meta);
  if (!st.ok()) return st;

  std::string qbuf;
  SerializeQueryGraph(qbuf, q);
  st = bin::WriteSection(out, kSectionQuery, qbuf);
  if (!st.ok()) return st;

  std::string tbuf;
  bin::PutU32(tbuf, tree_.root());
  for (QVertexId u = 0; u < q.VertexCount(); ++u) {
    const QueryTree::ParentEdge& pe = tree_.parent_edge(u);
    bin::PutU32(tbuf, pe.parent);
    bin::PutU32(tbuf, pe.label);
    bin::PutU8(tbuf, pe.forward ? 1 : 0);
    bin::PutU32(tbuf, pe.qedge);
  }
  st = bin::WriteSection(out, kSectionTree, tbuf);
  if (!st.ok()) return st;

  // In a QuerySet snapshot the container persists the shared graph once in
  // its own section; each engine's state then omits the graph entirely.
  if (include_graph) {
    std::string gbuf;
    G().Serialize(gbuf);
    st = bin::WriteSection(out, kSectionGraph, gbuf);
    if (!st.ok()) return st;
  }

  std::string dbuf;
  dcg_.Serialize(dbuf);
  st = bin::WriteSection(out, kSectionDcg, dbuf);
  if (!st.ok()) return st;

  std::string ebuf;
  bin::PutU32(ebuf, static_cast<uint32_t>(mo_.size()));
  for (QVertexId u : mo_) bin::PutU32(ebuf, u);
  bin::PutU32(ebuf, static_cast<uint32_t>(order_counts_snapshot_.size()));
  for (uint64_t c : order_counts_snapshot_) bin::PutU64(ebuf, c);
  bin::PutU64(ebuf, ops_since_adjust_check_);
  bin::PutU64(ebuf, order_recomputes_);
  st = bin::WriteSection(out, kSectionEngine, ebuf);
  if (!st.ok()) return st;
  if (!out) return Status::IoError("state section stream write failed");
  return Status::Ok();
}

Status TurboFluxEngine::Restore(std::istream& in) {
  Stopwatch watch;
  const std::streampos start_pos = in.tellg();

  Status st = bin::ReadHeader(in, kMagic, kFormatVersion);
  if (!st.ok()) {
    dead_ = true;
    return st;
  }
  st = ReadStateSections(in, /*shared_graph=*/nullptr);
  if (!st.ok()) return st;  // ReadStateSections left the engine dead

  stats_.restores.Inc();
  stats_.restore_seconds.RecordSeconds(watch.ElapsedSeconds());
  if (const std::streampos end_pos = in.tellg();
      start_pos != std::streampos(-1) && end_pos != std::streampos(-1)) {
    stats_.restore_bytes.Inc(static_cast<uint64_t>(end_pos - start_pos));
  }
  return Status::Ok();
}

Status TurboFluxEngine::ReadStateSections(std::istream& in,
                                          const Graph* shared_graph) {
  // Any failure past this point may leave partially-overwritten state, so
  // the engine is marked dead — the caller either retries with an intact
  // snapshot or discards the engine.
  auto fail = [this](Status st) {
    dead_ = true;
    return st;
  };

  std::string meta, qbuf, tbuf, gbuf, dbuf, ebuf;
  Status st;
  if (!(st = bin::ReadSection(in, kSectionMeta, &meta)).ok() ||
      !(st = bin::ReadSection(in, kSectionQuery, &qbuf)).ok() ||
      !(st = bin::ReadSection(in, kSectionTree, &tbuf)).ok() ||
      (shared_graph == nullptr &&
       !(st = bin::ReadSection(in, kSectionGraph, &gbuf)).ok()) ||
      !(st = bin::ReadSection(in, kSectionDcg, &dbuf)).ok() ||
      !(st = bin::ReadSection(in, kSectionEngine, &ebuf)).ok()) {
    return fail(st);
  }

  // Meta: stream position + the options the snapshot was taken under.
  bin::Reader mr(meta);
  uint64_t applied = 0;
  uint8_t sem = 0, pol = 0;
  if (!mr.GetU64(&applied) || !mr.GetU8(&sem) || !mr.GetU8(&pol) ||
      sem > 1 || pol > 1 || !mr.exhausted()) {
    return fail(Status::Corruption("malformed meta section"));
  }
  MatchSemantics semantics =
      sem ? MatchSemantics::kIsomorphism : MatchSemantics::kHomomorphism;
  TurboFluxOptions::OrderPolicy policy =
      pol ? TurboFluxOptions::OrderPolicy::kBfs
          : TurboFluxOptions::OrderPolicy::kCostBased;
  if (semantics != options_.semantics || policy != options_.order_policy) {
    return fail(Status::FailedPrecondition(
        "snapshot semantics/order policy do not match this engine's "
        "options"));
  }

  // Query graph, into engine-owned storage so the restored engine does not
  // depend on any caller-provided QueryGraph staying alive.
  bin::Reader qr(qbuf);
  auto q = std::make_unique<QueryGraph>();
  if (!(st = DeserializeQueryGraph(qr, q.get())).ok()) return fail(st);
  const uint32_t nq = static_cast<uint32_t>(q->VertexCount());

  // Spanning tree, validated structurally by FromParentEdges.
  bin::Reader tr(tbuf);
  uint32_t root = 0;
  if (!tr.GetU32(&root) || root >= nq) {
    return fail(Status::Corruption("bad tree root"));
  }
  std::vector<QueryTree::ParentEdge> parents(nq);
  for (QVertexId u = 0; u < nq; ++u) {
    uint32_t parent = 0, label = 0, qedge = 0;
    uint8_t fwd = 0;
    if (!tr.GetU32(&parent) || !tr.GetU32(&label) || !tr.GetU8(&fwd) ||
        fwd > 1 || !tr.GetU32(&qedge)) {
      return fail(Status::Corruption("truncated tree parent edge"));
    }
    parents[u] = {parent, label, fwd == 1, qedge};
  }
  if (!tr.exhausted()) {
    return fail(Status::Corruption("trailing bytes in tree section"));
  }
  QueryTree tree;
  if (!QueryTree::FromParentEdges(*q, root, parents, &tree)) {
    return fail(
        Status::Corruption("parent edges do not form a spanning tree"));
  }

  // Data graph: deserialized from the snapshot in standalone mode
  // (self-validating: mirrors cross-checked, ids bounded), or bound to the
  // caller's shared graph, which must already hold the state the snapshot
  // was taken against.
  Graph g;
  if (shared_graph == nullptr) {
    bin::Reader gr(gbuf);
    if (!(st = g.Deserialize(gr)).ok()) return fail(st);
    if (!gr.exhausted()) {
      return fail(Status::Corruption("trailing bytes in graph section"));
    }
  }

  // Commit the engine's identity, then decode the DCG bound to the
  // now-final tree_ member (the Dcg keeps a pointer to it).
  owned_q_ = std::move(q);
  q_ = owned_q_.get();
  g_ = std::move(g);
  shared_g_ = shared_graph;
  tree_ = std::move(tree);
  bin::Reader dr(dbuf);
  if (!(st = dcg_.Deserialize(dr, G().VertexCount(), tree_)).ok()) {
    return fail(st);
  }
  if (!dr.exhausted()) {
    return fail(Status::Corruption("trailing bytes in DCG section"));
  }

  // Matching-order state. The order must be a permutation in which every
  // vertex follows its tree parent, or SubgraphSearch would dereference an
  // unmapped parent.
  bin::Reader er(ebuf);
  uint32_t nmo = 0;
  if (!er.GetU32(&nmo) || nmo != nq) {
    return fail(Status::Corruption("bad matching-order length"));
  }
  std::vector<QVertexId> mo(nmo);
  uint64_t seen = 0;
  std::vector<size_t> pos(nq, 0);
  for (uint32_t i = 0; i < nmo; ++i) {
    if (!er.GetU32(&mo[i]) || mo[i] >= nq || (seen & (uint64_t{1} << mo[i]))) {
      return fail(Status::Corruption("matching order is not a permutation"));
    }
    seen |= uint64_t{1} << mo[i];
    pos[mo[i]] = i;
  }
  for (QVertexId u = 0; u < nq; ++u) {
    if (u != root && pos[tree_.Parent(u)] >= pos[u]) {
      return fail(Status::Corruption(
          "matching order places a vertex before its tree parent"));
    }
  }
  uint32_t ncnt = 0;
  if (!er.GetU32(&ncnt) || ncnt != nq) {
    return fail(Status::Corruption("bad order-counts length"));
  }
  std::vector<uint64_t> counts(ncnt);
  for (uint32_t i = 0; i < ncnt; ++i) {
    if (!er.GetU64(&counts[i])) {
      return fail(Status::Corruption("truncated order counts"));
    }
  }
  uint64_t since_check = 0, recomputes = 0;
  if (!er.GetU64(&since_check) || !er.GetU64(&recomputes) ||
      !er.exhausted()) {
    return fail(Status::Corruption("malformed engine-state section"));
  }

  mo_ = std::move(mo);
  order_counts_snapshot_ = std::move(counts);
  ops_since_adjust_check_ = static_cast<size_t>(since_check);
  order_recomputes_ = static_cast<size_t>(recomputes);

  RebuildDerivedIndexes();

  applied_ops_ = applied;
  // Quarantine reports at or past the snapshot position will be re-issued
  // by replay; drop them so each consumed op is reported exactly once.
  std::erase_if(quarantine_, [this](const QuarantinedOp& e) {
    return e.index >= applied_ops_;
  });

  has_updated_edge_ = false;
  deadline_ = nullptr;
  dead_ = false;

  // Restore is not an op-stream event: engine counters keep accumulating
  // across it (replayed ops are re-counted; DESIGN.md §3.8), only the
  // gauges are re-pointed at the restored structure.
  stats_.intermediate_size.Set(dcg_.EdgeCount());
  stats_.peak_intermediate.SetMax(dcg_.EdgeCount());
  NotePeakIntermediate();
  return Status::Ok();
}

}  // namespace turboflux
