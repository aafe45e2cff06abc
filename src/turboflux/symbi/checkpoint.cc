// SymBi Checkpoint/Restore (DESIGN.md §3.13). Same framing discipline as
// the TurboFlux snapshot (magic + version, then CRC32-framed sections in
// fixed order), different magic and payload: meta (stream position +
// semantics), query graph, DAG vertex order, data graph, D1/D2 bitsets.
//
// The DCS is a pure function of (graph, query, DAG), so Restore recomputes
// it from the restored graph instead of decoding counters — and then
// cross-validates the recomputed flags against the snapshot's bitsets,
// a structural corruption check on top of the per-section CRCs. Enumeration
// order is fully determined by graph adjacency order (preserved verbatim by
// Graph::Serialize) plus the DAG order, so a restored engine reproduces the
// original's subsequent match stream byte-for-byte.

#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "turboflux/common/deadline.h"
#include "turboflux/common/serialize.h"
#include "turboflux/symbi/symbi.h"

namespace turboflux {
namespace symbi {

namespace {

constexpr std::string_view kMagic = "TFXS";
constexpr uint32_t kFormatVersion = 1;

// Section tags (arbitrary distinct constants), in write order.
enum SectionTag : uint32_t {
  kSectionMeta = 0x4154454d,   // "META"
  kSectionQuery = 0x47595251,  // "QRYG"
  kSectionDag = 0x31474144,    // "DAG1"
  kSectionGraph = 0x48505247,  // "GRPH"
  kSectionDcs = 0x31534344,    // "DCS1"
};

}  // namespace

Status SymBiEngine::Checkpoint(std::ostream& out) const {
  if (q_ == nullptr) {
    return Status::FailedPrecondition("Checkpoint before Init");
  }
  if (dead_) {
    return Status::FailedPrecondition(
        "engine is dead; a snapshot would capture partial state");
  }
  Stopwatch watch;
  const std::streampos start_pos = out.tellp();

  const QueryGraph& q = *q_;
  Status st = bin::WriteHeader(out, kMagic, kFormatVersion);
  if (!st.ok()) return st;

  std::string meta;
  bin::PutU64(meta, applied_ops_);
  bin::PutU8(meta,
             options_.semantics == MatchSemantics::kIsomorphism ? 1 : 0);
  st = bin::WriteSection(out, kSectionMeta, meta);
  if (!st.ok()) return st;

  std::string qbuf;
  SerializeQueryGraph(qbuf, q);
  st = bin::WriteSection(out, kSectionQuery, qbuf);
  if (!st.ok()) return st;

  // The DAG is determined by its vertex order; persisting the order (not
  // the root-selection heuristic's inputs) keeps a restored engine on the
  // DAG its stream history was evaluated under even if the heuristic
  // would pick a different root for the current graph.
  std::string dagbuf;
  bin::PutU32(dagbuf, static_cast<uint32_t>(dag_.order().size()));
  for (QVertexId u : dag_.order()) bin::PutU32(dagbuf, u);
  st = bin::WriteSection(out, kSectionDag, dagbuf);
  if (!st.ok()) return st;

  std::string gbuf;
  g_.Serialize(gbuf);
  st = bin::WriteSection(out, kSectionGraph, gbuf);
  if (!st.ok()) return st;

  std::string dbuf;
  dcs_.SerializeFlags(dbuf);
  st = bin::WriteSection(out, kSectionDcs, dbuf);
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

Status SymBiEngine::Restore(std::istream& in) {
  Stopwatch watch;
  const std::streampos start_pos = in.tellg();

  // Any failure past this point may leave partially-overwritten state, so
  // the engine is marked dead — the caller either retries with an intact
  // snapshot or discards the engine.
  auto fail = [this](Status st) {
    dead_ = true;
    return st;
  };

  Status st = bin::ReadHeader(in, kMagic, kFormatVersion);
  if (!st.ok()) return fail(st);

  std::string meta, qbuf, dagbuf, gbuf, dbuf;
  if (!(st = bin::ReadSection(in, kSectionMeta, &meta)).ok() ||
      !(st = bin::ReadSection(in, kSectionQuery, &qbuf)).ok() ||
      !(st = bin::ReadSection(in, kSectionDag, &dagbuf)).ok() ||
      !(st = bin::ReadSection(in, kSectionGraph, &gbuf)).ok() ||
      !(st = bin::ReadSection(in, kSectionDcs, &dbuf)).ok()) {
    return fail(st);
  }

  // Meta: stream position + the semantics the snapshot was taken under.
  bin::Reader mr(meta);
  uint64_t applied = 0;
  uint8_t sem = 0;
  if (!mr.GetU64(&applied) || !mr.GetU8(&sem) || sem > 1 ||
      !mr.exhausted()) {
    return fail(Status::Corruption("malformed meta section"));
  }
  MatchSemantics semantics =
      sem ? MatchSemantics::kIsomorphism : MatchSemantics::kHomomorphism;
  if (semantics != options_.semantics) {
    return fail(Status::FailedPrecondition(
        "snapshot semantics do not match this engine's options"));
  }

  // Query graph, into engine-owned storage so the restored engine does not
  // depend on any caller-provided QueryGraph staying alive.
  bin::Reader qr(qbuf);
  auto q = std::make_unique<QueryGraph>();
  if (!(st = DeserializeQueryGraph(qr, q.get())).ok()) return fail(st);
  const uint32_t nq = static_cast<uint32_t>(q->VertexCount());

  // DAG vertex order, validated structurally by FromOrder.
  bin::Reader dagr(dagbuf);
  uint32_t norder = 0;
  if (!dagr.GetU32(&norder) || norder != nq) {
    return fail(Status::Corruption("bad DAG order length"));
  }
  std::vector<QVertexId> order(norder);
  for (uint32_t i = 0; i < norder; ++i) {
    if (!dagr.GetU32(&order[i])) {
      return fail(Status::Corruption("truncated DAG order"));
    }
  }
  if (!dagr.exhausted()) {
    return fail(Status::Corruption("trailing bytes in DAG section"));
  }
  QueryDag dag;
  if (!QueryDag::FromOrder(*q, order, &dag)) {
    return fail(Status::Corruption(
        "DAG order is not a connected BFS-style permutation"));
  }

  // Data graph (self-validating: mirrors cross-checked, ids bounded).
  Graph g;
  bin::Reader gr(gbuf);
  if (!(st = g.Deserialize(gr)).ok()) return fail(st);
  if (!gr.exhausted()) {
    return fail(Status::Corruption("trailing bytes in graph section"));
  }

  // Commit the engine's identity, then recompute the DCS bound to the
  // now-final members and cross-validate it against the snapshot's flags:
  // a mismatch means graph/query/DAG/DCS sections from different snapshots
  // were spliced together (each section's own CRC would still pass).
  owned_q_ = std::move(q);
  q_ = owned_q_.get();
  g_ = std::move(g);
  dag_ = std::move(dag);
  dcs_.Build(*q_, dag_, g_, &stats_.dcs);
  std::string recomputed;
  dcs_.SerializeFlags(recomputed);
  if (recomputed != dbuf) {
    return fail(Status::Corruption(
        "DCS flag bitsets do not match the restored graph"));
  }

  m_.assign(q_->VertexCount(), kNullVertex);
  mapped_.assign(q_->VertexCount(), false);
  iso_cands_.assign(q_->VertexCount(), {});
  isolated_.clear();
  has_updated_edge_ = false;
  deadline_ = nullptr;

  applied_ops_ = applied;
  // Quarantine reports at or past the snapshot position will be re-issued
  // by replay; drop them so each consumed op is reported exactly once.
  std::erase_if(quarantine_, [this](const QuarantinedOp& e) {
    return e.index >= applied_ops_;
  });
  dead_ = false;

  // Restore is not an op-stream event: engine counters keep accumulating
  // across it (replayed ops are re-counted; DESIGN.md §3.8), only the
  // gauges are re-pointed at the restored structure.
  stats_.intermediate_size.Set(dcs_.D1Count());
  stats_.peak_intermediate.SetMax(dcs_.D1Count());
  NotePeakIntermediate();

  stats_.restores.Inc();
  stats_.restore_seconds.RecordSeconds(watch.ElapsedSeconds());
  if (const std::streampos end_pos = in.tellg();
      start_pos != std::streampos(-1) && end_pos != std::streampos(-1)) {
    stats_.restore_bytes.Inc(static_cast<uint64_t>(end_pos - start_pos));
  }
  return Status::Ok();
}

}  // namespace symbi
}  // namespace turboflux
