// QuerySet::Checkpoint/Restore — whole-set crash-consistent snapshots
// (DESIGN.md §3.10), reusing the PR 2 CRC32-framed section format.
//
// Layout: magic "TFXQ", format version (u32), then framed sections —
//   QMET  set meta: applied ops, op/registration counters, next query id
//   GRPH  the shared data graph, serialized ONCE for the whole set
//   QREG  the registry: per live query (id, dense runtime index, costs)
// followed by each live runtime's engine state via
// TurboFluxEngine::WriteStateSections(include_graph=false), in dense
// (ascending slot) order. Runtime signatures, the routing index and the
// vertex index are derivable and recomputed on restore; per-engine
// section framing and validation is the engine's own.

#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "turboflux/common/serialize.h"
#include "turboflux/multi/query_set.h"

namespace turboflux {
namespace multi {

namespace {

constexpr std::string_view kMagic = "TFXQ";
constexpr uint32_t kFormatVersion = 1;

enum SectionTag : uint32_t {
  kSectionSetMeta = 0x54454d51,   // "QMET"
  kSectionGraph = 0x48505247,     // "GRPH" (same tag as the engine's)
  kSectionRegistry = 0x47455251,  // "QREG"
};

constexpr uint64_t kMaxElems = uint64_t{1} << 32;

}  // namespace

Status QuerySet::Checkpoint(std::ostream& out) const {
  MutexLock lock(mu_);
  if (!bound_) {
    return Status::FailedPrecondition("Checkpoint before Bind/Restore");
  }
  if (dead_) {
    return Status::FailedPrecondition(
        "query set is dead; a snapshot would capture partial state");
  }

  Status st = bin::WriteHeader(out, kMagic, kFormatVersion);
  if (!st.ok()) return st;
  // The snapshot holds every runtime as if it had evaluated every op
  // routed to it, the vertex index's skips included.
  CatchUpAll();

  // Dense runtime numbering: slot order with holes squeezed out.
  std::vector<uint32_t> dense_slots;
  for (uint32_t slot = 0; slot < runtimes_.size(); ++slot) {
    if (runtimes_[slot]) dense_slots.push_back(slot);
  }
  std::vector<uint32_t> slot_to_dense(runtimes_.size(), 0);
  for (uint32_t i = 0; i < dense_slots.size(); ++i) {
    slot_to_dense[dense_slots[i]] = i;
  }

  std::string meta;
  bin::PutU64(meta, applied_ops_);
  bin::PutU64(meta, ops_evaluated_);
  bin::PutU64(meta, ops_noop_);
  bin::PutU64(meta, ops_quarantined_);
  bin::PutU64(meta, routed_evals_);
  bin::PutU64(meta, registrations_);
  bin::PutU64(meta, registrations_shared_);
  bin::PutU64(meta, deregistrations_);
  bin::PutU32(meta, static_cast<uint32_t>(records_.size()));  // next id
  bin::PutU32(meta, static_cast<uint32_t>(dense_slots.size()));
  st = bin::WriteSection(out, kSectionSetMeta, meta);
  if (!st.ok()) return st;

  std::string gbuf;
  g_.Serialize(gbuf);
  st = bin::WriteSection(out, kSectionGraph, gbuf);
  if (!st.ok()) return st;

  std::string reg;
  uint32_t live = 0;
  for (const QueryRecord& r : records_) live += r.live ? 1 : 0;
  bin::PutU32(reg, live);
  for (uint32_t id = 0; id < records_.size(); ++id) {
    const QueryRecord& r = records_[id];
    if (!r.live) continue;
    bin::PutU32(reg, id);
    bin::PutU32(reg, slot_to_dense[r.slot]);
    bin::PutU64(reg, RoutedOps(id));
    bin::PutU64(reg, r.costs.matches_positive);
    bin::PutU64(reg, r.costs.matches_negative);
  }
  st = bin::WriteSection(out, kSectionRegistry, reg);
  if (!st.ok()) return st;

  for (uint32_t slot : dense_slots) {
    st = runtimes_[slot]->engine->WriteStateSections(out,
                                                     /*include_graph=*/false);
    if (!st.ok()) return st;
  }

  out.flush();
  if (!out) return Status::IoError("query-set checkpoint write failed");
  ++checkpoints_;
  return Status::Ok();
}

Status QuerySet::Restore(std::istream& in) {
  MutexLock lock(mu_);
  // Any failure past the header may leave partially-overwritten state;
  // the set is then dead until a successful Restore.
  auto fail = [this](Status st) {
    dead_ = true;
    return st;
  };

  Status st = bin::ReadHeader(in, kMagic, kFormatVersion);
  if (!st.ok()) return fail(st);

  std::string meta, gbuf, reg;
  if (!(st = bin::ReadSection(in, kSectionSetMeta, &meta)).ok() ||
      !(st = bin::ReadSection(in, kSectionGraph, &gbuf)).ok() ||
      !(st = bin::ReadSection(in, kSectionRegistry, &reg)).ok()) {
    return fail(st);
  }

  bin::Reader mr(meta);
  uint64_t applied = 0, evaluated = 0, noop = 0, quarantined = 0;
  uint64_t routed = 0, regs = 0, regs_shared = 0, deregs = 0;
  uint32_t next_id = 0, num_runtimes = 0;
  if (!mr.GetU64(&applied) || !mr.GetU64(&evaluated) || !mr.GetU64(&noop) ||
      !mr.GetU64(&quarantined) || !mr.GetU64(&routed) ||
      !mr.GetU64(&regs) || !mr.GetU64(&regs_shared) || !mr.GetU64(&deregs) ||
      !mr.GetU32(&next_id) || !mr.GetU32(&num_runtimes) || !mr.exhausted() ||
      num_runtimes > next_id) {
    return fail(Status::Corruption("malformed query-set meta section"));
  }

  Graph g;
  bin::Reader gr(gbuf);
  if (!(st = g.Deserialize(gr)).ok()) return fail(st);
  if (!gr.exhausted()) {
    return fail(Status::Corruption("trailing bytes in graph section"));
  }

  // Registry: (id, dense runtime index, costs) per live query; ids
  // strictly ascending and runtime indexes within range.
  bin::Reader rr(reg);
  uint32_t live = 0;
  if (!rr.GetLength(&live, kMaxElems) || live > next_id) {
    return fail(Status::Corruption("bad registry entry count"));
  }
  struct RegistryEntry {
    uint32_t id;
    uint32_t dense;
    QueryCosts costs;
  };
  std::vector<RegistryEntry> entries(live);
  uint32_t prev_id = 0;
  for (uint32_t i = 0; i < live; ++i) {
    RegistryEntry& e = entries[i];
    if (!rr.GetU32(&e.id) || !rr.GetU32(&e.dense) ||
        !rr.GetU64(&e.costs.routed_ops) ||
        !rr.GetU64(&e.costs.matches_positive) ||
        !rr.GetU64(&e.costs.matches_negative)) {
      return fail(Status::Corruption("truncated registry entry"));
    }
    if (e.id >= next_id || e.dense >= num_runtimes ||
        (i > 0 && e.id <= prev_id)) {
      return fail(Status::Corruption("registry ids/runtimes inconsistent"));
    }
    prev_id = e.id;
  }
  if (!rr.exhausted()) {
    return fail(Status::Corruption("trailing bytes in registry section"));
  }

  // Commit the shared graph first — every restored engine binds to &g_,
  // whose address is stable (member storage).
  ResetStateLocked();
  g_ = std::move(g);
  vertex_index_.Reset(g_.VertexCount());
  bound_ = true;

  // Restore the runtimes in dense order. Slots come out dense (no holes)
  // regardless of the pre-checkpoint slot layout.
  std::vector<uint32_t> member_count(num_runtimes, 0);
  for (const RegistryEntry& e : entries) ++member_count[e.dense];
  for (uint32_t dense = 0; dense < num_runtimes; ++dense) {
    if (member_count[dense] == 0) {
      return fail(
          Status::Corruption("snapshot contains a memberless runtime"));
    }
    auto rt = std::make_unique<Runtime>();
    rt->engine = std::make_unique<TurboFluxEngine>(options_.engine);
    if (!(st = rt->engine->ReadStateSections(in, &g_)).ok()) {
      return fail(st);
    }
    // The engine now owns its restored query; re-derive the bookkeeping
    // the snapshot elides (the signature, the routing keys and the
    // runtime's vertex-index entries).
    rt->query = std::make_unique<QueryGraph>(rt->engine->query());
    rt->signature = QuerySignature(*rt->query);
    uint32_t slot = AllocSlot();
    if (slot != dense) {
      return fail(Status::Corruption("non-dense runtime restore"));
    }
    runtimes_[slot] = std::move(rt);
    IndexRuntime(slot);
  }

  records_.assign(next_id, QueryRecord{});
  for (const RegistryEntry& e : entries) {
    records_[e.id] = QueryRecord{e.dense, true, e.costs};
    runtimes_[e.dense]->members.push_back(e.id);
  }

  applied_ops_ = applied;
  ops_evaluated_ = evaluated;
  ops_noop_ = noop;
  ops_quarantined_ = quarantined;
  routed_evals_ = routed;
  registrations_ = regs;
  registrations_shared_ = regs_shared;
  deregistrations_ = deregs;
  dead_ = false;
  ++restores_;
  return Status::Ok();
}

}  // namespace multi
}  // namespace turboflux
