#include "turboflux/multi/query_set.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>
#include <utility>

#include "turboflux/common/serialize.h"

namespace turboflux {
namespace multi {

namespace {

/// Tags a single query's match stream with its id.
class TagSink : public MatchSink {
 public:
  TagSink(QueryId id, QuerySet::Sink& sink) : id_(id), sink_(sink) {}

  void OnMatch(bool positive, const Mapping& m) override {
    sink_.OnMatch(id_, positive, m);
  }

 private:
  QueryId id_;
  QuerySet::Sink& sink_;
};

QuerySetOptions Sanitize(QuerySetOptions options) {
  if (options.threads == 0) options.threads = 1;
  return options;
}

}  // namespace

/// Buffers one runtime's matches for an op so the op's runtimes can be
/// evaluated concurrently and flushed deterministically afterwards.
/// Matches are stored flattened, and the buffers are reused across ops,
/// so a warm buffer does not allocate.
class QuerySet::RuntimeMatchBuffer : public MatchSink {
 public:
  void OnMatch(bool positive, const Mapping& m) override {
    positive ? ++positive_ : ++negative_;
    signs_.push_back(positive ? 1 : 0);
    sizes_.push_back(static_cast<uint32_t>(m.size()));
    flat_.insert(flat_.end(), m.begin(), m.end());
  }

  void Clear() {
    positive_ = negative_ = 0;
    signs_.clear();
    sizes_.clear();
    flat_.clear();
  }

  uint64_t positive() const { return positive_; }
  uint64_t negative() const { return negative_; }

  void FlushTo(QuerySet::Sink& sink, QueryId id, Mapping& scratch) const {
    size_t pos = 0;
    for (size_t i = 0; i < signs_.size(); ++i) {
      scratch.assign(flat_.begin() + static_cast<ptrdiff_t>(pos),
                     flat_.begin() + static_cast<ptrdiff_t>(pos + sizes_[i]));
      pos += sizes_[i];
      sink.OnMatch(id, signs_[i] != 0, scratch);
    }
  }

 private:
  uint64_t positive_ = 0;
  uint64_t negative_ = 0;
  std::vector<char> signs_;
  std::vector<uint32_t> sizes_;
  std::vector<VertexId> flat_;
};

std::string QuerySignature(const QueryGraph& q) {
  std::string s;
  bin::PutU32(s, static_cast<uint32_t>(q.VertexCount()));
  for (QVertexId u = 0; u < q.VertexCount(); ++u) {
    const std::vector<Label>& ls = q.labels(u).labels();
    bin::PutU32(s, static_cast<uint32_t>(ls.size()));
    for (Label l : ls) bin::PutU32(s, l);
  }
  bin::PutU32(s, static_cast<uint32_t>(q.EdgeCount()));
  for (const QEdge& e : q.edges()) {
    bin::PutU32(s, e.from);
    bin::PutU32(s, e.label);
    bin::PutU32(s, e.to);
  }
  return s;
}

QuerySet::QuerySet(QuerySetOptions options) : options_(Sanitize(options)) {}

QuerySet::~QuerySet() = default;

void QuerySet::ResetStateLocked() {
  runtimes_.clear();
  free_slots_.clear();
  records_.clear();
  by_signature_.clear();
  routing_ = RoutingIndex();
  applied_ops_ = 0;
  ops_evaluated_ = 0;
  ops_noop_ = 0;
  ops_quarantined_ = 0;
  routed_evals_ = 0;
  consulted_evals_ = 0;
  registrations_ = 0;
  registrations_shared_ = 0;
  deregistrations_ = 0;
  dead_ = false;
}

void QuerySet::Bind(const Graph& g0) {
  MutexLock lock(mu_);
  ResetStateLocked();
  g_ = g0;
  vertex_index_.Reset(g_.VertexCount());
  bound_ = true;
}

uint32_t QuerySet::AllocSlot() {
  if (!free_slots_.empty()) {
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  runtimes_.emplace_back();
  return static_cast<uint32_t>(runtimes_.size() - 1);
}

void QuerySet::IndexRuntime(uint32_t slot) {
  Runtime& rt = *runtimes_[slot];
  routing_.Add(slot, *rt.query);
  by_signature_[rt.signature] = slot;
  active_scratch_.clear();
  rt.engine->AppendActiveVertices(&active_scratch_);
  for (VertexId v : active_scratch_) vertex_index_.Add(v, slot);
  rt.engine->set_active_vertex_listener(&rt);
}

void QuerySet::DropRuntime(uint32_t slot) {
  Runtime& rt = *runtimes_[slot];
  routing_.Remove(slot, *rt.query);
  by_signature_.erase(rt.signature);
  active_scratch_.clear();
  rt.engine->AppendActiveVertices(&active_scratch_);
  for (VertexId v : active_scratch_) vertex_index_.Remove(v, slot);
  runtimes_[slot].reset();
  free_slots_.push_back(slot);
}

void QuerySet::CatchUp(uint32_t slot, const UpdateOp* evaluating) const {
  Runtime& rt = *runtimes_[slot];
  const RoutingIndex::RoutedCount routed = routing_.routed_count(slot);
  uint64_t ops = routed.ops - rt.synced.ops;
  uint64_t inserts = routed.inserts - rt.synced.inserts;
  if (evaluating != nullptr) {  // Route already counted it
    --ops;
    if (evaluating->IsInsert()) --inserts;
  }
  rt.engine->SkipSharedUpdates(ops, inserts);
  rt.synced = routed;
}

void QuerySet::CatchUpAll() const {
  for (uint32_t slot = 0; slot < runtimes_.size(); ++slot) {
    if (runtimes_[slot]) CatchUp(slot, nullptr);
  }
}

uint64_t QuerySet::RoutedOps(QueryId id) const {
  const QueryRecord& r = records_[id];
  if (!r.live) return r.costs.routed_ops;
  return r.costs.routed_ops + routing_.routed_count(r.slot).ops -
         r.routed_mark;
}

Status QuerySet::Register(const QueryGraph& q, Sink& sink, Deadline deadline,
                          QueryId* id) {
  MutexLock lock(mu_);
  if (!bound_) {
    return Status::FailedPrecondition("Bind() or Restore() the set first");
  }
  if (dead_) {
    return Status::FailedPrecondition("query set is dead; Restore() first");
  }
  if (q.VertexCount() == 0 || q.EdgeCount() == 0 || !q.IsConnected()) {
    return Status::InvalidArgument("query must be non-empty and connected");
  }
  if (q.VertexCount() > kMaxQueryVertices) {
    return Status::InvalidArgument("query exceeds kMaxQueryVertices");
  }

  const QueryId new_id = static_cast<QueryId>(records_.size());
  std::string sig = QuerySignature(q);

  if (options_.share_identical) {
    auto it = by_signature_.find(sig);
    if (it != by_signature_.end()) {
      // A signature-identical query is already served: its runtime's DCG
      // holds exactly the new query's match set, so the bootstrap is one
      // read-only enumeration instead of a full DCG build. It follows the
      // matching order, which a skipped op's drift check may change, so
      // the runtime catches up first.
      const uint32_t slot = it->second;
      Runtime& rt = *runtimes_[slot];
      CatchUp(slot, nullptr);
      TagSink tagged(new_id, sink);
      if (!rt.engine->EnumerateCurrentMatches(tagged, deadline)) {
        return Status::DeadlineExceeded(
            "registration bootstrap abandoned (shared runtime)");
      }
      rt.members.push_back(new_id);
      records_.push_back(
          QueryRecord{slot, true, {}, routing_.routed_count(slot).ops});
      ++registrations_;
      ++registrations_shared_;
      if (id != nullptr) *id = new_id;
      return Status::Ok();
    }
  }

  // Fresh runtime: bootstrap the DCG against the current shared graph.
  // Until the runtime is committed below (and only then indexed, vertex
  // index included), nothing shared is mutated, so a mid-bootstrap
  // deadline expiry leaves the set fully usable.
  auto rt = std::make_unique<Runtime>();
  rt->query = std::make_unique<QueryGraph>(q);
  rt->engine = std::make_unique<TurboFluxEngine>(options_.engine);
  TagSink tagged(new_id, sink);
  if (!rt->engine->InitShared(*rt->query, &g_, tagged, deadline)) {
    return Status::DeadlineExceeded("registration bootstrap abandoned");
  }
  rt->signature = std::move(sig);
  rt->members.push_back(new_id);

  uint32_t slot = AllocSlot();
  runtimes_[slot] = std::move(rt);
  IndexRuntime(slot);
  records_.push_back(QueryRecord{slot, true, {}});
  ++registrations_;
  if (id != nullptr) *id = new_id;
  return Status::Ok();
}

Status QuerySet::Deregister(QueryId id) {
  MutexLock lock(mu_);
  if (id >= records_.size() || !records_[id].live) {
    return Status::NotFound("query " + std::to_string(id) +
                            " is not registered");
  }
  records_[id].costs.routed_ops = RoutedOps(id);
  records_[id].live = false;
  ++deregistrations_;
  const uint32_t slot = records_[id].slot;
  Runtime& rt = *runtimes_[slot];
  std::erase(rt.members, id);
  if (rt.members.empty()) DropRuntime(slot);
  return Status::Ok();
}

Status QuerySet::ApplyUpdate(const UpdateOp& op, Sink& sink,
                             Deadline deadline) {
  MutexLock lock(mu_);
  if (!bound_) {
    return Status::FailedPrecondition("Bind() or Restore() the set first");
  }
  if (dead_) {
    return Status::FailedPrecondition("query set is dead; Restore() first");
  }
  Status v = ValidateOp(g_, op);
  if (v.code() == StatusCode::kOutOfRange) {
    // Applying would index past the adjacency arrays of every engine:
    // quarantine set-wide, consume as a no-op.
    ++ops_quarantined_;
    ++applied_ops_;
    return v;
  }
  if (!v.ok()) {
    // Legal stream no-op (duplicate insertion / absent deletion): the
    // graph doesn't change, so no engine's DCG or match set can either.
    ++ops_noop_;
    ++applied_ops_;
    return v;
  }

  // Route before mutating: the index is over static vertex labels, so the
  // result is the same either way, but routing first keeps "the graph
  // only changes around evaluation" easy to see.
  const size_t routed = routing_.Route(op.label, g_.labels(op.from),
                                       g_.labels(op.to), op.IsInsert());
  routed_evals_ += routed;
  ++ops_evaluated_;

  // Shared-graph update protocol (see class comment): insert before any
  // engine evaluates; delete only after every engine evaluated.
  if (op.IsInsert()) g_.AddEdge(op.from, op.label, op.to);
  if (!EvalRouted(op, routed, sink, deadline)) {
    // No matches of this op were flushed and it was not consumed; the
    // graph may already hold an inserted edge, but the set is dead and
    // only Restore() revives it.
    dead_ = true;
    return Status::DeadlineExceeded("update " + op.ToString() +
                                    " abandoned mid-evaluation");
  }
  if (!op.IsInsert()) g_.RemoveEdge(op.from, op.label, op.to);
  ++applied_ops_;
  return Status::Ok();
}

bool QuerySet::EvalRouted(const UpdateOp& op, size_t routed, Sink& sink,
                          Deadline deadline) {
  if (routed == 0) return true;
  // Polled here and not only inside engines, so that an expired deadline
  // kills the set on an op the vertex index lets no runtime evaluate.
  if (deadline.ExpiredNow()) return false;

  // Second stage: a routed runtime acts on (v, l, v2) only if v or v2 is
  // active in it (Transition 0, Case 2); the others are never touched.
  vertex_index_.Candidates(op.from, op.to, routing_, &evaluated_);
  const size_t n = evaluated_.size();
  consulted_evals_ += n;
  if (n == 0) return true;
  if (buffers_.size() < n) buffers_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    buffers_[i].Clear();
    CatchUp(evaluated_[i], &op);
  }

  const size_t nthreads = std::min(options_.threads, n);
  bool ok = true;
  if (nthreads <= 1) {
    for (size_t i = 0; i < n && ok; ++i) {
      ok = runtimes_[evaluated_[i]]->engine->EvalSharedUpdate(op, buffers_[i],
                                                              deadline);
    }
  } else {
    // Engine pointers are snapshotted under mu_ (held by the caller); the
    // workers then touch only their disjoint engines, buffers and
    // runtimes' flip buffers, plus the thread-safe deadline poll and the
    // shared (constant) graph.
    evaluated_engines_.clear();
    for (uint32_t slot : evaluated_) {
      evaluated_engines_.push_back(runtimes_[slot]->engine.get());
    }
    if (!pool_ || pool_->size() != nthreads - 1) {
      pool_ = std::make_unique<parallel::ThreadPool>(nthreads - 1);
    }
    std::atomic<bool> failed{false};
    std::vector<std::function<void()>> tasks;
    tasks.reserve(nthreads);
    for (size_t w = 0; w < nthreads; ++w) {
      tasks.push_back([engines = &evaluated_engines_, buffers = &buffers_,
                       &failed, &op, &deadline, w, nthreads] {
        for (size_t i = w; i < engines->size(); i += nthreads) {
          if (failed.load(std::memory_order_relaxed)) return;
          if (!(*engines)[i]->EvalSharedUpdate(op, (*buffers)[i], deadline)) {
            failed.store(true, std::memory_order_relaxed);
            return;
          }
        }
      });
    }
    pool_->RunAll(std::move(tasks));
    ok = !failed.load(std::memory_order_relaxed);
  }

  // Apply the active-vertex flips the evaluations buffered, even on
  // failure, so the index always mirrors the engines' DCGs.
  for (uint32_t slot : evaluated_) {
    Runtime& rt = *runtimes_[slot];
    for (const auto& [v, active] : rt.flips) {
      active ? vertex_index_.Add(v, slot) : vertex_index_.Remove(v, slot);
    }
    rt.flips.clear();
  }
  if (!ok) return false;

  // Deterministic flush: runtimes in ascending slot order (Candidates
  // sorts), members ascending within a runtime. Per-query attribution
  // lands here, once per member — a shared runtime's work is billed to
  // every query it serves, since each would have paid it alone.
  for (size_t i = 0; i < n; ++i) {
    const RuntimeMatchBuffer& buffer = buffers_[i];
    if (buffer.positive() + buffer.negative() == 0) continue;
    for (QueryId member : runtimes_[evaluated_[i]]->members) {
      QueryCosts& costs = records_[member].costs;
      costs.matches_positive += buffer.positive();
      costs.matches_negative += buffer.negative();
      buffer.FlushTo(sink, member, flush_scratch_);
    }
  }
  return true;
}

Status QuerySet::ApplyBatch(std::span<const UpdateOp> ops, Sink& sink,
                            Deadline deadline) {
  // Check liveness once up front: per-op kFailedPrecondition is a LEGAL
  // duplicate-insertion no-op and must not abandon the window. Only a
  // deadline expiry can kill the set mid-batch.
  {
    MutexLock lock(mu_);
    if (!bound_) {
      return Status::FailedPrecondition("Bind() or Restore() the set first");
    }
    if (dead_) {
      return Status::FailedPrecondition("query set is dead; Restore() first");
    }
  }
  for (const UpdateOp& op : ops) {
    Status st = ApplyUpdate(op, sink, deadline);
    if (st.code() == StatusCode::kDeadlineExceeded) return st;
    // Quarantined and legal-no-op statuses are informational; the op was
    // consumed and the batch continues.
  }
  return Status::Ok();
}

size_t QuerySet::QueryCount() const {
  MutexLock lock(mu_);
  size_t n = 0;
  for (const QueryRecord& r : records_) n += r.live ? 1 : 0;
  return n;
}

size_t QuerySet::RuntimeCount() const {
  MutexLock lock(mu_);
  size_t n = 0;
  for (const std::unique_ptr<Runtime>& rt : runtimes_) n += rt ? 1 : 0;
  return n;
}

size_t QuerySet::IntermediateSize() const {
  MutexLock lock(mu_);
  size_t total = 0;
  for (const std::unique_ptr<Runtime>& rt : runtimes_) {
    if (rt) total += rt->engine->IntermediateSize();
  }
  return total;
}

std::vector<QueryId> QuerySet::LiveQueries() const {
  MutexLock lock(mu_);
  std::vector<QueryId> out;
  for (QueryId id = 0; id < records_.size(); ++id) {
    if (records_[id].live) out.push_back(id);
  }
  return out;
}

bool QuerySet::IsLive(QueryId id) const {
  MutexLock lock(mu_);
  return id < records_.size() && records_[id].live;
}

uint64_t QuerySet::applied_ops() const {
  MutexLock lock(mu_);
  return applied_ops_;
}

bool QuerySet::dead() const {
  MutexLock lock(mu_);
  return dead_;
}

const Graph& QuerySet::graph() const {
  MutexLock lock(mu_);
  return g_;
}

QuerySet::QueryCosts QuerySet::Costs(QueryId id) const {
  MutexLock lock(mu_);
  if (id >= records_.size()) return QueryCosts{};
  QueryCosts costs = records_[id].costs;
  costs.routed_ops = RoutedOps(id);
  return costs;
}

uint64_t QuerySet::ConsultedEvals() const {
  MutexLock lock(mu_);
  return consulted_evals_;
}

uint64_t QuerySet::RoutedEvals() const {
  MutexLock lock(mu_);
  return routed_evals_;
}

const TurboFluxEngine* QuerySet::Engine(QueryId id) {
  MutexLock lock(mu_);
  if (id >= records_.size() || !records_[id].live) return nullptr;
  CatchUp(records_[id].slot, nullptr);
  return runtimes_[records_[id].slot]->engine.get();
}

std::string QuerySet::ValidateVertexIndex() const {
  MutexLock lock(mu_);
  // The expected index, rebuilt from every live runtime's DCG; the slot
  // loop ascends, so each list comes out ascending. Messages are built
  // with += as in Dcg::Validate (GCC 12 misreports literal + string
  // chains under -Wrestrict).
  std::vector<std::vector<uint32_t>> want(vertex_index_.VertexCount());
  std::vector<VertexId> active;
  for (uint32_t slot = 0; slot < runtimes_.size(); ++slot) {
    if (!runtimes_[slot]) continue;
    active.clear();
    runtimes_[slot]->engine->AppendActiveVertices(&active);
    for (VertexId v : active) {
      if (v < want.size()) want[v].push_back(slot);
    }
    if (!runtimes_[slot]->flips.empty() ||
        (!active.empty() && active.back() >= want.size())) {
      std::string msg = "runtime in slot ";
      msg += std::to_string(slot);
      msg += " has unapplied flips or vertices outside the index";
      return msg;
    }
  }
  for (VertexId v = 0; v < want.size(); ++v) {
    if (vertex_index_.Slots(v) != want[v]) {
      std::string msg = "vertex index disagrees with the DCGs at v";
      msg += std::to_string(v);
      return msg;
    }
  }
  return "";
}

void QuerySet::AppendStats(obs::StatsSnapshot& out) const {
  MutexLock lock(mu_);
  CatchUpAll();
  out.AddCounter("queryset.ops", applied_ops_);
  out.AddCounter("queryset.ops_evaluated", ops_evaluated_);
  out.AddCounter("queryset.ops_noop", ops_noop_);
  out.AddCounter("queryset.ops_quarantined", ops_quarantined_);
  out.AddCounter("queryset.routed_evals", routed_evals_);
  out.AddCounter("queryset.consulted_evals", consulted_evals_);
  out.AddCounter("queryset.registrations", registrations_);
  out.AddCounter("queryset.registrations_shared", registrations_shared_);
  out.AddCounter("queryset.deregistrations", deregistrations_);
  out.AddCounter("queryset.checkpoints", checkpoints_);
  out.AddCounter("queryset.restores", restores_);
  out.AddCounter("queryset.routing_keys", routing_.KeyCount());
  size_t live = 0, rts = 0;
  for (const QueryRecord& r : records_) live += r.live ? 1 : 0;
  for (const std::unique_ptr<Runtime>& rt : runtimes_) rts += rt ? 1 : 0;
  out.AddCounter("queryset.queries_live", live);
  out.AddCounter("queryset.runtimes_live", rts);
  // The shared graph's layout gauges, once for the set (the engines
  // share the graph, so they export none of their own).
  obs::GraphLayoutStats graph;
  SampleGraphLayout(g_, &graph);
  graph.AppendTo(out, "queryset.graph.");

  // Per-query attribution, live queries only, then each runtime's engine
  // counters under its lowest (first-registered) live member.
  for (QueryId id = 0; id < records_.size(); ++id) {
    if (!records_[id].live) continue;
    const std::string prefix = "queryset.q" + std::to_string(id) + ".";
    out.AddCounter(prefix + "routed_ops", RoutedOps(id));
    out.AddCounter(prefix + "matches_positive",
                   records_[id].costs.matches_positive);
    out.AddCounter(prefix + "matches_negative",
                   records_[id].costs.matches_negative);
  }
  for (const std::unique_ptr<Runtime>& rt : runtimes_) {
    if (!rt || rt->members.empty()) continue;
    rt->engine->engine_stats()->AppendTo(
        out, "queryset.q" + std::to_string(rt->members.front()) + ".engine.",
        /*include_graph=*/false);
  }
}

}  // namespace multi
}  // namespace turboflux
