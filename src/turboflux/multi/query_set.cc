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

/// Buffers one runtime's matches for an op so routed runtimes can be
/// evaluated concurrently and flushed deterministically afterwards.
/// Matches are stored flattened (no per-match heap allocation).
class RuntimeMatchBuffer : public MatchSink {
 public:
  void OnMatch(bool positive, const Mapping& m) override {
    positive ? ++positive_ : ++negative_;
    signs_.push_back(positive ? 1 : 0);
    sizes_.push_back(static_cast<uint32_t>(m.size()));
    flat_.insert(flat_.end(), m.begin(), m.end());
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

QuerySetOptions Sanitize(QuerySetOptions options) {
  if (options.threads == 0) options.threads = 1;
  return options;
}

}  // namespace

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
}

void QuerySet::DropRuntime(uint32_t slot) {
  Runtime& rt = *runtimes_[slot];
  routing_.Remove(slot, *rt.query);
  by_signature_.erase(rt.signature);
  runtimes_[slot].reset();
  free_slots_.push_back(slot);
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
      // read-only enumeration instead of a full DCG build.
      Runtime& rt = *runtimes_[it->second];
      TagSink tagged(new_id, sink);
      if (!rt.engine->EnumerateCurrentMatches(tagged, deadline)) {
        return Status::DeadlineExceeded(
            "registration bootstrap abandoned (shared runtime)");
      }
      rt.members.push_back(new_id);
      records_.push_back(QueryRecord{it->second, true, {}});
      ++registrations_;
      ++registrations_shared_;
      if (id != nullptr) *id = new_id;
      return Status::Ok();
    }
  }

  // Fresh runtime: bootstrap the DCG against the current shared graph.
  // Until the runtime is committed below, nothing shared is mutated, so a
  // mid-bootstrap deadline expiry leaves the set fully usable.
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
  routing_.Route(op.label, g_.labels(op.from), g_.labels(op.to),
                 &route_scratch_);
  consulted_evals_ += route_scratch_.size();
  ++ops_evaluated_;

  // Shared-graph update protocol (see class comment): insert before any
  // engine evaluates; delete only after every engine evaluated.
  if (op.IsInsert()) g_.AddEdge(op.from, op.label, op.to);
  if (!EvalRouted(op, route_scratch_, sink, deadline)) {
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

bool QuerySet::EvalRouted(const UpdateOp& op,
                          const std::vector<uint32_t>& routed, Sink& sink,
                          Deadline deadline) {
  if (routed.empty()) return true;
  std::vector<RuntimeMatchBuffer> buffers(routed.size());
  const size_t nthreads = std::min(options_.threads, routed.size());

  if (nthreads <= 1) {
    for (size_t i = 0; i < routed.size(); ++i) {
      if (!runtimes_[routed[i]]->engine->EvalSharedUpdate(op, buffers[i],
                                                          deadline)) {
        return false;
      }
    }
  } else {
    // Engine pointers are snapshotted under mu_ (held by the caller); the
    // workers then touch only their disjoint engines and buffers, plus
    // the thread-safe deadline poll and the shared (constant) graph.
    std::vector<TurboFluxEngine*> engines;
    engines.reserve(routed.size());
    for (uint32_t slot : routed) {
      engines.push_back(runtimes_[slot]->engine.get());
    }
    if (!pool_ || pool_->size() != nthreads - 1) {
      pool_ = std::make_unique<parallel::ThreadPool>(nthreads - 1);
    }
    std::atomic<bool> failed{false};
    std::vector<std::function<void()>> tasks;
    tasks.reserve(nthreads);
    for (size_t w = 0; w < nthreads; ++w) {
      tasks.push_back([&engines, &buffers, &failed, &op, &deadline, w,
                       nthreads] {
        for (size_t i = w; i < engines.size(); i += nthreads) {
          if (failed.load(std::memory_order_relaxed)) return;
          if (!engines[i]->EvalSharedUpdate(op, buffers[i], deadline)) {
            failed.store(true, std::memory_order_relaxed);
            return;
          }
        }
      });
    }
    pool_->RunAll(std::move(tasks));
    if (failed.load(std::memory_order_relaxed)) return false;
  }

  // Deterministic flush: runtimes in ascending slot order (Route sorts),
  // members ascending within a runtime. Per-query attribution lands here,
  // once per member — a shared runtime's work is billed to every query it
  // serves, since each would have paid it alone.
  Mapping scratch;
  for (size_t i = 0; i < routed.size(); ++i) {
    const Runtime& rt = *runtimes_[routed[i]];
    for (QueryId member : rt.members) {
      QueryCosts& costs = records_[member].costs;
      ++costs.routed_ops;
      costs.matches_positive += buffers[i].positive();
      costs.matches_negative += buffers[i].negative();
      buffers[i].FlushTo(sink, member, scratch);
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
  return id < records_.size() ? records_[id].costs : QueryCosts{};
}

uint64_t QuerySet::ConsultedEvals() const {
  MutexLock lock(mu_);
  return consulted_evals_;
}

void QuerySet::AppendStats(obs::StatsSnapshot& out) const {
  MutexLock lock(mu_);
  out.AddCounter("queryset.ops", applied_ops_);
  out.AddCounter("queryset.ops_evaluated", ops_evaluated_);
  out.AddCounter("queryset.ops_noop", ops_noop_);
  out.AddCounter("queryset.ops_quarantined", ops_quarantined_);
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

  // Per-query attribution, live queries only, then each runtime's engine
  // counters under its lowest (first-registered) live member.
  for (QueryId id = 0; id < records_.size(); ++id) {
    if (!records_[id].live) continue;
    const std::string prefix = "queryset.q" + std::to_string(id) + ".";
    out.AddCounter(prefix + "routed_ops", records_[id].costs.routed_ops);
    out.AddCounter(prefix + "matches_positive",
                   records_[id].costs.matches_positive);
    out.AddCounter(prefix + "matches_negative",
                   records_[id].costs.matches_negative);
  }
  for (const std::unique_ptr<Runtime>& rt : runtimes_) {
    if (!rt || rt->members.empty()) continue;
    rt->engine->engine_stats()->AppendTo(
        out, "queryset.q" + std::to_string(rt->members.front()) + ".engine.");
  }
}

}  // namespace multi
}  // namespace turboflux
