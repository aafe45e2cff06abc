#include "turboflux/serve/server.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>

#include "turboflux/common/deadline.h"
#include "turboflux/common/serialize.h"
#include "turboflux/obs/stats.h"

namespace turboflux {
namespace serve {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Deadline::Clock::now().time_since_epoch())
      .count();
}

void SleepMs(uint32_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

Response ErrResponse(StatusCode code, std::string text) {
  Response r;
  r.kind = Response::Kind::kErr;
  r.code = code;
  r.text = std::move(text);
  return r;
}

/// Collects QuerySet callbacks into MatchRecords tagged with one op index.
class TaggingSink : public multi::QuerySet::Sink {
 public:
  TaggingSink(uint64_t op_index, std::vector<MatchRecord>* out)
      : op_index_(op_index), out_(out) {}

  void OnMatch(multi::QueryId query, bool positive,
               const Mapping& m) override {
    MatchRecord rec;
    rec.op_index = op_index_;
    rec.query = query;
    rec.positive = positive ? 1 : 0;
    rec.mapping = m;
    out_->push_back(std::move(rec));
  }

 private:
  uint64_t op_index_;
  std::vector<MatchRecord>* out_;
};

/// Swallows callbacks — used when replay regenerates matches that are
/// already durable below the match-log watermark.
class NullSink : public multi::QuerySet::Sink {
 public:
  void OnMatch(multi::QueryId, bool, const Mapping&) override {}
};

/// True when the status means "op consumed" (evaluated or a legal/
/// quarantined no-op); false only for deadline death.
bool Consumed(const Status& s) {
  switch (s.code()) {
    case StatusCode::kOk:
    case StatusCode::kOutOfRange:
    case StatusCode::kNotFound:
    case StatusCode::kFailedPrecondition:
      return true;
    default:
      return false;
  }
}

}  // namespace

Server::Server(const ServeOptions& options)
    : options_(options),
      set_(options.set),
      overload_(options.overload),
      queue_(options.admission) {}

Server::~Server() {
  if (started_ && !killed_.load(std::memory_order_acquire) &&
      !stopping_.load(std::memory_order_acquire)) {
    Shutdown();
  } else if (started_ && ingest_.joinable()) {
    ingest_.join();
  }
}

Status Server::Create(const ServeOptions& options, const Graph* g0,
                      std::unique_ptr<Server>* out) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("ServeOptions.data_dir is required");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.data_dir, ec);
  if (ec) {
    return Status::IoError("cannot create data dir: " + options.data_dir);
  }
  std::unique_ptr<Server> server(new Server(options));
  Status s = server->Recover(g0);
  if (!s.ok()) return s;
  *out = std::move(server);
  return Status::Ok();
}

Status Server::Recover(const Graph* g0) {
  MutexLock reg_lock(reg_mu_);

  // 1. Journal: valid prefix J defines the op index space.
  std::vector<PendingOp> wal_records;
  uint64_t wal_bytes = 0;
  Status s = OpJournal::Load(WalPath(), &wal_records, &wal_bytes);
  if (!s.ok()) return s;

  // 2. Match log: records below watermark W are already delivered.
  std::vector<MatchRecord> durable_matches;
  uint64_t watermark = 0;
  uint64_t match_bytes = 0;
  s = MatchLog::Load(MatchLogPath(), &durable_matches, &watermark,
                     &match_bytes);
  if (!s.ok()) return s;

  // 3. Engine state: snapshot (position S) or fresh graph.
  bool have_snapshot = std::filesystem::exists(SnapshotPath());
  if (have_snapshot) {
    std::ifstream in(SnapshotPath(), std::ios::binary);
    if (!in) {
      return Status::IoError("cannot open snapshot: " + SnapshotPath());
    }
    s = set_.Restore(in);
    if (!s.ok()) return s;
  } else {
    if (g0 == nullptr) {
      return Status::InvalidArgument(
          "fresh data dir needs an initial graph (g0)");
    }
    set_.Bind(*g0);
  }
  uint64_t snapshot_pos = set_.applied_ops();  // S
  uint64_t journal_len = wal_records.size();   // J

  // Invariant S <= W <= J must hold on any disk state our own commit
  // protocol produced. A snapshot ahead of the journal means the journal
  // was torn further back than the snapshot covers — unrecoverable
  // without re-acking unknown ops, so refuse loudly.
  if (snapshot_pos > journal_len) {
    return Status::Corruption(
        "snapshot is ahead of the op journal (S=" +
        std::to_string(snapshot_pos) + " > J=" + std::to_string(journal_len) +
        "); data dir is inconsistent");
  }
  if (watermark > journal_len) {
    return Status::Corruption("match watermark ahead of journal");
  }
  // A torn match-log tail can leave W < S (commit died between the two
  // writes)... no: the match log commits BEFORE the snapshot renames, so
  // W >= S always. W < S means external tampering.
  if (watermark < snapshot_pos) {
    return Status::Corruption(
        "match watermark behind snapshot (W=" + std::to_string(watermark) +
        " < S=" + std::to_string(snapshot_pos) + ")");
  }

  // 4. Truncate torn tails and reopen for append.
  s = journal_.Open(WalPath(), wal_bytes, journal_len);
  if (!s.ok()) return s;
  s = match_log_.Open(MatchLogPath(), match_bytes);
  if (!s.ok()) return s;

  // 5. Replay WAL[S, J). Matches from ops below W are regenerated into a
  // NullSink (already durable); from W on they join pending_matches_ and
  // become durable at the post-recovery commit below.
  NullSink null_sink;
  for (uint64_t i = snapshot_pos; i < journal_len; ++i) {
    uint64_t op_index = set_.applied_ops();
    TaggingSink tagged(op_index, &pending_matches_);
    multi::QuerySet::Sink& sink =
        op_index < watermark ? static_cast<multi::QuerySet::Sink&>(null_sink)
                             : tagged;
    Status apply = set_.ApplyUpdate(wal_records[i].op, sink,
                                    Deadline::Infinite());
    if (!Consumed(apply)) {
      return Status::Error(apply.code(),
                           "replay failed at op " + std::to_string(i) + ": " +
                               apply.message());
    }
  }

  // 6. Rebuild per-channel durable high-water marks from the full
  // journal (acked == journaled).
  {
    MutexLock lock(state_mu_);
    for (const PendingOp& rec : wal_records) {
      uint64_t& hw = durable_hw_[rec.channel];
      hw = std::max(hw, rec.seq);
    }
  }
  accepted_ops_.store(journal_len, std::memory_order_relaxed);
  committed_ops_.store(watermark, std::memory_order_relaxed);
  last_commit_us_ = NowMicros();

  // 7. Re-establish S = W = J so the next crash owes no replay for this
  // prefix. Skipped when already clean (fresh dir or graceful shutdown).
  if (journal_len > watermark || !pending_matches_.empty() ||
      snapshot_pos < journal_len) {
    s = Commit();
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status Server::RegisterQuery(const QueryGraph& q, int priority,
                             multi::QueryId* id) {
  if (died_.load(std::memory_order_acquire) ||
      killed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server is down");
  }
  MutexLock reg_lock(reg_mu_);
  // Initial matches are tagged with the current op index: they depend on
  // every op evaluated so far and none after.
  TaggingSink sink(set_.applied_ops(), &pending_matches_);
  Status s = set_.Register(q, sink, Deadline::Infinite(), id);
  if (!s.ok()) return s;
  {
    MutexLock lock(state_mu_);
    queries_[*id] = StandingQuery{q, priority, false};
  }
  // Commit so the registration (snapshot) and its initial-match report
  // (match log) are both durable before the caller proceeds.
  return Commit();
}

void Server::Start() {
  if (started_) return;
  started_ = true;
  ingest_ = std::thread([this] { IngestLoop(); });
}

void Server::Shutdown() {
  if (stopping_.exchange(true)) return;
  queue_.Close();
  if (ingest_.joinable()) ingest_.join();
  if (!died_.load(std::memory_order_acquire) &&
      !killed_.load(std::memory_order_acquire)) {
    MutexLock reg_lock(reg_mu_);
    // Final commit so a later restart owes no replay. Failure here is
    // not fatal to the data: recovery replays from the last good commit.
    Status s = Commit();
    if (!s.ok()) {
      died_.store(true, std::memory_order_release);
    }
    journal_.Close();
    match_log_.Close();
  }
  ack_cv_.NotifyAll();
}

void Server::Kill() {
  if (killed_.exchange(true)) return;
  queue_.Close();
  if (ingest_.joinable()) ingest_.join();
  // No commit, no flush beyond what acks already forced: uncommitted
  // matches die with the process and are regenerated by recovery.
  {
    MutexLock reg_lock(reg_mu_);
    journal_.Close();
    match_log_.Close();
  }
  ack_cv_.NotifyAll();
}

void Server::Die(const std::string& reason) {
  (void)reason;
  died_.store(true, std::memory_order_release);
  killed_.store(true, std::memory_order_release);
  queue_.Close();
  ack_cv_.NotifyAll();
}

void Server::ApplyTierActions(Tier t) {
  // Shed everything below the top priority class on kShed+; restore on
  // return to kNormal. Deregistration drops the query's DCG (memory) and
  // its routing keys (work); re-registration re-bootstraps and re-reports
  // initial matches — degradation is lossy for shed queries by design.
  std::vector<std::pair<multi::QueryId, QueryGraph>> to_restore;
  std::vector<multi::QueryId> to_shed;
  {
    MutexLock lock(state_mu_);
    if (t >= Tier::kShed) {
      int top = 0;
      bool first = true;
      for (const auto& [id, sq] : queries_) {
        if (sq.shed) continue;
        top = first ? sq.priority : std::max(top, sq.priority);
        first = false;
      }
      for (auto& [id, sq] : queries_) {
        if (!sq.shed && sq.priority < top) to_shed.push_back(id);
      }
    } else if (t == Tier::kNormal) {
      for (auto& [id, sq] : queries_) {
        if (sq.shed) to_restore.emplace_back(id, sq.query);
      }
    }
  }
  for (multi::QueryId id : to_shed) {
    Status s = set_.Deregister(id);
    if (s.ok()) {
      MutexLock lock(state_mu_);
      queries_[id].shed = true;
      sheds_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  for (auto& [old_id, q] : to_restore) {
    MutexLock reg_lock(reg_mu_);
    TaggingSink sink(set_.applied_ops(), &pending_matches_);
    multi::QueryId new_id = 0;
    Status s = set_.Register(q, sink, Deadline::Infinite(), &new_id);
    if (!s.ok()) continue;
    MutexLock lock(state_mu_);
    int priority = queries_[old_id].priority;
    queries_.erase(old_id);
    queries_[new_id] = StandingQuery{std::move(q), priority, false};
    shed_restores_.fetch_add(1, std::memory_order_relaxed);
  }
}

Status Server::EvalOp(const PendingOp& op) {
  uint64_t op_index = set_.applied_ops();
  TaggingSink sink(op_index, &pending_matches_);
  Status s = set_.ApplyUpdate(op.op, sink, Deadline::Infinite());
  if (!Consumed(s)) return s;
  if (options_.eval_throttle_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.eval_throttle_us));
  }
  return Status::Ok();
}

Status Server::Commit() {
  uint64_t through = set_.applied_ops();
  // 1. Match log first (W advances to `through`).
  Status s =
      match_log_.AppendCommit(pending_matches_, through, options_.injector);
  if (!s.ok()) {
    Die("match log commit: " + s.message());
    return s;
  }
  // 2. Snapshot to a temp file, then atomic rename (S advances). An
  // injected death before the rename fails the writer, so the rename is
  // skipped and the previous snapshot stays in place.
  s = bin::ReplaceFile(SnapshotPath(), [this](std::ostream& out) {
    Status st = set_.Checkpoint(out);
    if (st.ok() && options_.injector != nullptr &&
        options_.injector->ShouldDieBeforeSnapshotRename()) {
      return Status::IoError("injected death before snapshot rename");
    }
    return st;
  });
  if (!s.ok()) {
    Die("snapshot: " + s.message());
    return s;
  }
  if (options_.injector != nullptr &&
      options_.injector->ShouldDieAfterSnapshotRename()) {
    Die("injected death after snapshot rename");
    return Status::IoError("injected death after snapshot rename");
  }
  pending_matches_.clear();
  ops_since_commit_ = 0;
  last_commit_us_ = NowMicros();
  committed_ops_.store(through, std::memory_order_relaxed);
  return Status::Ok();
}

void Server::IngestLoop() {
  std::vector<PendingOp> batch;
  while (true) {
    if (killed_.load(std::memory_order_acquire) ||
        died_.load(std::memory_order_acquire)) {
      return;
    }
    Tier t = tier();
    size_t window =
        t >= Tier::kWiden ? options_.widen_batch_window : options_.batch_window;
    batch.clear();
    size_t n = queue_.Drain(window, options_.drain_wait_ms, &batch);

    int64_t now = NowMicros();
    Tier observed =
        overload_.Observe(queue_.Depth(), queue_.Capacity(), now);
    if (observed != t) {
      PublishTier(observed);
      ApplyTierActions(observed);
    }

    if (n == 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      MutexLock reg_lock(reg_mu_);
      if (ops_since_commit_ > 0 &&
          now - last_commit_us_ >=
              int64_t{options_.checkpoint_interval_ms} * 1000) {
        if (!Commit().ok()) return;
      }
      continue;
    }

    FaultInjector* inj = options_.injector;
    if (inj != nullptr && inj->ShouldStallConsumer()) {
      SleepMs(inj->plan().stall_ms);
    }

    MutexLock reg_lock(reg_mu_);

    // Durability: append + flush every drained op, then ack.
    for (const PendingOp& op : batch) {
      Status s = journal_.Append(op, inj);
      if (!s.ok()) {
        Die("journal append: " + s.message());
        return;
      }
    }
    if (Status s = journal_.Flush(); !s.ok()) {
      Die("journal flush: " + s.message());
      return;
    }
    accepted_ops_.store(journal_.record_count(), std::memory_order_relaxed);
    {
      MutexLock lock(state_mu_);
      for (const PendingOp& op : batch) {
        uint64_t& hw = durable_hw_[op.channel];
        hw = std::max(hw, op.seq);
      }
    }
    ack_cv_.NotifyAll();

    // Evaluation + commit policy. An injected force-checkpoint commits
    // mid-batch, between an op's journal append and its match flush —
    // exactly the timer race the chaos suite probes.
    for (const PendingOp& op : batch) {
      Status s = EvalOp(op);
      if (!s.ok()) {
        Die("evaluation: " + s.message());
        return;
      }
      ++ops_since_commit_;
      bool forced = inj != nullptr && inj->ShouldForceCheckpoint();
      if (forced || ops_since_commit_ >= options_.checkpoint_every_ops) {
        if (!Commit().ok()) return;
      }
    }
    now = NowMicros();
    if (ops_since_commit_ > 0 &&
        now - last_commit_us_ >=
            int64_t{options_.checkpoint_interval_ms} * 1000) {
      if (!Commit().ok()) return;
    }
  }

  // Graceful exit: stopping_ and the queue is drained.
  MutexLock reg_lock(reg_mu_);
  (void)Commit();
}

Response Server::Submit(uint64_t channel, uint64_t seq,
                        std::span<const UpdateOp> ops) {
  if (killed_.load(std::memory_order_acquire) ||
      died_.load(std::memory_order_acquire)) {
    return ErrResponse(StatusCode::kFailedPrecondition, "server is down");
  }
  if (seq == 0 || ops.empty()) {
    return ErrResponse(StatusCode::kInvalidArgument,
                       "seq must be >= 1 and ops non-empty");
  }
  uint64_t last = seq + ops.size() - 1;
  size_t skip = 0;
  {
    MutexLock lock(state_mu_);
    auto it = durable_hw_.find(channel);
    uint64_t hw = it == durable_hw_.end() ? 0 : it->second;
    if (last <= hw) {
      Response r;
      r.kind = Response::Kind::kDup;
      r.seq = hw;
      return r;
    }
    if (seq > hw + 1) {
      return ErrResponse(StatusCode::kFailedPrecondition,
                         "sequence gap: durable high-water is " +
                             std::to_string(hw) + ", got seq " +
                             std::to_string(seq));
    }
    skip = static_cast<size_t>(hw + 1 - seq);  // resend overlap
  }

  Tier t = tier();
  if (t == Tier::kReject) {
    Response r;
    r.kind = Response::Kind::kRetry;
    r.retry_after_ms = options_.admission.retry_max_ms;
    r.queue_depth = queue_.Depth();
    r.queue_cap = queue_.Capacity();
    r.tier = t;
    return r;
  }

  std::vector<PendingOp> pending;
  pending.reserve(ops.size() - skip);
  for (size_t i = skip; i < ops.size(); ++i) {
    pending.push_back(PendingOp{channel, seq + i, ops[i]});
  }
  AdmitResult admit = queue_.TryPush(pending);
  if (!admit.accepted) {
    if (killed_.load(std::memory_order_acquire)) {
      return ErrResponse(StatusCode::kFailedPrecondition, "server is down");
    }
    Response r;
    r.kind = Response::Kind::kRetry;
    r.retry_after_ms = admit.retry_after_ms;
    r.queue_depth = admit.depth;
    r.queue_cap = queue_.Capacity();
    r.tier = t;
    return r;
  }

  // Wait (bounded) until the ingest thread journals our last op.
  int64_t deadline_us = NowMicros() + int64_t{options_.ack_timeout_ms} * 1000;
  MutexLock lock(state_mu_);
  while (true) {
    auto it = durable_hw_.find(channel);
    if (it != durable_hw_.end() && it->second >= last) {
      Response r;
      r.kind = Response::Kind::kOk;
      r.seq = last;
      return r;
    }
    if (killed_.load(std::memory_order_acquire) ||
        died_.load(std::memory_order_acquire)) {
      return ErrResponse(StatusCode::kFailedPrecondition,
                         "server went down before the ack");
    }
    if (NowMicros() >= deadline_us) {
      return ErrResponse(StatusCode::kDeadlineExceeded,
                         "ack wait timed out; resubmit after POS");
    }
    (void)ack_cv_.WaitFor(state_mu_, std::chrono::milliseconds(20));
  }
}

Response Server::Pos(uint64_t channel) {
  Response r;
  r.kind = Response::Kind::kPos;
  MutexLock lock(state_mu_);
  auto it = durable_hw_.find(channel);
  r.seq = it == durable_hw_.end() ? 0 : it->second;
  return r;
}

Response Server::Health() {
  Response r;
  r.kind = Response::Kind::kHealth;
  r.tier = tier();
  r.queue_depth = queue_.Depth();
  r.queue_cap = queue_.Capacity();
  r.accepted = accepted_ops_.load(std::memory_order_relaxed);
  r.committed = committed_ops_.load(std::memory_order_relaxed);
  return r;
}

Response Server::Stats() {
  obs::StatsSnapshot snap;
  set_.AppendStats(snap);
  snap.AddCounter("serve.ops_accepted",
                  accepted_ops_.load(std::memory_order_relaxed));
  snap.AddCounter("serve.ops_committed",
                  committed_ops_.load(std::memory_order_relaxed));
  snap.AddCounter("serve.queue_depth", queue_.Depth());
  snap.AddCounter("serve.queue_cap", queue_.Capacity());
  snap.AddCounter("serve.admitted_ops", queue_.accepted_ops());
  snap.AddCounter("serve.rejected_batches", queue_.rejected_batches());
  snap.AddCounter("serve.tier", tier_.load(std::memory_order_relaxed));
  snap.AddCounter("serve.sheds", sheds_.load(std::memory_order_relaxed));
  snap.AddCounter("serve.shed_restores",
                  shed_restores_.load(std::memory_order_relaxed));
  Response r;
  r.kind = Response::Kind::kStats;
  r.text = snap.ToJson();
  return r;
}

Response Server::Matches(uint64_t start, uint64_t limit) {
  std::vector<MatchRecord> all;
  Status s = CommittedMatches(&all);
  if (!s.ok()) return ErrResponse(s.code(), s.message());
  Response r;
  r.kind = Response::Kind::kMatches;
  for (uint64_t i = start; i < all.size() && r.matches.size() < limit; ++i) {
    r.matches.push_back(std::move(all[i]));
  }
  return r;
}

Status Server::CommittedMatches(std::vector<MatchRecord>* out) const {
  uint64_t watermark = 0;
  uint64_t valid_bytes = 0;
  return MatchLog::Load(MatchLogPath(), out, &watermark, &valid_bytes);
}

size_t Server::LiveQueryCount() { return set_.QueryCount(); }

ServerHandle::ServerHandle(Server& server, uint64_t channel)
    : server_(server),
      channel_(channel),
      bucket_(server.options().rate_limit_per_sec,
              server.options().rate_limit_burst) {
  next_seq_ = server_.Pos(channel_).seq + 1;
}

Response ServerHandle::TrySubmit(std::span<const UpdateOp> ops) {
  uint32_t retry_ms = 0;
  if (!bucket_.TryAcquire(static_cast<double>(ops.size()), NowMicros(),
                          &retry_ms)) {
    ++retries_observed_;
    Response r;
    r.kind = Response::Kind::kRetry;
    r.retry_after_ms = retry_ms;
    r.tier = server_.tier();
    return r;
  }
  Response r = server_.Submit(channel_, next_seq_, ops);
  if (r.kind == Response::Kind::kOk) {
    next_seq_ = r.seq + 1;
  } else if (r.kind == Response::Kind::kDup) {
    next_seq_ = std::max(next_seq_, r.seq + 1);
  } else if (r.kind == Response::Kind::kRetry) {
    ++retries_observed_;
  }
  return r;
}

Response ServerHandle::Submit(std::span<const UpdateOp> ops,
                              int max_attempts) {
  Response r;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    r = TrySubmit(ops);
    if (r.kind != Response::Kind::kRetry) return r;
    SleepMs(std::max<uint32_t>(1, r.retry_after_ms));
  }
  return r;
}

uint64_t ServerHandle::Resync() {
  uint64_t hw = server_.Pos(channel_).seq;
  next_seq_ = hw + 1;
  return hw;
}

}  // namespace serve
}  // namespace turboflux
