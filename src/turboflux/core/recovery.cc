#include "turboflux/core/recovery.h"

// tfx-lint: allow-file(hot-path-purity) -- the resilient-run driver is the
// durability layer around the engine, not the per-op eval path: BufferSink
// locks by contract (MatchSink makes no single-threaded promise), and
// checkpoint save/load is file I/O by definition.

#include <sstream>
#include <utility>
#include <vector>

#include "turboflux/common/deadline.h"
#include "turboflux/common/match.h"
#include "turboflux/common/serialize.h"
#include "turboflux/common/synchronization.h"
#include "turboflux/common/thread_annotations.h"

namespace turboflux {

namespace {

/// Holds matches back until the surrounding run commits them. A failed op
/// drops the buffer wholesale, which is what turns the engine's
/// at-least-once replay into the sink's exactly-once delivery.
///
/// mu_ guards the pending buffer: today every engine reports matches on
/// the calling thread, but MatchSink makes no single-threaded promise,
/// and the commit path must never interleave with a late append. FlushTo
/// forwards to the downstream sink with mu_ released — the sink is user
/// code and may block or re-enter.
class BufferSink : public MatchSink {
 public:
  void OnMatch(bool positive, const Mapping& m) override EXCLUDES(mu_) {
    MutexLock lock(mu_);
    matches_.emplace_back(positive, m);
  }

  void FlushTo(MatchSink& sink) EXCLUDES(mu_) {
    std::vector<std::pair<bool, Mapping>> drained;
    {
      MutexLock lock(mu_);
      drained.swap(matches_);
    }
    for (const auto& [positive, m] : drained) sink.OnMatch(positive, m);
  }

  void Drop() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    matches_.clear();
  }

 private:
  Mutex mu_;
  std::vector<std::pair<bool, Mapping>> matches_ GUARDED_BY(mu_);
};

}  // namespace

ResilientResult RunResilient(EngineInterface& engine, const QueryGraph& q,
                             const Graph& g0, const UpdateStream& stream,
                             MatchSink& sink,
                             const ResilientOptions& options) {
  ResilientResult result;
  Stopwatch watch;
  Deadline deadline = options.timeout_ms > 0
                          ? Deadline::AfterMillis(options.timeout_ms)
                          : Deadline::Infinite();
  engine.set_fault_injector(options.injector);

  BufferSink pending;
  std::string snapshot;    // last committed snapshot bytes
  uint64_t committed = 0;  // stream position of that snapshot

  auto finish = [&](bool ok, Status st) {
    engine.set_fault_injector(nullptr);
    result.ok = ok;
    result.status = std::move(st);
    result.ops_consumed = ok ? engine.applied_ops() : committed;
    result.quarantined = engine.quarantine().size();
    result.seconds = watch.ElapsedSeconds();
    if (options.collect_stats) {
      obs::StatsSnapshot s;
      s.AddCounter("run.ops_consumed", result.ops_consumed);
      s.AddCounter("run.initial_matches", result.initial_matches);
      s.AddCounter("run.recoveries", result.recoveries);
      s.AddCounter("run.checkpoints", result.checkpoints);
      s.AddCounter("run.quarantined", result.quarantined);
      if (const obs::EngineStats* es = engine.engine_stats()) {
        es->AppendTo(s, "engine.");
      }
      result.stats = std::move(s);
    }
    return result;
  };

  auto commit = [&]() -> Status {
    std::ostringstream os;
    Status st = engine.Checkpoint(os);
    if (!st.ok()) return st;
    snapshot = os.str();
    if (!options.checkpoint_path.empty()) {
      // Write-then-rename: a crash mid-write leaves the previous file.
      st = bin::ReplaceFile(options.checkpoint_path, [&](std::ostream& out) {
        out.write(snapshot.data(),
                  static_cast<std::streamsize>(snapshot.size()));
        return Status::Ok();
      });
      if (!st.ok()) return st;
    }
    pending.FlushTo(sink);
    committed = engine.applied_ops();
    ++result.checkpoints;
    return Status::Ok();
  };

  if (!options.restore_from.empty()) {
    if (!bin::ReadFile(options.restore_from, &snapshot).ok()) {
      return finish(false, Status::IoError("cannot read snapshot file " +
                                           options.restore_from));
    }
    std::istringstream is(snapshot);
    Status st = engine.Restore(is);
    if (!st.ok()) return finish(false, std::move(st));
    committed = engine.applied_ops();
  } else {
    // Initial matches are counted, not forwarded — the same convention as
    // RunContinuous, so the stream of matches delivered to `sink` is
    // identical across the plain and resilient runners.
    CountingSink initial;
    if (!engine.Init(q, g0, initial, deadline)) {
      return finish(false, Status::DeadlineExceeded(
                               "Init exceeded the time budget"));
    }
    result.initial_matches = initial.positive();
  }
  Status st = commit();
  if (!st.ok()) return finish(false, std::move(st));

  while (engine.applied_ops() < stream.size()) {
    const size_t pos = static_cast<size_t>(engine.applied_ops());
    Status step = engine.TryApplyUpdate(stream[pos], pending, deadline);
    if (engine.dead()) {
      // Crash path: the partial matches in the buffer are unreliable.
      // Recover only when the real budget still has room (an injected
      // fault leaves the caller's deadline untouched).
      if (deadline.ExpiredNow()) {
        return finish(false, std::move(step));
      }
      if (++result.recoveries > options.max_recoveries) {
        return finish(false,
                      Status::FailedPrecondition(
                          "gave up after " +
                          std::to_string(options.max_recoveries) +
                          " recoveries"));
      }
      pending.Drop();
      std::istringstream is(snapshot);
      Status rst = engine.Restore(is);
      if (!rst.ok()) return finish(false, std::move(rst));
      continue;
    }
    // step is OK or an informational quarantine/no-op status; either way
    // the op was consumed.
    bool timer_fired =
        options.checkpoint_request != nullptr &&
        options.checkpoint_request->exchange(false, std::memory_order_acq_rel);
    if (timer_fired ||
        (options.checkpoint_every > 0 &&
         engine.applied_ops() - committed >= options.checkpoint_every)) {
      st = commit();
      if (!st.ok()) return finish(false, std::move(st));
    }
  }

  st = commit();  // final flush (and final on-disk snapshot, if enabled)
  if (!st.ok()) return finish(false, std::move(st));
  return finish(true, Status::Ok());
}

}  // namespace turboflux
