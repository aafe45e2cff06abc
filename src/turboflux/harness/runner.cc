#include "turboflux/harness/runner.h"

#include <algorithm>
#include <ostream>

#include "turboflux/common/deadline.h"

namespace turboflux {

namespace {

/// Splits the initial matches (reported during Init) from stream matches:
/// counts initial positives separately.
class PhaseSink : public MatchSink {
 public:
  explicit PhaseSink(MatchSink& inner) : inner_(inner) {}

  void OnMatch(bool positive, const Mapping& m) override {
    if (init_phase_) {
      ++initial_;
      return;  // initial matches are counted, not forwarded
    }
    if (positive) {
      ++positive_;
    } else {
      ++negative_;
    }
    inner_.OnMatch(positive, m);
  }

  void EndInitPhase() { init_phase_ = false; }

  uint64_t initial() const { return initial_; }
  uint64_t positive() const { return positive_; }
  uint64_t negative() const { return negative_; }

 private:
  MatchSink& inner_;
  bool init_phase_ = true;
  uint64_t initial_ = 0;
  uint64_t positive_ = 0;
  uint64_t negative_ = 0;
};

}  // namespace

double MeasureGraphUpdateSeconds(const Graph& g0, const UpdateStream& stream) {
  Graph g = g0;
  Stopwatch watch;
  ApplyStream(g, stream);
  return watch.ElapsedSeconds();
}

RunResult RunContinuous(ContinuousEngine& engine, const QueryGraph& q,
                        const Graph& g0, const UpdateStream& stream,
                        MatchSink& sink, const RunOptions& options) {
  RunResult result;

  bool has_deletion = false;
  for (const UpdateOp& op : stream) has_deletion |= !op.IsInsert();
  if (has_deletion && !engine.SupportsDeletion()) {
    result.unsupported = true;
    return result;
  }

  Deadline deadline = options.timeout_ms > 0
                          ? Deadline::AfterMillis(options.timeout_ms)
                          : Deadline::Infinite();

  PhaseSink phase_sink(sink);

  Stopwatch init_watch;
  if (!engine.Init(q, g0, phase_sink, deadline)) {
    result.timed_out = true;
    result.init_seconds = init_watch.ElapsedSeconds();
    return result;
  }
  result.init_seconds = init_watch.ElapsedSeconds();
  result.initial_matches = phase_sink.initial();
  phase_sink.EndInitPhase();
  engine.ResetPeakIntermediate();
  result.peak_intermediate = engine.IntermediateSize();

  // Run-level latency distributions, recorded directly into HistogramData:
  // this loop is not an engine hot path, so collection is a runtime choice
  // (works the same in TFX_STATS=0 builds).
  const bool collect = options.collect_stats;
  obs::HistogramData op_latency;

  auto build_snapshot = [&]() {
    obs::StatsSnapshot s;
    s.AddCounter("run.processed_ops", result.processed_ops);
    s.AddCounter("run.initial_matches", result.initial_matches);
    s.AddCounter("run.positive_matches", phase_sink.positive());
    s.AddCounter("run.negative_matches", phase_sink.negative());
    s.AddCounter("run.peak_intermediate", result.peak_intermediate);
    s.AddCounter("run.current_intermediate", engine.IntermediateSize());
    if (op_latency.count > 0) s.AddHistogram("run.op_latency_ns", op_latency);
    if (const obs::EngineStats* es = engine.engine_stats()) {
      es->AppendTo(s, "engine.");
    }
    return s;
  };
  const uint64_t every =
      options.stats_every > 0 && options.stats_sink != nullptr && collect
          ? static_cast<uint64_t>(options.stats_every)
          : 0;
  uint64_t next_emit = every;
  auto maybe_emit = [&]() {
    if (every == 0 || result.processed_ops < next_emit) return;
    *options.stats_sink << build_snapshot().ToJson() << "\n";
    while (next_emit <= result.processed_ops) next_emit += every;
  };

  Stopwatch stream_watch;
  for (const UpdateOp& op : stream) {
    Stopwatch op_watch;
    if (!engine.ApplyUpdate(op, phase_sink, deadline)) {
      result.timed_out = true;
      break;
    }
    if (collect) op_latency.RecordSeconds(op_watch.ElapsedSeconds());
    ++result.processed_ops;
    result.peak_intermediate =
        std::max(result.peak_intermediate, engine.IntermediateSize());
    maybe_emit();
  }
  result.raw_stream_seconds = stream_watch.ElapsedSeconds();
  result.positive_matches = phase_sink.positive();
  result.negative_matches = phase_sink.negative();
  result.final_intermediate = engine.IntermediateSize();

  result.stream_seconds = result.raw_stream_seconds;
  if (!result.timed_out && options.subtract_graph_update_cost) {
    double base = MeasureGraphUpdateSeconds(g0, stream);
    result.stream_seconds = std::max(0.0, result.raw_stream_seconds - base);
  }
  if (collect) result.stats = build_snapshot();
  return result;
}

}  // namespace turboflux
