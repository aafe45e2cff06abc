#include "library_run.h"

#include <unistd.h>

#include <algorithm>
#include <string>

#include "turboflux/common/deadline.h"
#include "turboflux/common/match.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/harness/runner.h"
#include "turboflux/match/static_matcher.h"
#include "turboflux/obs/stats.h"

namespace turboflux {
namespace e2e {

namespace {

constexpr size_t kMinPasses = 3;
// A query whose Init and stream take longer than this has its remaining
// ops counted as failed.
constexpr int64_t kQueryDeadlineMs = 60000;

/// What one pass measured.
struct Pass {
  std::vector<QueryCounts> counts;
  double init_s = 0;
  double apply_s = 0;
  uint64_t failed = 0;
};

/// Runs every query once; appends each ApplyUpdate's latency to
/// `latency_ms`.
Pass RunPass(const LibraryPlan& plan, std::vector<double>& latency_ms) {
  Pass pass;
  const UpdateStream& stream = *plan.stream;
  for (const QueryGraph& q : *plan.queries) {
    TurboFluxEngine engine;
    CountingSink sink;
    Deadline deadline = Deadline::AfterMillis(kQueryDeadlineMs);
    const int64_t t0 = NowNs();
    bool ok = engine.Init(q, *plan.g0, sink, deadline);
    pass.init_s += static_cast<double>(NowNs() - t0) / 1e9;
    QueryCounts counts;
    counts.initial = sink.positive();
    sink.Reset();
    size_t applied = 0;
    int64_t apply_ns = 0;
    while (ok && applied < stream.size()) {
      const int64_t t = NowNs();
      ok = engine.ApplyUpdate(stream[applied], sink, deadline);
      const int64_t ns = NowNs() - t;
      apply_ns += ns;
      latency_ms.push_back(static_cast<double>(ns) / 1e6);
      if (ok) ++applied;
    }
    pass.apply_s += static_cast<double>(apply_ns) / 1e9;
    pass.failed += stream.size() - applied;
    counts.positive = sink.positive();
    counts.negative = sink.negative();
    pass.counts.push_back(counts);
  }
  return pass;
}

}  // namespace

Status RunLibraryPasses(const LibraryPlan& plan, LibraryResult* out) {
  const size_t calls = plan.queries->size() * plan.stream->size();
  std::vector<double> latency_ms;
  latency_ms.reserve(calls);
  if (!RestartPeakRss()) return Status::IoError("cannot restart VmHWM");
  const int64_t end_ns = NowNs() + static_cast<int64_t>(plan.seconds * 1e9);
  for (size_t p = 0; p < kMinPasses || NowNs() < end_ns; ++p) {
    latency_ms.clear();
    const Pass pass = RunPass(plan, latency_ms);
    out->attempted += calls;
    out->failed += pass.failed;
    if (pass.failed > 0) {
      return Status::DeadlineExceeded(
          "a query did not finish within " +
          std::to_string(kQueryDeadlineMs / 1000) + " s");
    }
    if (p == 0) {
      out->counts = pass.counts;
    } else if (pass.counts != out->counts) {
      return Status::Corruption("pass " + std::to_string(p + 1) +
                                " reported other match counts than pass 1");
    }
    out->setup_s.push_back(pass.init_s);
    out->ops_s.push_back(static_cast<double>(calls) / pass.apply_s);
    out->p50_ms.push_back(Quantile(latency_ms, 0.50));
    out->p99_ms.push_back(Quantile(latency_ms, 0.99));
    // Later passes repeat the first one's allocations, but how the heap
    // they leave behind is reused varies; the first pass is the same in
    // every run.
    if (p == 0) out->peak_rss_mb = PeakRssMb(::getpid());
  }
  return Status::Ok();
}

Status VerifyLibraryCounts(const LibraryPlan& plan,
                           const std::vector<QueryCounts>& counts) {
  Graph g = *plan.g0;
  ApplyStream(g, *plan.stream);
  for (size_t i = 0; i < plan.queries->size(); ++i) {
    const QueryGraph& q = (*plan.queries)[i];
    const QueryCounts& c = counts[i];
    const uint64_t initial = StaticMatcher(*plan.g0, q, {}).CountAll();
    const uint64_t final_count = StaticMatcher(g, q, {}).CountAll();
    if (initial != c.initial ||
        final_count != c.initial + c.positive - c.negative) {
      return Status::Corruption(
          "query " + std::to_string(i) + ": the engine reported " +
          std::to_string(c.initial) + " initial and +" +
          std::to_string(c.positive) + "/-" + std::to_string(c.negative) +
          " stream matches; StaticMatcher counts " + std::to_string(initial) +
          " on g0 and " + std::to_string(final_count) + " at the end");
    }
  }
  return Status::Ok();
}

Status TracedLibraryPass(const LibraryPlan& plan,
                         const std::string& chrome_trace_path,
                         std::vector<QueryCounts>* counts,
                         std::vector<Metric>* layers) {
  const UpdateStream& stream = *plan.stream;
  Tracer tracer;
  uint64_t states = 0;
  uint64_t seeds = 0;
  uint64_t transitions = 0;
  size_t peak_dcg_edges = 0;
  const int64_t start_ns = NowNs();
  for (size_t qi = 0; qi < plan.queries->size(); ++qi) {
    TurboFluxEngine engine;
    CountingSink sink;
    Deadline deadline = Deadline::AfterMillis(kQueryDeadlineMs);
    bool ok = false;
    {
      ScopedSpan span(tracer, "core.init", qi);
      ok = engine.Init((*plan.queries)[qi], *plan.g0, sink, deadline);
    }
    QueryCounts c;
    c.initial = sink.positive();
    sink.Reset();
    obs::StatsSnapshot before;
    engine.engine_stats()->AppendTo(before, "");
    for (size_t i = 0; ok && i < stream.size(); ++i) {
      ScopedSpan span(tracer, "core.apply", i);
      ok = engine.ApplyUpdate(stream[i], sink, deadline);
    }
    if (!ok) {
      return Status::DeadlineExceeded("query " + std::to_string(qi) +
                                      " did not finish in the traced pass");
    }
    obs::StatsSnapshot after;
    engine.engine_stats()->AppendTo(after, "");
    auto delta = [&](const char* name) {
      return after.Value(name) - before.Value(name);
    };
    states += delta("search_states");
    seeds += delta("search_seeds");
    transitions += delta("dcg.transitions");
    peak_dcg_edges = std::max(peak_dcg_edges, engine.PeakIntermediateSize());
    c.positive = sink.positive();
    c.negative = sink.negative();
    counts->push_back(c);
  }
  double mutate_s = 0;
  {
    ScopedSpan span(tracer, "graph.mutate");
    mutate_s = MeasureGraphUpdateSeconds(*plan.g0, stream);
  }
  const double wall_ns = static_cast<double>(NowNs() - start_ns);

  double init_ns = 0;
  double apply_ns = 0;
  for (const Tracer::Span& s : tracer.spans()) {
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    if (std::string(s.name) == "core.init") init_ns += ns;
    if (std::string(s.name) == "core.apply") apply_ns += ns;
  }
  uint64_t matches = 0;
  for (const QueryCounts& c : *counts) matches += c.positive + c.negative;
  const double queries = static_cast<double>(plan.queries->size());
  const double ops = static_cast<double>(std::max<size_t>(1, stream.size()));
  const double calls = queries * ops;
  // Every engine mutates its own copy of the graph inside ApplyUpdate.
  const double mutate_ns_per_op = mutate_s * 1e9 / ops;
  const std::vector<Metric> metrics = {
      {"graph.mutate_ns_per_op", mutate_ns_per_op, "ns"},
      {"core.eval_ns_per_op", apply_ns / calls - mutate_ns_per_op, "ns"},
      {"core.search_states_per_op", static_cast<double>(states) / calls,
       "states/op"},
      {"core.search_seeds_per_op", static_cast<double>(seeds) / calls,
       "seeds/op"},
      {"core.matches_per_op", static_cast<double>(matches) / calls,
       "matches/op"},
      {"core.dcg_transitions_per_op", static_cast<double>(transitions) / calls,
       "transitions/op"},
      {"core.init_s_per_query", init_ns / queries / 1e9, "s"},
      {"core.peak_dcg_edges", static_cast<double>(peak_dcg_edges), "edges"},
      {"trace.overhead_frac",
       SpanCostNs() * static_cast<double>(tracer.spans().size()) / wall_ns,
       "fraction"},
  };
  layers->insert(layers->end(), metrics.begin(), metrics.end());
  if (!tracer.WriteChromeTrace(chrome_trace_path)) {
    return Status::IoError("cannot write " + chrome_trace_path);
  }
  return Status::Ok();
}

}  // namespace e2e
}  // namespace turboflux
