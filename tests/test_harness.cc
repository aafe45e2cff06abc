#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/baseline/sj_tree.h"
#include "turboflux/harness/metrics.h"
#include "turboflux/harness/runner.h"
#include "turboflux/harness/table.h"

namespace turboflux {
namespace {

struct Case {
  QueryGraph q;
  Graph g0;
  UpdateStream stream;
};

Case MakeCase() {
  Case c;
  QVertexId u0 = c.q.AddVertex(LabelSet{0});
  QVertexId u1 = c.q.AddVertex(LabelSet{1});
  c.q.AddEdge(u0, 0, u1);
  c.g0.AddVertex(LabelSet{0});
  c.g0.AddVertex(LabelSet{1});
  c.g0.AddVertex(LabelSet{1});
  c.g0.AddEdge(0, 0, 1);
  c.stream = {UpdateOp::Insert(0, 0, 2), UpdateOp::Delete(0, 0, 1)};
  return c;
}

TEST(Runner, CountsPhasesSeparately) {
  Case c = MakeCase();
  TurboFluxEngine engine;
  CountingSink sink;
  RunOptions options;
  options.subtract_graph_update_cost = false;
  RunResult r = RunContinuous(engine, c.q, c.g0, c.stream, sink, options);
  EXPECT_FALSE(r.timed_out);
  EXPECT_FALSE(r.unsupported);
  EXPECT_EQ(r.initial_matches, 1u);
  EXPECT_EQ(r.positive_matches, 1u);
  EXPECT_EQ(r.negative_matches, 1u);
  EXPECT_EQ(r.processed_ops, 2u);
  EXPECT_GT(r.peak_intermediate, 0u);
  // The sink only sees stream matches.
  EXPECT_EQ(sink.positive(), 1u);
  EXPECT_EQ(sink.negative(), 1u);
}

TEST(Runner, UnsupportedDeletionFlagged) {
  Case c = MakeCase();
  SjTreeEngine engine;
  CountingSink sink;
  RunResult r = RunContinuous(engine, c.q, c.g0, c.stream, sink, RunOptions{});
  EXPECT_TRUE(r.unsupported);
  EXPECT_EQ(r.processed_ops, 0u);
}

TEST(Runner, SubtractsGraphUpdateBaseline) {
  Case c = MakeCase();
  TurboFluxEngine engine;
  CountingSink sink;
  RunOptions options;
  options.subtract_graph_update_cost = true;
  RunResult r = RunContinuous(engine, c.q, c.g0, c.stream, sink, options);
  EXPECT_GE(r.raw_stream_seconds, r.stream_seconds);
  EXPECT_GE(r.stream_seconds, 0.0);
}

TEST(Metrics, AccumulateSkipsTimeoutsAndUnsupported) {
  Aggregate agg = Aggregate0("X");
  RunResult ok;
  ok.stream_seconds = 2.0;
  ok.peak_intermediate = 10;
  ok.positive_matches = 5;
  RunResult timeout;
  timeout.timed_out = true;
  RunResult unsupported;
  unsupported.unsupported = true;
  Accumulate(agg, ok);
  Accumulate(agg, timeout);
  Accumulate(agg, unsupported);
  RunResult ok2;
  ok2.stream_seconds = 4.0;
  ok2.peak_intermediate = 30;
  ok2.negative_matches = 2;
  Accumulate(agg, ok2);
  EXPECT_EQ(agg.completed, 2u);
  EXPECT_EQ(agg.timed_out, 1u);
  EXPECT_EQ(agg.unsupported, 1u);
  EXPECT_DOUBLE_EQ(agg.mean_stream_seconds, 3.0);
  EXPECT_DOUBLE_EQ(agg.mean_peak_intermediate, 20.0);
  EXPECT_EQ(agg.total_positive, 5u);
  EXPECT_EQ(agg.total_negative, 2u);
}

TEST(Metrics, MeanRatioIsGeometric) {
  EXPECT_DOUBLE_EQ(MeanRatio({4.0, 1.0}, {1.0, 4.0}), 1.0);
  EXPECT_NEAR(MeanRatio({8.0}, {2.0}), 4.0, 1e-9);
  EXPECT_EQ(MeanRatio({}, {}), 0.0);
  EXPECT_EQ(MeanRatio({0.0}, {1.0}), 0.0);  // non-positive skipped
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"engine", "time"});
  t.AddRow({"TurboFlux", "1.00ms"});
  t.AddRow({"SJ-Tree", "170.00ms"});
  std::ostringstream out;
  t.Print(out);
  std::string s = out.str();
  EXPECT_NE(s.find("| engine    | time     |"), std::string::npos);
  EXPECT_NE(s.find("| TurboFlux | 1.00ms   |"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::FormatSeconds(0.5e-4), "50.0us");
  EXPECT_EQ(Table::FormatSeconds(0.5), "500.00ms");
  EXPECT_EQ(Table::FormatSeconds(2.5), "2.50s");
  EXPECT_EQ(Table::FormatCount(999), "999");
  EXPECT_EQ(Table::FormatCount(25000), "25.0K");
  EXPECT_EQ(Table::FormatCount(3.2e6), "3.20M");
  EXPECT_EQ(Table::FormatRatio(2.0), "2.00x");
  EXPECT_EQ(Table::FormatRatio(0.0), "n/a");
}

// A peak hit mid-stream must be reported, not just the end-of-stream
// size: an insert spike followed by its deletes drains the DCG back down.
TEST(Runner, PeakIntermediateSeesMidBatchSpike) {
  Case c;
  QVertexId u0 = c.q.AddVertex(LabelSet{0});
  QVertexId u1 = c.q.AddVertex(LabelSet{1});
  c.q.AddEdge(u0, 0, u1);
  c.g0.AddVertex(LabelSet{0});
  for (int i = 0; i < 8; ++i) c.g0.AddVertex(LabelSet{1});
  // Spike: eight inserts grow the DCG, then eight deletes drain it.
  for (VertexId v = 1; v <= 8; ++v) c.stream.push_back(UpdateOp::Insert(0, 0, v));
  for (VertexId v = 1; v <= 8; ++v) c.stream.push_back(UpdateOp::Delete(0, 0, v));

  RunOptions options;
  options.subtract_graph_update_cost = false;
  TurboFluxEngine engine;
  CountingSink sink;
  RunResult r = RunContinuous(engine, c.q, c.g0, c.stream, sink, options);

  EXPECT_FALSE(r.timed_out);
  // The spike grows the DCG by 8 edges above its final (drained) size.
  EXPECT_EQ(r.peak_intermediate, r.final_intermediate + 8);
  EXPECT_EQ(engine.PeakIntermediateSize(), r.peak_intermediate);
}

TEST(Runner, StatsSnapshotCoversRunAndEngineScopes) {
  Case c = MakeCase();
  TurboFluxEngine engine;
  CountingSink sink;
  RunOptions options;
  options.subtract_graph_update_cost = false;
  options.collect_stats = true;
  RunResult r = RunContinuous(engine, c.q, c.g0, c.stream, sink, options);
  ASSERT_TRUE(r.stats.has_value());
  const obs::StatsSnapshot& s = *r.stats;
  // run.* metrics mirror the RunResult fields and work in every build.
  EXPECT_EQ(s.Value("run.processed_ops"), r.processed_ops);
  EXPECT_EQ(s.Value("run.initial_matches"), r.initial_matches);
  EXPECT_EQ(s.Value("run.positive_matches"), r.positive_matches);
  EXPECT_EQ(s.Value("run.negative_matches"), r.negative_matches);
  EXPECT_EQ(s.Value("run.peak_intermediate"), r.peak_intermediate);
  const obs::HistogramData* lat = s.FindHistogram("run.op_latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, r.processed_ops);
  // engine.* metrics exist whenever the counters are compiled in.
  if (obs::kStatsCompiled) {
    EXPECT_TRUE(s.Has("engine.ops_insert"));
    EXPECT_GT(s.Value("engine.dcg.transitions"), 0u);
    EXPECT_EQ(s.Value("engine.intermediate_size"), r.final_intermediate);
  }
}

TEST(Runner, PeriodicStatsEmitSelfContainedJsonLines) {
  Case c = MakeCase();
  TurboFluxEngine engine;
  CountingSink sink;
  std::ostringstream lines;
  RunOptions options;
  options.subtract_graph_update_cost = false;
  options.collect_stats = true;
  options.stats_every = 1;
  options.stats_sink = &lines;
  RunResult r = RunContinuous(engine, c.q, c.g0, c.stream, sink, options);
  EXPECT_EQ(r.processed_ops, 2u);
  std::istringstream in(lines.str());
  std::string line;
  size_t n = 0;
  while (std::getline(in, line)) {
    ++n;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"run.processed_ops\": "), std::string::npos);
  }
  EXPECT_EQ(n, 2u);  // one line per op at stats_every=1
}

TEST(Runner, TimeoutProducesTimedOutResult) {
  Case c = MakeCase();
  // Enough work that a 0ms-ish deadline trips during Init or stream.
  for (int i = 0; i < 200; ++i) {
    c.g0.AddVertex(LabelSet{1});
  }
  TurboFluxEngine engine;
  CountingSink sink;
  RunOptions options;
  options.timeout_ms = -1;  // <=0 means unlimited, so this must pass
  RunResult r = RunContinuous(engine, c.q, c.g0, c.stream, sink, options);
  EXPECT_FALSE(r.timed_out);
}

}  // namespace
}  // namespace turboflux
