// Unit tests for the observability primitives (obs/stats.h,
// obs/engine_stats.h): histogram bucketing and percentile math, snapshot
// merge/export, registry reference stability, and the EngineStats
// drain/export helpers. The engine-facing counter *values* are locked
// down separately against the oracle (test_stats_oracle.cc).

#include <cstdint>
#include <limits>
#include <string>

#include "gtest/gtest.h"
#include "turboflux/obs/engine_stats.h"
#include "turboflux/obs/stats.h"

namespace turboflux {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// HistogramData

TEST(Histogram, BucketIndexIsBitWidth) {
  // Bucket 0 holds the value 0; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(HistogramData::BucketIndex(0), 0u);
  EXPECT_EQ(HistogramData::BucketIndex(1), 1u);
  EXPECT_EQ(HistogramData::BucketIndex(2), 2u);
  EXPECT_EQ(HistogramData::BucketIndex(3), 2u);
  EXPECT_EQ(HistogramData::BucketIndex(4), 3u);
  EXPECT_EQ(HistogramData::BucketIndex(7), 3u);
  EXPECT_EQ(HistogramData::BucketIndex(8), 4u);
  EXPECT_EQ(HistogramData::BucketIndex((uint64_t{1} << 63) - 1), 63u);
  EXPECT_EQ(HistogramData::BucketIndex(uint64_t{1} << 63), 64u);
  EXPECT_EQ(HistogramData::BucketIndex(std::numeric_limits<uint64_t>::max()),
            64u);
}

TEST(Histogram, BucketBoundsMatchBucketIndex) {
  // Every bucket's upper bound must map back into that bucket, and the
  // next value up must not.
  for (size_t i = 0; i < HistogramData::kNumBuckets; ++i) {
    uint64_t ub = HistogramData::BucketUpperBound(i);
    EXPECT_EQ(HistogramData::BucketIndex(ub), i) << "bucket " << i;
    if (ub != std::numeric_limits<uint64_t>::max()) {
      EXPECT_EQ(HistogramData::BucketIndex(ub + 1), i + 1) << "bucket " << i;
    }
  }
  EXPECT_EQ(HistogramData::BucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramData::BucketUpperBound(1), 1u);
  EXPECT_EQ(HistogramData::BucketUpperBound(2), 3u);
  EXPECT_EQ(HistogramData::BucketUpperBound(64),
            std::numeric_limits<uint64_t>::max());
}

TEST(Histogram, RecordTracksCountSumMinMax) {
  HistogramData h;
  EXPECT_EQ(h.count, 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  h.Record(10);
  h.Record(2);
  h.Record(30);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 42u);
  EXPECT_EQ(h.min, 2u);
  EXPECT_EQ(h.max, 30u);
  EXPECT_DOUBLE_EQ(h.Mean(), 14.0);
}

TEST(Histogram, RecordZeroAndHugeValuesNeverClamp) {
  HistogramData h;
  h.Record(0);
  h.Record(std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[64], 1u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, std::numeric_limits<uint64_t>::max());
}

TEST(Histogram, PercentileOfEmptyIsZero) {
  HistogramData h;
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
}

TEST(Histogram, PercentileSingleValueIsExact) {
  // One sample: every quantile clamps to the observed [min, max] = {7}.
  HistogramData h;
  h.Record(7);
  EXPECT_EQ(h.Percentile(0.0), 7u);
  EXPECT_EQ(h.Percentile(0.5), 7u);
  EXPECT_EQ(h.Percentile(1.0), 7u);
}

TEST(Histogram, PercentileOfUniformRange) {
  // 1..100: bucket cumulative counts are 1, 3, 7, 15, 31, 63, 100 at
  // buckets 1..7. Rank 50 lands in bucket 6 (upper bound 63); rank 99 in
  // bucket 7, whose upper bound 127 clamps to the observed max 100.
  HistogramData h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.Percentile(0.50), 63u);
  EXPECT_EQ(h.Percentile(0.95), 100u);
  EXPECT_EQ(h.Percentile(0.99), 100u);
  // p=0 is forced to rank 1, which clamps up to the observed min.
  EXPECT_EQ(h.Percentile(0.0), 1u);
  // The log-bucket over-estimate is bounded by 2x: the true p50 is 50.
  EXPECT_GE(h.Percentile(0.50), 50u);
  EXPECT_LE(h.Percentile(0.50), 100u);
}

TEST(Histogram, PercentileClampsOutOfRangeQuantile) {
  HistogramData h;
  for (uint64_t v = 1; v <= 8; ++v) h.Record(v);
  EXPECT_EQ(h.Percentile(-0.5), h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(1.5), h.Percentile(1.0));
}

TEST(Histogram, MergeCombinesAllFields) {
  HistogramData a, b;
  a.Record(1);
  a.Record(4);
  b.Record(16);
  b.Record(2);
  a.Merge(b);
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(a.sum, 23u);
  EXPECT_EQ(a.min, 1u);
  EXPECT_EQ(a.max, 16u);
  EXPECT_EQ(a.buckets[HistogramData::BucketIndex(16)], 1u);

  // Merging an empty histogram is a no-op (does not clobber min).
  HistogramData empty;
  a.Merge(empty);
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(a.min, 1u);

  // Merging *into* an empty histogram copies min correctly.
  HistogramData c;
  c.Merge(a);
  EXPECT_EQ(c.min, 1u);
  EXPECT_EQ(c.count, 4u);
}

TEST(Histogram, RecordSecondsUsesNanoseconds) {
  HistogramData h;
  h.RecordSeconds(1e-9);   // 1 ns
  h.RecordSeconds(2.5e-6); // 2500 ns
  h.RecordSeconds(-1.0);   // negative clock skew -> recorded as 0
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 2500u);
  EXPECT_EQ(h.sum, 2501u);
}

// ---------------------------------------------------------------------------
// Enabled/Noop metric types

TEST(Metrics, EnabledCounterAndGauge) {
  EnabledCounter c;
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);

  EnabledGauge g;
  g.Set(10);
  g.SetMax(5);  // below current -> no change
  EXPECT_EQ(g.value(), 10u);
  g.SetMax(99);
  EXPECT_EQ(g.value(), 99u);
  g.Set(3);  // Set always overwrites
  EXPECT_EQ(g.value(), 3u);
}

TEST(Metrics, NoopTypesObserveNothing) {
  NoopCounter c;
  c.Inc(1000);
  EXPECT_EQ(c.value(), 0u);
  NoopGauge g;
  g.Set(1000);
  g.SetMax(1000);
  EXPECT_EQ(g.value(), 0u);
  NoopHistogram h;
  h.Record(1000);
  h.RecordSeconds(1.0);
  EXPECT_EQ(h.data().count, 0u);
}

// ---------------------------------------------------------------------------
// StatsSnapshot

StatsSnapshot MakeSnapshot() {
  StatsSnapshot s;
  s.AddCounter("a.ops", 10);
  s.AddCounter("a.errors", 0);
  HistogramData h;
  h.Record(5);
  h.Record(9);
  s.AddHistogram("a.latency_ns", h);
  return s;
}

TEST(Snapshot, LookupByExactName) {
  StatsSnapshot s = MakeSnapshot();
  EXPECT_TRUE(s.Has("a.ops"));
  EXPECT_TRUE(s.Has("a.latency_ns"));
  EXPECT_FALSE(s.Has("a.op"));  // no prefix matching
  EXPECT_EQ(s.Value("a.ops"), 10u);
  EXPECT_EQ(s.Value("missing"), 0u);
  const HistogramData* h = s.FindHistogram("a.latency_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(s.FindHistogram("a.ops"), nullptr);
}

TEST(Snapshot, MergeFromSumsAndAppends) {
  StatsSnapshot a = MakeSnapshot();
  StatsSnapshot b;
  b.AddCounter("a.ops", 5);
  b.AddCounter("b.new", 7);
  HistogramData h;
  h.Record(100);
  b.AddHistogram("a.latency_ns", h);
  b.AddHistogram("b.latency_ns", h);

  a.MergeFrom(b);
  EXPECT_EQ(a.Value("a.ops"), 15u);
  EXPECT_EQ(a.Value("b.new"), 7u);
  EXPECT_EQ(a.FindHistogram("a.latency_ns")->count, 3u);
  EXPECT_EQ(a.FindHistogram("a.latency_ns")->max, 100u);
  ASSERT_NE(a.FindHistogram("b.latency_ns"), nullptr);
  EXPECT_EQ(a.FindHistogram("b.latency_ns")->count, 1u);
}

TEST(Snapshot, MergeFromIsAdditiveUnderSelfMerge) {
  StatsSnapshot a = MakeSnapshot();
  StatsSnapshot copy = a;
  a.MergeFrom(copy);
  EXPECT_EQ(a.Value("a.ops"), 20u);
  EXPECT_EQ(a.FindHistogram("a.latency_ns")->count, 4u);
  EXPECT_EQ(a.counters.size(), copy.counters.size());  // no duplicates
}

TEST(Snapshot, JsonShape) {
  std::string json = MakeSnapshot().ToJson();
  EXPECT_NE(json.find("\"counters\": {"), std::string::npos);
  EXPECT_NE(json.find("\"a.ops\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": {"), std::string::npos);
  EXPECT_NE(json.find("\"a.latency_ns\": {\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"p50\": "), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Snapshot, CsvShape) {
  std::string csv = MakeSnapshot().ToCsv();
  EXPECT_EQ(csv.rfind("metric,value\n", 0), 0u);  // header first
  EXPECT_NE(csv.find("a.ops,10\n"), std::string::npos);
  EXPECT_NE(csv.find("a.latency_ns.count,2\n"), std::string::npos);
  EXPECT_NE(csv.find("a.latency_ns.p99,"), std::string::npos);
  EXPECT_NE(csv.find("a.latency_ns.max,9\n"), std::string::npos);
}

TEST(Snapshot, EmptySnapshotStillRenders) {
  StatsSnapshot s;
  EXPECT_EQ(s.ToJson(), "{\"counters\": {}, \"histograms\": {}}");
  EXPECT_EQ(s.ToCsv(), "metric,value\n");
}

// ---------------------------------------------------------------------------
// StatsRegistry

TEST(Registry, ReferencesSurviveLaterInsertions) {
  StatsRegistry reg;
  Counter& first = reg.GetCounter("scope", "first");
  first.Inc();
  // Insert enough entries to force rebalancing in a node-based map (and
  // reallocation in anything that isn't).
  for (int i = 0; i < 100; ++i) {
    reg.GetCounter("scope", "c" + std::to_string(i)).Inc();
  }
  first.Inc();
  EXPECT_EQ(reg.GetCounter("scope", "first").value(),
            kStatsCompiled ? 2u : 0u);
}

TEST(Registry, SameNameSameMetric) {
  StatsRegistry reg;
  reg.GetCounter("s", "n").Inc();
  reg.GetCounter("s", "n").Inc();
  EXPECT_EQ(&reg.GetCounter("s", "n"), &reg.GetCounter("s", "n"));
  EXPECT_EQ(reg.GetCounter("s", "n").value(), kStatsCompiled ? 2u : 0u);
}

TEST(Registry, SnapshotUsesDottedKeysInOrder) {
  if (!kStatsCompiled) GTEST_SKIP() << "stats compiled out";
  StatsRegistry reg;
  reg.GetCounter("b", "x").Inc(2);
  reg.GetCounter("a", "y").Inc(1);
  reg.GetGauge("a", "g").Set(5);
  reg.GetHistogram("a", "h").Record(3);
  StatsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.Value("a.y"), 1u);
  EXPECT_EQ(s.Value("b.x"), 2u);
  EXPECT_EQ(s.Value("a.g"), 5u);
  ASSERT_NE(s.FindHistogram("a.h"), nullptr);
  // std::map iteration gives name order.
  ASSERT_EQ(s.counters.size(), 3u);
  EXPECT_EQ(s.counters[0].first, "a.y");
  EXPECT_EQ(s.counters[1].first, "b.x");
  EXPECT_EQ(s.counters[2].first, "a.g");  // gauges appended after counters
}

TEST(Registry, DisabledRegistryHandsOutScratchAndSnapshotsEmpty) {
  StatsRegistry reg(/*enabled=*/false);
  reg.GetCounter("s", "n").Inc(10);
  reg.GetHistogram("s", "h").Record(1);
  StatsSnapshot s = reg.Snapshot();
  EXPECT_TRUE(s.counters.empty());
  EXPECT_TRUE(s.histograms.empty());
  // All disabled accessors share the scratch metric.
  EXPECT_EQ(&reg.GetCounter("a", "b"), &reg.GetCounter("c", "d"));
}

TEST(Registry, ResetZeroesEverything) {
  if (!kStatsCompiled) GTEST_SKIP() << "stats compiled out";
  StatsRegistry reg;
  reg.GetCounter("s", "c").Inc(3);
  reg.GetGauge("s", "g").Set(4);
  reg.GetHistogram("s", "h").Record(5);
  reg.Reset();
  StatsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.Value("s.c"), 0u);
  EXPECT_EQ(s.Value("s.g"), 0u);
  EXPECT_EQ(s.FindHistogram("s.h")->count, 0u);
}

// ---------------------------------------------------------------------------
// EngineStats helpers

TEST(EngineStats, AppendToUsesPrefixedNamesAndSkipsEmptyHistograms) {
  if (!kStatsCompiled) GTEST_SKIP() << "stats compiled out";
  EngineStats es;
  es.ops_insert.Inc(7);
  es.dcg.transitions.Inc(3);
  es.graph.adj_bytes.Set(64);

  StatsSnapshot s;
  es.AppendTo(s, "engine.");
  EXPECT_EQ(s.Value("engine.ops_insert"), 7u);
  EXPECT_EQ(s.Value("engine.dcg.transitions"), 3u);
  EXPECT_EQ(s.Value("engine.graph.adj_bytes"), 64u);
  // No samples recorded -> latency histograms are omitted entirely.
  EXPECT_EQ(s.FindHistogram("engine.checkpoint_ns"), nullptr);

  es.checkpoint_seconds.RecordSeconds(0.001);
  StatsSnapshot s2;
  es.AppendTo(s2, "engine.");
  const HistogramData* h = s2.FindHistogram("engine.checkpoint_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
}

TEST(EngineStats, ResetClearsEverythingIncludingNested) {
  if (!kStatsCompiled) GTEST_SKIP() << "stats compiled out";
  EngineStats es;
  es.ops_insert.Inc();
  es.intermediate_size.Set(12);
  es.peak_intermediate.SetMax(20);
  es.dcg.null_to_implicit.Inc();
  es.graph.compactions.Set(3);
  es.restore_seconds.RecordSeconds(0.5);
  es.checkpoint_bytes.Inc(100);

  es.Reset();
  StatsSnapshot s;
  es.AppendTo(s, "");
  for (const auto& [name, value] : s.counters) {
    EXPECT_EQ(value, 0u) << name;
  }
  EXPECT_EQ(s.FindHistogram("restore_ns"), nullptr);
}

}  // namespace
}  // namespace obs
}  // namespace turboflux
