// Metrics-vs-oracle differential suite (DESIGN.md §3.8): every hot-path
// counter the engine exports must EXACTLY equal ground truth recomputed
// independently — op counts from the stream itself, effective updates
// from a bare graph replay, match counts from the OracleEngine, DCG sizes
// from RebuildDcgFromScratch, checkpoint bytes from the snapshot string.
//
// Structure per (seed, config): the oracle and a plain graph replay
// establish ground truth once, and a TurboFlux run is checked against it.
// 2 configs x 25 seeds = 50 seeded cases.

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/common/deadline.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/graph/update_stream.h"
#include "turboflux/obs/engine_stats.h"

namespace turboflux {
namespace {

testutil::RandomCaseConfig TreeConfig() {
  testutil::RandomCaseConfig config;
  config.num_vertices = 9;
  config.num_vertex_labels = 3;
  config.num_edge_labels = 2;
  config.initial_edges = 14;
  config.stream_ops = 40;
  config.query_vertices = 4;
  config.query_edges = 3;
  return config;
}

testutil::RandomCaseConfig CyclicConfig() {
  testutil::RandomCaseConfig config = TreeConfig();
  config.query_edges = 5;
  return config;
}

/// Ground truth recomputed without the engine: stream composition from
/// the ops themselves, effective updates from a bare graph replay, match
/// counts from the oracle.
struct GroundTruth {
  uint64_t ops_insert = 0;
  uint64_t ops_delete = 0;
  uint64_t insert_evals = 0;
  uint64_t delete_evals = 0;
  uint64_t initial_matches = 0;
  uint64_t stream_positive = 0;
  uint64_t stream_negative = 0;
  size_t final_edges = 0;
  CollectingSink oracle_stream;
};

void ComputeGroundTruth(const testutil::RandomCase& c, GroundTruth& gt) {
  for (const UpdateOp& op : c.stream) {
    (op.IsInsert() ? gt.ops_insert : gt.ops_delete) += 1;
  }
  Graph replay = c.g0;
  for (const UpdateOp& op : c.stream) {
    if (ApplyUpdate(replay, op)) {
      (op.IsInsert() ? gt.insert_evals : gt.delete_evals) += 1;
    }
  }
  gt.final_edges = replay.EdgeCount();

  testutil::OracleEngine oracle;
  ASSERT_TRUE(testutil::RunCase(oracle, c, gt.oracle_stream,
                                &gt.initial_matches));
  for (const CollectingSink::Record& r : gt.oracle_stream.records()) {
    (r.positive ? gt.stream_positive : gt.stream_negative) += 1;
  }
}

/// Runs TurboFlux over the case and checks every exported counter
/// against the ground truth.
void RunAndCheck(const testutil::RandomCase& c, const GroundTruth& gt) {
  TurboFluxEngine engine;
  CollectingSink init_sink;
  EXPECT_TRUE(engine.Init(c.query, c.g0, init_sink, Deadline::Infinite()));
  EXPECT_EQ(init_sink.size(), gt.initial_matches);

  CollectingSink stream_sink;
  for (const UpdateOp& op : c.stream) {
    EXPECT_TRUE(engine.ApplyUpdate(op, stream_sink, Deadline::Infinite()));
  }
  EXPECT_TRUE(testutil::SameMatches(stream_sink, gt.oracle_stream));

  const obs::EngineStats* es = engine.engine_stats();
  EXPECT_NE(es, nullptr);

  // Op counters: exactly the stream composition; eval counters: exactly
  // the ops that changed the graph.
  EXPECT_EQ(es->ops_insert.value(), gt.ops_insert);
  EXPECT_EQ(es->ops_delete.value(), gt.ops_delete);
  EXPECT_EQ(es->insert_evals.value(), gt.insert_evals);
  EXPECT_EQ(es->delete_evals.value(), gt.delete_evals);

  // Match counters: TurboFlux reports initial matches through the same
  // Report funnel, so positives include them.
  EXPECT_EQ(es->matches_positive.value(),
            gt.initial_matches + gt.stream_positive);
  EXPECT_EQ(es->matches_negative.value(), gt.stream_negative);

  // Gauges vs the live structure and a from-scratch rebuild.
  EXPECT_EQ(es->intermediate_size.value(), engine.IntermediateSize());
  EXPECT_EQ(engine.RebuildDcgFromScratch().EdgeCount(),
            engine.IntermediateSize());
  EXPECT_GE(es->peak_intermediate.value(), es->intermediate_size.value());
  EXPECT_LE(engine.PeakIntermediateSize(),
            std::max(es->peak_intermediate.value(),
                     static_cast<uint64_t>(engine.IntermediateSize())));

  // DCG transition taxonomy: the five legal transitions partition the
  // total, and stores minus removals is the live edge count.
  const obs::DcgStats& d = es->dcg;
  EXPECT_EQ(d.transitions.value(),
            d.null_to_implicit.value() + d.implicit_to_explicit.value() +
                d.explicit_to_null.value() + d.explicit_to_implicit.value() +
                d.implicit_to_null.value());
  EXPECT_EQ(d.null_to_implicit.value() -
                (d.explicit_to_null.value() + d.implicit_to_null.value()),
            engine.IntermediateSize());

  // Final structure sanity against the bare replay.
  EXPECT_EQ(engine.graph().EdgeCount(), gt.final_edges);
}

class StatsOracle
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(StatsOracle, CountersEqualGroundTruthAcrossThreadsAndBatches) {
  if (!obs::kStatsCompiled) GTEST_SKIP() << "built with TFX_STATS=0";
  const auto [seed, which] = GetParam();
  testutil::RandomCase c = testutil::MakeRandomCase(
      seed, which == 0 ? TreeConfig() : CyclicConfig());
  GroundTruth gt;
  ASSERT_NO_FATAL_FAILURE(ComputeGroundTruth(c, gt));

  RunAndCheck(c, gt);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, StatsOracle,
    ::testing::Combine(::testing::Range<uint64_t>(0, 25),
                       ::testing::Values(0, 1)));

// ---------------------------------------------------------------------------
// Per-op gauge tracking: after *every* op the intermediate_size gauge,
// the live DCG, a from-scratch rebuild, and the transition-count invariant
// must all agree, and the peak gauge must be the running maximum.

class StatsPerOp : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatsPerOp, GaugesTrackEveryOp) {
  if (!obs::kStatsCompiled) GTEST_SKIP() << "built with TFX_STATS=0";
  testutil::RandomCase c = testutil::MakeRandomCase(GetParam(), TreeConfig());
  TurboFluxEngine engine;
  CollectingSink sink;
  ASSERT_TRUE(engine.Init(c.query, c.g0, sink, Deadline::Infinite()));
  const obs::EngineStats* es = engine.engine_stats();
  ASSERT_NE(es, nullptr);
  EXPECT_EQ(es->intermediate_size.value(), engine.IntermediateSize());

  uint64_t expected_peak = engine.IntermediateSize();
  for (const UpdateOp& op : c.stream) {
    ASSERT_TRUE(engine.ApplyUpdate(op, sink, Deadline::Infinite()));
    const uint64_t size = engine.IntermediateSize();
    expected_peak = std::max(expected_peak, size);
    EXPECT_EQ(es->intermediate_size.value(), size);
    EXPECT_EQ(es->peak_intermediate.value(), expected_peak);
    EXPECT_EQ(engine.RebuildDcgFromScratch().EdgeCount(), size);
    EXPECT_EQ(es->dcg.null_to_implicit.value() -
                  (es->dcg.explicit_to_null.value() +
                   es->dcg.implicit_to_null.value()),
              size);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsPerOp,
                         ::testing::Range<uint64_t>(0, 10));

// ---------------------------------------------------------------------------
// Checkpoint/restore byte accounting: counted bytes must equal the actual
// snapshot size, on both ends.

class StatsCheckpoint : public ::testing::Test {};

TEST_F(StatsCheckpoint, CheckpointBytesEqualSnapshotSize) {
  if (!obs::kStatsCompiled) GTEST_SKIP() << "built with TFX_STATS=0";
  testutil::RandomCase c = testutil::MakeRandomCase(3, TreeConfig());
  TurboFluxEngine engine;
  CollectingSink sink;
  ASSERT_TRUE(engine.Init(c.query, c.g0, sink, Deadline::Infinite()));
  for (size_t i = 0; i < c.stream.size() / 2; ++i) {
    ASSERT_TRUE(engine.ApplyUpdate(c.stream[i], sink, Deadline::Infinite()));
  }
  const obs::EngineStats* es = engine.engine_stats();
  ASSERT_NE(es, nullptr);
  EXPECT_EQ(es->checkpoints.value(), 0u);
  EXPECT_EQ(es->checkpoint_bytes.value(), 0u);

  std::ostringstream first;
  ASSERT_TRUE(engine.Checkpoint(first).ok());
  EXPECT_EQ(es->checkpoints.value(), 1u);
  EXPECT_EQ(es->checkpoint_bytes.value(), first.str().size());
  EXPECT_EQ(es->checkpoint_seconds.data().count, 1u);

  // Bytes accumulate across snapshots (it is a Counter, not a Gauge).
  std::ostringstream second;
  ASSERT_TRUE(engine.Checkpoint(second).ok());
  EXPECT_EQ(es->checkpoints.value(), 2u);
  EXPECT_EQ(es->checkpoint_bytes.value(),
            first.str().size() + second.str().size());
}

TEST_F(StatsCheckpoint, RestoreBytesEqualSnapshotSize) {
  if (!obs::kStatsCompiled) GTEST_SKIP() << "built with TFX_STATS=0";
  testutil::RandomCase c = testutil::MakeRandomCase(4, TreeConfig());
  std::string snapshot;
  {
    TurboFluxEngine engine;
    CollectingSink sink;
    ASSERT_TRUE(engine.Init(c.query, c.g0, sink, Deadline::Infinite()));
    for (const UpdateOp& op : c.stream) {
      ASSERT_TRUE(engine.ApplyUpdate(op, sink, Deadline::Infinite()));
    }
    std::ostringstream out;
    ASSERT_TRUE(engine.Checkpoint(out).ok());
    snapshot = out.str();
  }

  TurboFluxEngine restored;
  CollectingSink sink;
  ASSERT_TRUE(restored.Init(c.query, c.g0, sink, Deadline::Infinite()));
  std::istringstream in(snapshot);
  ASSERT_TRUE(restored.Restore(in).ok());
  const obs::EngineStats* es = restored.engine_stats();
  ASSERT_NE(es, nullptr);
  EXPECT_EQ(es->restores.value(), 1u);
  EXPECT_EQ(es->restore_bytes.value(), snapshot.size());
  EXPECT_EQ(es->restore_seconds.data().count, 1u);
  // The gauges must re-point at the restored structure.
  EXPECT_EQ(es->intermediate_size.value(), restored.IntermediateSize());
  EXPECT_GE(es->peak_intermediate.value(), es->intermediate_size.value());
}

TEST_F(StatsCheckpoint, FailedRestoreCountsNothing) {
  if (!obs::kStatsCompiled) GTEST_SKIP() << "built with TFX_STATS=0";
  testutil::RandomCase c = testutil::MakeRandomCase(5, TreeConfig());
  TurboFluxEngine engine;
  CollectingSink sink;
  ASSERT_TRUE(engine.Init(c.query, c.g0, sink, Deadline::Infinite()));
  std::istringstream garbage("not a snapshot");
  ASSERT_FALSE(engine.Restore(garbage).ok());
  const obs::EngineStats* es = engine.engine_stats();
  ASSERT_NE(es, nullptr);
  EXPECT_EQ(es->restores.value(), 0u);
  EXPECT_EQ(es->restore_bytes.value(), 0u);
}

}  // namespace
}  // namespace turboflux
