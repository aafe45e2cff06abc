// Layout-differential safety net (DESIGN.md §3.11): the CSR-pool `Graph`
// must be observation-equivalent — same adjacency orders, same label-list
// orders, same serialized bytes — to the node-based layout it replaced,
// which `legacy::NodeGraph` preserves verbatim as the oracle. On top of
// the container-level sweep, an engine-level sweep pins checkpoint bytes
// and the match stream against the oracle and a restore round trip, so
// the layout rework cannot leak slab/bucket geometry into anything
// observable. A delete-heavy regression closes the loop on
// the unbounded-tombstone fix: the layout gauges must stay bounded when
// 90% of the graph is torn down.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/common/deadline.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/graph/graph.h"
#include "turboflux/graph/node_graph.h"
#include "turboflux/graph/update_stream.h"
#include "turboflux/obs/engine_stats.h"

namespace turboflux {
namespace {

bool LongTests() {
  const char* env = std::getenv("TFX_LONG_TESTS");
  return env != nullptr && env[0] == '1';
}

// ---------------------------------------------------------------------------
// Container level: Graph vs legacy::NodeGraph under identical mutation tapes.
// ---------------------------------------------------------------------------

void ExpectGraphsEquivalent(const Graph& csr, const legacy::NodeGraph& node,
                            const std::string& context) {
  ASSERT_EQ(csr.VertexCount(), node.VertexCount()) << context;
  ASSERT_EQ(csr.EdgeCount(), node.EdgeCount()) << context;
  for (VertexId v = 0; v < csr.VertexCount(); ++v) {
    // Exact order equality, not multiset equality: adjacency order is
    // observable through match enumeration and the serialized bytes.
    EXPECT_TRUE(csr.OutEdges(v) == Span<AdjEntry>(node.OutEdges(v)))
        << context << " out-adjacency of v" << v;
    EXPECT_TRUE(csr.InEdges(v) == Span<AdjEntry>(node.InEdges(v)))
        << context << " in-adjacency of v" << v;
    for (VertexId w = 0; w < csr.VertexCount(); ++w) {
      EXPECT_TRUE(csr.EdgeLabelsBetween(v, w) ==
                  Span<EdgeLabel>(node.EdgeLabelsBetween(v, w)))
          << context << " labels between v" << v << " and v" << w;
    }
  }
  std::string csr_bytes, node_bytes;
  csr.Serialize(csr_bytes);
  node.Serialize(node_bytes);
  EXPECT_EQ(csr_bytes, node_bytes) << context << " serialized bytes diverge";
  EXPECT_EQ(csr.CheckConsistency(), "") << context;
  EXPECT_EQ(node.CheckConsistency(), "") << context;
}

// One random mutation tape applied to both layouts in lockstep. Phases
// mirror the container fuzzers: grow, churn, then delete-heavy (the
// compaction/shrink triggers must not disturb observable state).
void DifferentialSeed(uint64_t seed, size_t ops) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  std::mt19937_64 rng(seed);
  Graph csr;
  legacy::NodeGraph node;

  const size_t vertices = 12 + rng() % 12;
  for (size_t i = 0; i < vertices; ++i) {
    LabelSet labels{static_cast<Label>(rng() % 3)};
    ASSERT_EQ(csr.AddVertex(labels), node.AddVertex(labels));
  }

  const size_t edge_labels = 1 + rng() % 3;
  for (size_t step = 0; step < ops; ++step) {
    const int phase = static_cast<int>(3 * step / ops);
    const int add_cut = phase == 0 ? 80 : (phase == 1 ? 50 : 10);
    const VertexId from = static_cast<VertexId>(rng() % vertices);
    const VertexId to = static_cast<VertexId>(rng() % vertices);
    const EdgeLabel label = static_cast<EdgeLabel>(rng() % edge_labels);

    if (static_cast<int>(rng() % 100) < add_cut) {
      ASSERT_EQ(csr.AddEdge(from, label, to), node.AddEdge(from, label, to))
          << "step " << step;
    } else {
      ASSERT_EQ(csr.RemoveEdge(from, label, to),
                node.RemoveEdge(from, label, to))
          << "step " << step;
    }
    ASSERT_EQ(csr.HasEdge(from, label, to), node.HasEdge(from, label, to))
        << "step " << step;

    if (step % 50 == 0 || step + 1 == ops) {
      ExpectGraphsEquivalent(csr, node, "step " + std::to_string(step));
    }
  }

  // Round-trip: both layouts rebuild their pair index from the serialized
  // adjacency (label order after a restore follows adjacency order, in
  // the old layout exactly as in the new one), so the restored graphs are
  // compared against each other — and must re-serialize to the original
  // bytes.
  std::string bytes;
  csr.Serialize(bytes);
  bin::Reader csr_reader(bytes);
  Graph restored;
  ASSERT_TRUE(restored.Deserialize(csr_reader).ok());
  bin::Reader node_reader(bytes);
  legacy::NodeGraph node_restored;
  ASSERT_TRUE(node_restored.Deserialize(node_reader).ok());
  ExpectGraphsEquivalent(restored, node_restored, "after round-trip");
  std::string bytes_again;
  restored.Serialize(bytes_again);
  EXPECT_EQ(bytes_again, bytes) << "round-trip bytes diverge";
}

// The 200-seed acceptance sweep. Short mode runs a deterministic slice;
// TFX_LONG_TESTS=1 (the CI sweep jobs) runs all 200.
class LayoutDifferentialSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LayoutDifferentialSweep, GraphMatchesNodeLayoutOracle) {
  const uint64_t seed = GetParam();
  if (!LongTests() && seed % 10 != 0) GTEST_SKIP() << "short mode slice";
  DifferentialSeed(seed, 600);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutDifferentialSweep,
                         ::testing::Range<uint64_t>(0, 200));

// ---------------------------------------------------------------------------
// Engine level: the match stream must equal the oracle's, and the
// checkpoint bytes must survive a restore round trip unchanged.
// ---------------------------------------------------------------------------

testutil::RandomCaseConfig GridConfig() {
  testutil::RandomCaseConfig config;
  config.num_vertices = 9;
  config.num_vertex_labels = 3;
  config.num_edge_labels = 2;
  config.initial_edges = 14;
  config.stream_ops = 40;
  config.query_vertices = 4;
  config.query_edges = 4;  // one cycle-closing edge
  return config;
}

struct EngineRun {
  std::string checkpoint_bytes;
  CollectingSink matches;
};

void RunEngine(const testutil::RandomCase& c, EngineRun& out) {
  TurboFluxEngine engine;
  CountingSink init_sink;
  ASSERT_TRUE(engine.Init(c.query, c.g0, init_sink, Deadline::Infinite()));
  for (const UpdateOp& op : c.stream) {
    ASSERT_TRUE(engine.ApplyUpdate(op, out.matches, Deadline::Infinite()));
  }
  std::ostringstream snapshot;
  ASSERT_TRUE(engine.Checkpoint(snapshot).ok());
  out.checkpoint_bytes = snapshot.str();
}

class LayoutEngineGrid : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LayoutEngineGrid, CheckpointBytesAndCountersStableAcrossGrid) {
  const uint64_t seed = GetParam();
  testutil::RandomCase c = testutil::MakeRandomCase(seed, GridConfig());

  // Ground truth from the oracle net: the sequential run must still match
  // the oracle's stream (the layout rework sits below match semantics).
  CollectingSink oracle_stream;
  uint64_t oracle_initial = 0;
  testutil::OracleEngine oracle;
  ASSERT_TRUE(testutil::RunCase(oracle, c, oracle_stream, &oracle_initial));

  EngineRun reference;
  RunEngine(c, reference);
  ASSERT_TRUE(testutil::SameMatches(reference.matches, oracle_stream))
      << "seed=" << seed;

  // And the reference snapshot restores into an engine whose own
  // checkpoint reproduces the bytes exactly.
  TurboFluxEngine restored;
  std::istringstream in(reference.checkpoint_bytes);
  ASSERT_TRUE(restored.Restore(in).ok());
  std::ostringstream again;
  ASSERT_TRUE(restored.Checkpoint(again).ok());
  EXPECT_EQ(again.str(), reference.checkpoint_bytes) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutEngineGrid,
                         ::testing::Range<uint64_t>(0, 25));

// ---------------------------------------------------------------------------
// Delete-heavy regression: tombstone/dead-slot growth must stay bounded.
// ---------------------------------------------------------------------------

TEST(LayoutMemoryBounds, NinetyPercentDeletionStreamStaysBounded) {
  if (!obs::kStatsCompiled) GTEST_SKIP() << "built with TFX_STATS=0";
  // Dense initial graph, then a stream that deletes 90% of the edges.
  // Before the §3.11 compaction/shrink triggers, adjacency holes and
  // pair-table tombstones pinned the high-water mark; the layout gauges
  // must now track the live size down.
  const size_t kVertices = 160;
  Graph g0;
  std::vector<UpdateOp> inserts;
  for (size_t i = 0; i < kVertices; ++i) g0.AddVertex(LabelSet{0});
  std::mt19937_64 rng(31);
  while (inserts.size() < 12000) {
    const VertexId from = static_cast<VertexId>(rng() % kVertices);
    const VertexId to = static_cast<VertexId>(rng() % kVertices);
    const EdgeLabel label = static_cast<EdgeLabel>(rng() % 2);
    if (from != to) inserts.push_back(UpdateOp::Insert(from, label, to));
  }

  QueryGraph q;
  const QVertexId u0 = q.AddVertex(LabelSet{0});
  const QVertexId u1 = q.AddVertex(LabelSet{1});  // unmatchable: no work
  q.AddEdge(u0, 1, u1);

  TurboFluxEngine engine;
  DiscardSink sink;
  ASSERT_TRUE(engine.Init(q, g0, sink, Deadline::Infinite()));
  for (const UpdateOp& op : inserts) {
    ASSERT_TRUE(engine.ApplyUpdate(op, sink, Deadline::Infinite()));
  }

  const obs::EngineStats* es = engine.engine_stats();
  ASSERT_NE(es, nullptr);
  const uint64_t peak_adj_bytes = es->graph.adj_bytes.value();
  const uint64_t peak_table_bytes = es->graph.pair_table_bytes.value();
  ASSERT_GT(peak_adj_bytes, 0u);

  // Delete 90% of the live edges (every probe the engine sees is real:
  // collect the live edge set first).
  std::vector<UpdateOp> deletes;
  const Graph& g = engine.graph();
  for (VertexId v = 0; v < g.VertexCount(); ++v) {
    for (const AdjEntry& e : g.OutEdges(v)) {
      deletes.push_back(UpdateOp::Delete(v, e.label, e.other));
    }
  }
  const size_t keep = deletes.size() / 10;
  for (size_t i = 0; i < deletes.size() - keep; ++i) {
    ASSERT_TRUE(engine.ApplyUpdate(deletes[i], sink, Deadline::Infinite()));
  }

  // Bounded, via the exported gauges: dead slots may not dwarf the live
  // entries (compaction re-arms every op), and both byte gauges must have
  // come well down off the insert-phase peak.
  const uint64_t live_entries = 2 * engine.graph().EdgeCount();  // out + in
  EXPECT_LE(es->graph.adj_dead_slots.value(), live_entries + 4096)
      << "adjacency holes unbounded under delete-heavy stream";
  EXPECT_LT(es->graph.adj_bytes.value(), peak_adj_bytes / 2)
      << "adjacency slab pinned at high-water mark";
  EXPECT_LT(es->graph.pair_table_bytes.value(), peak_table_bytes / 2)
      << "pair table pinned at high-water mark";
  EXPECT_GT(es->graph.compactions.value(), 0u);
  EXPECT_GT(es->graph.rehashes.value(), 0u);
  EXPECT_EQ(engine.graph().CheckConsistency(), "");
}

}  // namespace
}  // namespace turboflux
