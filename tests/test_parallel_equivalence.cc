// Differential safety net for the threads x batch path that the library
// keeps: multi::QuerySet's cross-query fan-out (QuerySetOptions::threads)
// fed through QuerySet::ApplyBatch windows. Every query's match stream
// must be exactly that of an independent sequential TurboFluxEngine fed
// one ApplyUpdate per op — the same records in the same order — with
// the same shared graph and the same total DCG size after every window,
// for every (threads, batch) combination. The sequential engine is
// itself validated against the oracle in test_oracle_property.cc, so
// equivalence here extends that guarantee to the fan-out path without
// paying the oracle's exponential cost on hundreds of seeds.

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/multi/query_set.h"

namespace turboflux {
namespace {

using testutil::MakeRandomCase;
using testutil::RandomCase;
using testutil::RandomCaseConfig;

// Same generator parameters as test_oracle_property.cc.
RandomCaseConfig TreeConfig() {
  RandomCaseConfig config;
  config.num_vertices = 9;
  config.num_vertex_labels = 3;
  config.num_edge_labels = 2;
  config.initial_edges = 14;
  config.stream_ops = 40;
  config.query_vertices = 4;
  config.query_edges = 3;  // spanning tree only
  return config;
}

RandomCaseConfig CyclicConfig() {
  RandomCaseConfig config = TreeConfig();
  config.query_edges = 5;  // two extra cycle-closing edges
  return config;
}

/// Splits the set's tagged match stream into per-query collecting sinks.
class PerQuerySink : public multi::QuerySet::Sink {
 public:
  void OnMatch(multi::QueryId query, bool positive,
               const Mapping& m) override {
    sinks_[query].OnMatch(positive, m);
  }
  const CollectingSink& of(multi::QueryId q) { return sinks_[q]; }

 private:
  std::map<multi::QueryId, CollectingSink> sinks_;
};

std::string GraphBytes(const Graph& g) {
  std::string out;
  g.Serialize(out);
  return out;
}

// Registers the case's query twice plus two donor queries (same config,
// so the label universes agree) on a `threads`-worker QuerySet, feeds
// `c.stream` to it in windows of `batch` ops and to one sequential
// engine per query one op at a time. Sharing is off, so the copy gets
// its own runtime and every op the case's query can see fans out to at
// least two runtimes. Asserts graph and DCG-size equality after every
// window and exact per-query record order at the end.
void CheckBatchedEquivalence(const RandomCase& c,
                             const RandomCaseConfig& config, size_t threads,
                             size_t batch, uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " threads=" + std::to_string(threads) +
               " batch=" + std::to_string(batch));
  const std::vector<QueryGraph> queries = {
      c.query,
      c.query,
      MakeRandomCase(seed + 1000, config).query,
      MakeRandomCase(seed + 2000, config).query,
  };

  multi::QuerySetOptions options;
  options.threads = threads;
  options.share_identical = false;
  multi::QuerySet set(options);
  set.Bind(c.g0);
  const Deadline inf = Deadline::Infinite();

  PerQuerySink set_sink;
  std::vector<std::unique_ptr<TurboFluxEngine>> seq;
  std::vector<CollectingSink> seq_sinks(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    multi::QueryId id = 0;
    ASSERT_TRUE(set.Register(queries[q], set_sink, inf, &id).ok());
    ASSERT_EQ(id, q);
    seq.push_back(std::make_unique<TurboFluxEngine>());
    ASSERT_TRUE(seq.back()->Init(queries[q], c.g0, seq_sinks[q], inf));
  }

  for (size_t i = 0; i < c.stream.size(); i += batch) {
    const size_t n = std::min(batch, c.stream.size() - i);
    std::span<const UpdateOp> window(c.stream.data() + i, n);
    Status st = set.ApplyBatch(window, set_sink, inf);
    ASSERT_TRUE(st.ok()) << st.ToString();
    size_t dcg_edges = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      for (size_t k = 0; k < n; ++k) {
        ASSERT_TRUE(
            seq[q]->ApplyUpdate(c.stream[i + k], seq_sinks[q], inf));
      }
      dcg_edges += seq[q]->IntermediateSize();
    }
    ASSERT_EQ(set.applied_ops(), i + n);
    ASSERT_EQ(set.IntermediateSize(), dcg_edges)
        << "window@" << i << " q=" << c.query.ToString();
    ASSERT_EQ(GraphBytes(set.graph()), GraphBytes(seq[0]->graph()))
        << "window@" << i;
  }

  // The flush is deterministic, so not just the multiset but the exact
  // report sequence of every query must match its sequential engine.
  for (size_t q = 0; q < queries.size(); ++q) {
    const CollectingSink& got = set_sink.of(static_cast<multi::QueryId>(q));
    ASSERT_EQ(got.size(), seq_sinks[q].size()) << "query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got.records()[i].positive, seq_sinks[q].records()[i].positive)
          << "query " << q << " record#" << i;
      EXPECT_EQ(got.records()[i].mapping, seq_sinks[q].records()[i].mapping)
          << "query " << q << " record#" << i;
    }
  }
}

// (seed, threads, batch) grid over both query shapes.
class ParallelGrid
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t, size_t>> {
};

TEST_P(ParallelGrid, TreeStream) {
  auto [seed, threads, batch] = GetParam();
  RandomCase c = MakeRandomCase(seed, TreeConfig());
  CheckBatchedEquivalence(c, TreeConfig(), threads, batch, seed);
}

TEST_P(ParallelGrid, CyclicStream) {
  auto [seed, threads, batch] = GetParam();
  RandomCase c = MakeRandomCase(seed + 100, CyclicConfig());
  CheckBatchedEquivalence(c, CyclicConfig(), threads, batch, seed + 100);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ParallelGrid,
    ::testing::Combine(::testing::Range<uint64_t>(0, 8),
                       ::testing::Values<size_t>(1, 2, 4),
                       ::testing::Values<size_t>(1, 7, 64)));

// Acceptance sweep: threads=4 / batch=64 over 200 seeds (the grid above
// covers the denser parameter mix on fewer seeds).
class ParallelSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelSweep, Threads4Batch64) {
  const uint64_t seed = GetParam();
  const RandomCaseConfig config = seed < 100 ? TreeConfig() : CyclicConfig();
  RandomCase c = MakeRandomCase(seed, config);
  CheckBatchedEquivalence(c, config, /*threads=*/4, /*batch=*/64, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSweep,
                         ::testing::Range<uint64_t>(0, 200));

// A maximally conflicting op list (every op touches the same hub vertex)
// must still come out identical: every routed runtime sees the same hub
// while the workers evaluate concurrently.
TEST(ParallelConflicts, AllOpsOnOneHub) {
  RandomCase c = MakeRandomCase(7, TreeConfig());
  for (UpdateOp& op : c.stream) op.from = 0;
  CheckBatchedEquivalence(c, TreeConfig(), /*threads=*/4, /*batch=*/64, 7);
}

// Duplicate inserts and insert-then-delete of the same edge inside one
// window: the set consumes the no-ops and applies the rest in order.
TEST(ParallelConflicts, InsertDeleteSameEdgeInOneWindow) {
  RandomCase c = MakeRandomCase(11, TreeConfig());
  UpdateStream dup;
  for (const UpdateOp& op : c.stream) {
    dup.push_back(op);
    if (op.IsInsert()) {
      dup.push_back(op);  // duplicate insert: must be a no-op
      dup.push_back(UpdateOp::Delete(op.from, op.label, op.to));
      dup.push_back(op);  // net effect: edge present
    }
  }
  c.stream = dup;
  CheckBatchedEquivalence(c, TreeConfig(), /*threads=*/4, /*batch=*/64, 11);
}

}  // namespace
}  // namespace turboflux
