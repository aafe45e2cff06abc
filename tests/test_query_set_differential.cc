// The QuerySet differential suite: the serving layer's per-query match
// stream must be EXACTLY the stream of an independent TurboFluxEngine per
// query — per query, per op, across cross-query thread counts, batch
// windows, and register/deregister churn.
//
// Reference model: each query gets its own engine, initialized against
// the graph state at its registration point (a mirror graph replayed
// alongside), fed every subsequent op, and frozen at deregistration.
// Shared runtimes (a byte-identical duplicate query is part of every
// scenario) must be externally indistinguishable from separate engines.
// A second case pins the vertex index's skips per runtime: exact per-op
// match order and engine state against an engine fed the label route.
//
// 40 seeds by default; the full 200-seed sweep runs with TFX_LONG_TESTS=1
// (the CI multi-query job sets it).

#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/multi/query_set.h"
#include "turboflux/multi/routing_index.h"

namespace turboflux {
namespace {

bool LongTests() {
  const char* env = std::getenv("TFX_LONG_TESTS");
  return env != nullptr && env[0] == '1';
}

/// Splits a tagged match stream into per-query collecting sinks.
class PerQuerySink : public multi::QuerySet::Sink {
 public:
  void OnMatch(multi::QueryId query, bool positive,
               const Mapping& m) override {
    sinks_[query].OnMatch(positive, m);
  }
  const CollectingSink& of(multi::QueryId q) { return sinks_[q]; }
  void Clear() { sinks_.clear(); }

 private:
  std::map<multi::QueryId, CollectingSink> sinks_;
};

/// One independent reference engine, registered mid-stream against the
/// mirror graph and frozen at deregistration.
struct Reference {
  std::unique_ptr<TurboFluxEngine> engine;
  bool live = true;
};

struct Scenario {
  size_t threads;
  int64_t batch;
};

// Churn schedule over a 30-op stream: two queries up front, one joining
// at op 10, a byte-identical duplicate of query 0 at op 15 (lands in
// query 0's shared runtime mid-stream), and query 0 leaving at op 20.
constexpr size_t kRegisterThirdAt = 10;
constexpr size_t kRegisterDupAt = 15;
constexpr size_t kDeregisterFirstAt = 20;

void RunSeed(uint64_t seed, const Scenario& scenario) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " threads=" + std::to_string(scenario.threads) +
               " batch=" + std::to_string(scenario.batch));

  // One world, several queries: the extra cases only donate their query
  // (the label universes agree by construction).
  testutil::RandomCaseConfig config;
  config.stream_ops = 30;
  testutil::RandomCase world = testutil::MakeRandomCase(seed, config);
  std::vector<QueryGraph> queries = {
      world.query,
      testutil::MakeRandomCase(seed + 1000, config).query,
      testutil::MakeRandomCase(seed + 2000, config).query,
      world.query,  // the duplicate, registered at kRegisterDupAt
  };

  multi::QuerySetOptions options;
  options.threads = scenario.threads;
  multi::QuerySet set(options);
  set.Bind(world.g0);
  Deadline inf = Deadline::Infinite();

  Graph mirror = world.g0;
  std::map<multi::QueryId, Reference> refs;

  auto register_query = [&](size_t query_index) {
    PerQuerySink boot;
    multi::QueryId id = 0;
    ASSERT_TRUE(set.Register(queries[query_index], boot, inf, &id).ok());
    Reference ref;
    ref.engine = std::make_unique<TurboFluxEngine>();
    CollectingSink ref_boot;
    ASSERT_TRUE(
        ref.engine->Init(queries[query_index], mirror, ref_boot, inf));
    // Registration-time bootstrap must equal a fresh engine's initial
    // matches over the graph as of this op.
    EXPECT_TRUE(testutil::SameMatches(ref_boot, boot.of(id)));
    refs.emplace(id, std::move(ref));
  };

  register_query(0);
  register_query(1);
  EXPECT_EQ(set.ValidateVertexIndex(), "");

  const size_t window =
      scenario.batch > 1 ? static_cast<size_t>(scenario.batch) : 1;
  for (size_t i = 0; i < world.stream.size(); i += window) {
    const size_t n = std::min(window, world.stream.size() - i);
    std::span<const UpdateOp> ops(world.stream.data() + i, n);

    PerQuerySink got;
    Status st = set.ApplyBatch(ops, got, inf);
    ASSERT_TRUE(st.ok()) << st.ToString();

    std::map<multi::QueryId, CollectingSink> want;
    for (auto& [id, ref] : refs) {
      for (const UpdateOp& op : ops) {
        if (ref.live) {
          ASSERT_TRUE(ref.engine->ApplyUpdate(op, want[id], inf));
        }
      }
    }
    for (const UpdateOp& op : ops) ApplyUpdate(mirror, op);

    // Per query, per window: exact multiset equality. Deregistered and
    // never-registered ids must stay silent (their `want` is empty).
    for (auto& [id, ref] : refs) {
      EXPECT_TRUE(testutil::SameMatches(want[id], got.of(id)))
          << "query " << id << " window at op " << i;
    }
    EXPECT_EQ(set.ValidateVertexIndex(), "") << "window at op " << i;

    const size_t next_op = i + n;
    if (i < kRegisterThirdAt && next_op >= kRegisterThirdAt) {
      register_query(2);
    }
    if (i < kRegisterDupAt && next_op >= kRegisterDupAt) {
      register_query(3);
    }
    if (i < kDeregisterFirstAt && next_op >= kDeregisterFirstAt) {
      ASSERT_TRUE(set.Deregister(0).ok());
      refs[0].live = false;
    }
    EXPECT_EQ(set.ValidateVertexIndex(), "") << "churn after op " << i;
  }

  // Churn accounting: 4 registrations, 1 deregistration, 3 live.
  EXPECT_EQ(set.QueryCount(), 3u);
  EXPECT_FALSE(set.IsLive(0));
}

TEST(QuerySetDifferential, MatchesIndependentEnginesUnderChurn) {
  const uint64_t seeds = LongTests() ? 200 : 40;
  const std::vector<Scenario> scenarios = {
      {1, 1}, {1, 8}, {4, 1}, {4, 8}};
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    for (const Scenario& scenario : scenarios) {
      RunSeed(seed, scenario);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Per-op match sequences must agree in order, not just as multisets.
::testing::AssertionResult SameSequence(const CollectingSink& want,
                                        const CollectingSink& got) {
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << want.size() << " matches wanted, " << got.size() << " got";
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const CollectingSink::Record& a = want.records()[i];
    const CollectingSink::Record& b = got.records()[i];
    if (a.positive != b.positive || a.mapping != b.mapping) {
      return ::testing::AssertionFailure()
             << "match " << i << " differs: " << MappingToString(a.mapping)
             << " vs " << MappingToString(b.mapping);
    }
  }
  return ::testing::AssertionSuccess();
}

/// One seed of the skip differential: three queries, each in its own
/// runtime, over a world large enough for matching-order recomputes.
/// Each query's reference is an engine outside any set, fed exactly the
/// effective ops the label route sends its runtime, so it evaluates the
/// ops the vertex index skips too. The references read a mirror graph in
/// shared-graph mode: a private graph holding only the routed edges
/// would order adjacency differently (deletes swap the last entry into
/// the hole, and the last entry may be an unrouted edge), and adjacency
/// order decides match order. Counts the reference's recomputes that
/// fell on an op the set skipped in `*skipped_recomputes`.
void RunSkipSeed(uint64_t seed, size_t* skipped_recomputes) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  testutil::RandomCaseConfig config;
  config.num_vertices = 80;
  config.initial_edges = 60;
  config.stream_ops = 300;
  config.num_vertex_labels = 2;
  config.deletion_probability = 0.2;
  testutil::RandomCase world = testutil::MakeRandomCase(seed, config);
  const std::vector<QueryGraph> queries = {
      world.query,
      testutil::MakeRandomCase(seed + 1000, config).query,
      testutil::MakeRandomCase(seed + 2000, config).query,
  };

  TurboFluxOptions engine_options;
  engine_options.adjust_interval = 4;  // drift checks inside skip runs
  multi::QuerySetOptions options;
  options.engine = engine_options;
  options.share_identical = false;  // one runtime per query
  multi::QuerySet set(options);
  set.Bind(world.g0);
  Deadline inf = Deadline::Infinite();

  multi::RoutingIndex route;  // the set's label route, recomputed here
  Graph mirror = world.g0;
  std::vector<std::unique_ptr<TurboFluxEngine>> refs;
  for (uint32_t i = 0; i < queries.size(); ++i) {
    PerQuerySink boot;
    multi::QueryId id = 0;
    ASSERT_TRUE(set.Register(queries[i], boot, inf, &id).ok());
    ASSERT_EQ(id, i);
    refs.push_back(std::make_unique<TurboFluxEngine>(engine_options));
    CollectingSink ref_boot;
    ASSERT_TRUE(refs[i]->InitShared(queries[i], &mirror, ref_boot, inf));
    EXPECT_TRUE(SameSequence(ref_boot, boot.of(id)));
    route.Add(i, queries[i]);
  }

  for (size_t k = 0; k < world.stream.size(); ++k) {
    SCOPED_TRACE("op " + std::to_string(k));
    const UpdateOp& op = world.stream[k];
    PerQuerySink got;
    Status st = set.ApplyUpdate(op, got, inf);
    ASSERT_NE(st.code(), StatusCode::kDeadlineExceeded);
    // The shared-graph protocol: insert before evaluating, delete after.
    const bool effective = ValidateOp(mirror, op).ok();
    if (effective) {
      route.Route(op.label, mirror.labels(op.from), mirror.labels(op.to),
                  op.IsInsert());
      if (op.IsInsert()) mirror.AddEdge(op.from, op.label, op.to);
    }
    for (uint32_t i = 0; i < queries.size(); ++i) {
      CollectingSink want;
      if (effective && route.Routed(i)) {
        TurboFluxEngine& ref = *refs[i];
        const bool skipped = !ref.dcg().HasAnyInEdge(op.from) &&
                             !ref.dcg().HasAnyInEdge(op.to);
        const size_t recomputes = ref.matching_order_recomputations();
        ASSERT_TRUE(ref.EvalSharedUpdate(op, want, inf));
        if (skipped) {
          EXPECT_EQ(want.size(), 0u) << "query " << i;
          if (ref.matching_order_recomputations() > recomputes) {
            ++*skipped_recomputes;
          }
        }
      }
      EXPECT_TRUE(SameSequence(want, got.of(i))) << "query " << i;
    }
    if (effective && !op.IsInsert()) {
      mirror.RemoveEdge(op.from, op.label, op.to);
    }

    // Reading an engine catches it up, which ends a skip run: compare
    // only every 16 ops so that runs longer than the interval occur.
    if (k % 16 == 15 || k + 1 == world.stream.size()) {
      for (uint32_t i = 0; i < queries.size(); ++i) {
        const TurboFluxEngine* engine = set.Engine(i);
        ASSERT_NE(engine, nullptr);
        EXPECT_EQ(engine->applied_ops(), refs[i]->applied_ops());
        EXPECT_EQ(engine->matching_order(), refs[i]->matching_order());
        EXPECT_EQ(engine->matching_order_recomputations(),
                  refs[i]->matching_order_recomputations());
      }
      EXPECT_EQ(set.ValidateVertexIndex(), "");
    }
  }
}

TEST(QuerySetDifferential, SkippedRuntimesMatchEnginesFedTheirLabelRoute) {
  const uint64_t seeds = LongTests() ? 200 : 40;
  size_t skipped_recomputes = 0;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    RunSkipSeed(seed, &skipped_recomputes);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The sweep must exercise the lazy drift check, not just skip ops.
  EXPECT_GT(skipped_recomputes, 0u);
}

}  // namespace
}  // namespace turboflux
