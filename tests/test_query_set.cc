// multi::QuerySet unit tests (DESIGN.md §3.10): lifecycle, routing,
// signature sharing, whole-set checkpoint/restore, stats export, and the
// concurrent Register-vs-ApplyUpdate stress (QuerySetSyncStress.* runs
// under TSan in CI). The per-op differential against independent engines
// lives in test_query_set_differential.cc.

#include "turboflux/multi/query_set.h"

#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/multi/routing_index.h"

namespace turboflux {
namespace multi {
namespace {

class RecordingSink : public QuerySet::Sink {
 public:
  void OnMatch(QueryId query, bool positive, const Mapping&) override {
    if (positive) {
      ++positive_[query];
    } else {
      ++negative_[query];
    }
  }

  uint64_t positives(QueryId q) const {
    auto it = positive_.find(q);
    return it == positive_.end() ? 0 : it->second;
  }
  uint64_t negatives(QueryId q) const {
    auto it = negative_.find(q);
    return it == negative_.end() ? 0 : it->second;
  }

 private:
  std::map<QueryId, uint64_t> positive_;
  std::map<QueryId, uint64_t> negative_;
};

/// Collects full per-query match streams for multiset comparison.
class CollectingSetSink : public QuerySet::Sink {
 public:
  void OnMatch(QueryId query, bool positive, const Mapping& m) override {
    sinks_[query].OnMatch(positive, m);
  }
  const CollectingSink& of(QueryId q) { return sinks_[q]; }

 private:
  std::map<QueryId, CollectingSink> sinks_;
};

// Two queries over one A->B->C world: a 2-edge path and a single edge
// (the classic shared-fixture used by the multi-query suites).
struct Fixture {
  QueryGraph path;    // A -0-> B -1-> C
  QueryGraph single;  // B -1-> C
  Graph g0;

  Fixture() {
    QVertexId a = path.AddVertex(LabelSet{0});
    QVertexId b = path.AddVertex(LabelSet{1});
    QVertexId c = path.AddVertex(LabelSet{2});
    path.AddEdge(a, 0, b);
    path.AddEdge(b, 1, c);
    QVertexId b2 = single.AddVertex(LabelSet{1});
    QVertexId c2 = single.AddVertex(LabelSet{2});
    single.AddEdge(b2, 1, c2);
    g0.AddVertex(LabelSet{0});
    g0.AddVertex(LabelSet{1});
    g0.AddVertex(LabelSet{2});
    g0.AddEdge(0, 0, 1);
  }
};

UpdateOp Insert(VertexId from, EdgeLabel label, VertexId to) {
  return UpdateOp::Insert(from, label, to);
}
UpdateOp Delete(VertexId from, EdgeLabel label, VertexId to) {
  return UpdateOp::Delete(from, label, to);
}

TEST(QuerySet, LifecycleRegisterApplyDeregister) {
  Fixture f;
  QuerySet set;
  set.Bind(f.g0);
  RecordingSink sink;
  Deadline inf = Deadline::Infinite();

  QueryId q_path = 0, q_single = 0;
  ASSERT_TRUE(set.Register(f.path, sink, inf, &q_path).ok());
  ASSERT_TRUE(set.Register(f.single, sink, inf, &q_single).ok());
  EXPECT_EQ(q_path, 0u);
  EXPECT_EQ(q_single, 1u);
  EXPECT_EQ(set.QueryCount(), 2u);
  EXPECT_EQ(set.RuntimeCount(), 2u);
  EXPECT_TRUE(set.IsLive(q_path));
  EXPECT_EQ(set.LiveQueries(), (std::vector<QueryId>{0, 1}));

  // 1 -1-> 2 completes the path for q_path and is q_single's whole match.
  ASSERT_TRUE(set.ApplyUpdate(Insert(1, 1, 2), sink, inf).ok());
  EXPECT_EQ(sink.positives(q_path), 1u);
  EXPECT_EQ(sink.positives(q_single), 1u);
  EXPECT_EQ(set.applied_ops(), 1u);

  ASSERT_TRUE(set.Deregister(q_path).ok());
  EXPECT_EQ(set.QueryCount(), 1u);
  EXPECT_FALSE(set.IsLive(q_path));
  EXPECT_FALSE(set.Deregister(q_path).ok());  // already gone
  EXPECT_EQ(set.ValidateVertexIndex(), "");

  // The dead query must see nothing further; the live one still reports.
  ASSERT_TRUE(set.ApplyUpdate(Delete(1, 1, 2), sink, inf).ok());
  EXPECT_EQ(sink.negatives(q_path), 0u);
  EXPECT_EQ(sink.negatives(q_single), 1u);

  // Ids are never reused.
  QueryId q_again = 0;
  ASSERT_TRUE(set.Register(f.path, sink, inf, &q_again).ok());
  EXPECT_EQ(q_again, 2u);
  EXPECT_EQ(set.ValidateVertexIndex(), "");
}

TEST(QuerySet, RegisterAgainstLiveGraphReportsCurrentMatches) {
  Fixture f;
  QuerySet set;
  set.Bind(f.g0);
  RecordingSink sink;
  Deadline inf = Deadline::Infinite();

  // Make the graph already contain the full path, then register: the
  // bootstrap must report the existing match as the initial result.
  QueryId q_single = 0;
  ASSERT_TRUE(set.Register(f.single, sink, inf, &q_single).ok());
  ASSERT_TRUE(set.ApplyUpdate(Insert(1, 1, 2), sink, inf).ok());

  QueryId q_path = 0;
  ASSERT_TRUE(set.Register(f.path, sink, inf, &q_path).ok());
  EXPECT_EQ(sink.positives(q_path), 1u);
}

TEST(QuerySet, RoutingConsultsOnlyAffectedQueries) {
  Fixture f;
  QuerySet set;
  set.Bind(f.g0);
  RecordingSink sink;
  Deadline inf = Deadline::Infinite();

  QueryId q_path = 0, q_single = 0;
  ASSERT_TRUE(set.Register(f.path, sink, inf, &q_path).ok());
  ASSERT_TRUE(set.Register(f.single, sink, inf, &q_single).ok());

  // Label-0 edges can only affect the path query (q_single has only a
  // label-1 edge); label-1 edges affect both. g0 already holds 0-0->1,
  // so delete it (a real, consumed label-0 op).
  ASSERT_TRUE(set.ApplyUpdate(Delete(0, 0, 1), sink, inf).ok());
  EXPECT_EQ(set.Costs(q_path).routed_ops, 1u);
  EXPECT_EQ(set.Costs(q_single).routed_ops, 0u);
  EXPECT_EQ(set.ConsultedEvals(), 1u);

  ASSERT_TRUE(set.ApplyUpdate(Insert(1, 1, 2), sink, inf).ok());
  EXPECT_EQ(set.Costs(q_path).routed_ops, 2u);
  EXPECT_EQ(set.Costs(q_single).routed_ops, 1u);
  EXPECT_EQ(set.ConsultedEvals(), 3u);

  // The naive fan-out would have consulted 2 queries x 2 ops = 4.
  EXPECT_LT(set.ConsultedEvals(), 4u);
}

TEST(QuerySet, SharesSignatureIdenticalQueries) {
  Fixture f;
  QuerySet set;
  set.Bind(f.g0);
  RecordingSink sink;
  Deadline inf = Deadline::Infinite();

  QueryId a = 0, b = 0;
  ASSERT_TRUE(set.Register(f.single, sink, inf, &a).ok());
  ASSERT_TRUE(set.Register(f.single, sink, inf, &b).ok());
  EXPECT_EQ(set.QueryCount(), 2u);
  EXPECT_EQ(set.RuntimeCount(), 1u);  // one engine serves both

  // Every match is reported once per member.
  ASSERT_TRUE(set.ApplyUpdate(Insert(1, 1, 2), sink, inf).ok());
  EXPECT_EQ(sink.positives(a), 1u);
  EXPECT_EQ(sink.positives(b), 1u);

  // The runtime survives the first member's exit, not the second's.
  ASSERT_TRUE(set.Deregister(a).ok());
  EXPECT_EQ(set.RuntimeCount(), 1u);
  ASSERT_TRUE(set.Deregister(b).ok());
  EXPECT_EQ(set.RuntimeCount(), 0u);
  EXPECT_EQ(set.IntermediateSize(), 0u);
}

TEST(QuerySet, SharingDisabledKeepsRuntimesSeparate) {
  Fixture f;
  QuerySetOptions options;
  options.share_identical = false;
  QuerySet set(options);
  set.Bind(f.g0);
  RecordingSink sink;
  Deadline inf = Deadline::Infinite();

  QueryId a = 0, b = 0;
  ASSERT_TRUE(set.Register(f.single, sink, inf, &a).ok());
  ASSERT_TRUE(set.Register(f.single, sink, inf, &b).ok());
  EXPECT_EQ(set.RuntimeCount(), 2u);
}

TEST(QuerySet, NoopAndQuarantineStatusClasses) {
  Fixture f;
  QuerySet set;
  set.Bind(f.g0);
  RecordingSink sink;
  Deadline inf = Deadline::Infinite();
  QueryId q = 0;
  ASSERT_TRUE(set.Register(f.single, sink, inf, &q).ok());

  // Duplicate insertion: consumed, graph unchanged, nothing evaluated.
  EXPECT_EQ(set.ApplyUpdate(Insert(1, 1, 2), sink, inf).code(),
            StatusCode::kOk);
  EXPECT_EQ(set.ApplyUpdate(Insert(1, 1, 2), sink, inf).code(),
            StatusCode::kFailedPrecondition);
  // Absent deletion: consumed no-op.
  EXPECT_EQ(set.ApplyUpdate(Delete(2, 1, 0), sink, inf).code(),
            StatusCode::kNotFound);
  // Out-of-range endpoint: quarantined, consumed.
  EXPECT_EQ(set.ApplyUpdate(Insert(99, 0, 1), sink, inf).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(set.applied_ops(), 4u);
  EXPECT_FALSE(set.dead());
}

TEST(QuerySet, ExpiredDeadlineKillsSetWithoutConsumingOp) {
  Fixture f;
  QuerySet set;
  set.Bind(f.g0);
  RecordingSink sink;
  Deadline inf = Deadline::Infinite();
  QueryId q = 0;
  ASSERT_TRUE(set.Register(f.single, sink, inf, &q).ok());

  Deadline expired = Deadline::AfterMillis(-1);
  Status st = set.ApplyUpdate(Insert(1, 1, 2), sink, expired);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(set.dead());
  EXPECT_EQ(set.applied_ops(), 0u);  // the op was not consumed
  EXPECT_EQ(sink.positives(q), 0u);  // and nothing was flushed

  // A dead set refuses further work until Restore.
  EXPECT_EQ(set.ApplyUpdate(Insert(1, 1, 2), sink, inf).code(),
            StatusCode::kFailedPrecondition);
}

// The label route reaches the path query with (3 -1-> 4), but neither
// endpoint has a DCG in-edge there (3 has no A-labelled parent), so the
// vertex index evaluates no runtime. The deadline must still be polled:
// the set dies, the op is not consumed and nothing is flushed.
TEST(QuerySet, ExpiredDeadlineKillsSetWhenIndexSkipsEveryRuntime) {
  Fixture f;
  Graph g0 = f.g0;
  const VertexId b = g0.AddVertex(LabelSet{1});  // 3
  const VertexId c = g0.AddVertex(LabelSet{2});  // 4
  // Two label-1 edges make A -0-> B the path's most selective edge, so
  // the tree is rooted at A and only A vertices start out active.
  const VertexId b2 = g0.AddVertex(LabelSet{1});
  const VertexId c2 = g0.AddVertex(LabelSet{2});
  g0.AddEdge(b2, 1, c2);
  g0.AddEdge(b, 1, c2);
  Deadline inf = Deadline::Infinite();

  // The premise, on a twin set with no deadline: routed, not evaluated.
  {
    QuerySet twin;
    twin.Bind(g0);
    RecordingSink sink;
    QueryId q = 0;
    ASSERT_TRUE(twin.Register(f.path, sink, inf, &q).ok());
    ASSERT_TRUE(twin.ApplyUpdate(Insert(b, 1, c), sink, inf).ok());
    ASSERT_EQ(twin.RoutedEvals(), 1u);
    ASSERT_EQ(twin.ConsultedEvals(), 0u);
  }

  QuerySet set;
  set.Bind(g0);
  RecordingSink sink;
  QueryId q = 0;
  ASSERT_TRUE(set.Register(f.path, sink, inf, &q).ok());
  Deadline expired = Deadline::AfterMillis(-1);
  Status st = set.ApplyUpdate(Insert(b, 1, c), sink, expired);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(set.dead());
  EXPECT_EQ(set.applied_ops(), 0u);
  EXPECT_EQ(set.ConsultedEvals(), 0u);
  EXPECT_EQ(sink.positives(q), 0u);

  // An op the label route sends nowhere never polls it: a label-2 edge
  // matches no query edge.
  QuerySet quiet;
  quiet.Bind(g0);
  ASSERT_TRUE(quiet.Register(f.path, sink, inf, &q).ok());
  EXPECT_TRUE(quiet.ApplyUpdate(Insert(b, 2, c), sink, expired).ok());
  EXPECT_FALSE(quiet.dead());
}

TEST(QuerySet, CheckpointRestoreRoundTrip) {
  Fixture f;
  QuerySet set;
  set.Bind(f.g0);
  CollectingSetSink stream_a;
  Deadline inf = Deadline::Infinite();

  QueryId q_path = 0, q_single = 0, q_dup = 0;
  ASSERT_TRUE(set.Register(f.path, stream_a, inf, &q_path).ok());
  ASSERT_TRUE(set.Register(f.single, stream_a, inf, &q_single).ok());
  ASSERT_TRUE(set.Register(f.single, stream_a, inf, &q_dup).ok());
  ASSERT_TRUE(set.ApplyUpdate(Insert(1, 1, 2), stream_a, inf).ok());
  ASSERT_TRUE(set.Deregister(q_single).ok());

  std::stringstream snapshot;
  ASSERT_TRUE(set.Checkpoint(snapshot).ok());

  QuerySet restored;
  ASSERT_TRUE(restored.Restore(snapshot).ok());
  EXPECT_EQ(restored.ValidateVertexIndex(), "");
  EXPECT_EQ(restored.QueryCount(), set.QueryCount());
  EXPECT_EQ(restored.RuntimeCount(), set.RuntimeCount());
  EXPECT_EQ(restored.applied_ops(), set.applied_ops());
  EXPECT_EQ(restored.IntermediateSize(), set.IntermediateSize());
  EXPECT_EQ(restored.LiveQueries(), set.LiveQueries());
  EXPECT_EQ(restored.Costs(q_dup).matches_positive,
            set.Costs(q_dup).matches_positive);

  // Both copies must report identical per-query matches from here on.
  CollectingSetSink tail_a, tail_b;
  std::vector<UpdateOp> tail = {Delete(1, 1, 2), Insert(1, 1, 2)};
  for (const UpdateOp& op : tail) {
    ASSERT_TRUE(set.ApplyUpdate(op, tail_a, inf).ok());
    ASSERT_TRUE(restored.ApplyUpdate(op, tail_b, inf).ok());
  }
  for (QueryId q : set.LiveQueries()) {
    EXPECT_TRUE(testutil::SameMatches(tail_a.of(q), tail_b.of(q)))
        << "query " << q;
  }

  // The restored set is fully live: registration still works.
  RecordingSink more;
  QueryId q_new = 0;
  ASSERT_TRUE(restored.Register(f.path, more, inf, &q_new).ok());
  EXPECT_EQ(q_new, 3u);  // id allocation resumes past the snapshot
}

TEST(QuerySet, RestoreRejectsCorruptSnapshot) {
  Fixture f;
  QuerySet set;
  set.Bind(f.g0);
  RecordingSink sink;
  Deadline inf = Deadline::Infinite();
  QueryId q = 0;
  ASSERT_TRUE(set.Register(f.single, sink, inf, &q).ok());

  std::stringstream snapshot;
  ASSERT_TRUE(set.Checkpoint(snapshot).ok());
  std::string bytes = snapshot.str();
  bytes[bytes.size() / 2] ^= 0x5a;

  QuerySet restored;
  std::stringstream corrupt(bytes);
  EXPECT_FALSE(restored.Restore(corrupt).ok());
  EXPECT_TRUE(restored.dead());
}

TEST(QuerySet, AppendStatsExportsPerQueryAttribution) {
  Fixture f;
  QuerySet set;
  set.Bind(f.g0);
  RecordingSink sink;
  Deadline inf = Deadline::Infinite();

  QueryId q_path = 0, q_single = 0;
  ASSERT_TRUE(set.Register(f.path, sink, inf, &q_path).ok());
  ASSERT_TRUE(set.Register(f.single, sink, inf, &q_single).ok());
  ASSERT_TRUE(set.ApplyUpdate(Delete(0, 0, 1), sink, inf).ok());
  ASSERT_TRUE(set.ApplyUpdate(Insert(1, 1, 2), sink, inf).ok());

  obs::StatsSnapshot snap;
  set.AppendStats(snap);
  EXPECT_EQ(snap.Value("queryset.ops"), 2u);
  EXPECT_EQ(snap.Value("queryset.queries_live"), 2u);
  EXPECT_EQ(snap.Value("queryset.q0.routed_ops"), 2u);
  EXPECT_EQ(snap.Value("queryset.q1.routed_ops"), 1u);
  // routed_ops counts what the label route sent; consulted_evals only the
  // runtimes the vertex index then evaluated (here every routed one).
  EXPECT_EQ(snap.Value("queryset.routed_evals"),
            snap.Value("queryset.q0.routed_ops") +
                snap.Value("queryset.q1.routed_ops"));
  EXPECT_LE(snap.Value("queryset.consulted_evals"),
            snap.Value("queryset.routed_evals"));
  EXPECT_EQ(snap.Value("queryset.consulted_evals"), 3u);
  // Engine counters ride along under the runtime's lowest member id; the
  // shared graph's layout gauges are exported once, for the set.
  EXPECT_GT(snap.Value("queryset.q0.engine.ops_insert"), 0u);
  EXPECT_TRUE(snap.Has("queryset.graph.adj_bytes"));
  EXPECT_FALSE(snap.Has("queryset.q0.engine.graph.adj_bytes"));
  if (obs::kStatsCompiled) {
    EXPECT_GT(snap.Value("queryset.graph.adj_bytes"), 0u);
  }
}

TEST(RoutingIndex, WildcardAndLabeledProbesAreSound) {
  // q_path's edges: (label 0, {0} -> {1}) and (label 1, {1} -> {2}).
  Fixture f;
  RoutingIndex index;
  index.Add(7, f.path);

  EXPECT_EQ(index.Route(0, LabelSet{0}, LabelSet{1}, true), 1u);
  EXPECT_TRUE(index.Routed(7));
  EXPECT_EQ(index.Route(1, LabelSet{1}, LabelSet{2}, false), 1u);
  EXPECT_TRUE(index.Routed(7));
  // Wrong label or wrong endpoint labels: not routed.
  EXPECT_EQ(index.Route(2, LabelSet{0}, LabelSet{1}, true), 0u);
  EXPECT_FALSE(index.Routed(7));
  EXPECT_EQ(index.Route(0, LabelSet{2}, LabelSet{1}, true), 0u);
  EXPECT_FALSE(index.Routed(7));
  // Only the two routed ops were counted, one of them an insertion.
  EXPECT_EQ(index.routed_count(7).ops, 2u);
  EXPECT_EQ(index.routed_count(7).inserts, 1u);

  index.Remove(7, f.path);
  EXPECT_EQ(index.KeyCount(), 0u);
  EXPECT_EQ(index.Route(0, LabelSet{0}, LabelSet{1}, true), 0u);
  // Re-adding the slot starts its count over.
  index.Add(7, f.path);
  EXPECT_EQ(index.routed_count(7).ops, 0u);
}

TEST(RoutingIndex, VertexIndexCandidatesAreTheRoutedUnionAscending) {
  Fixture f;
  RoutingIndex route;
  route.Add(1, f.single);
  route.Add(2, f.single);
  route.Add(5, f.path);
  VertexIndex index;
  index.Reset(3);
  index.Add(1, 5);
  index.Add(1, 2);
  index.Add(2, 2);
  index.Add(2, 1);
  index.Add(0, 3);  // slot 3 is not routed below
  EXPECT_EQ(index.Slots(1), (std::vector<uint32_t>{2, 5}));

  std::vector<uint32_t> out;
  ASSERT_EQ(route.Route(1, LabelSet{1}, LabelSet{2}, true), 3u);
  index.Candidates(1, 2, route, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 2, 5}));
  index.Candidates(0, 0, route, &out);
  EXPECT_TRUE(out.empty());
  index.Candidates(2, 2, route, &out);  // a self-loop lists each slot once
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 2}));

  index.Remove(1, 5);
  index.Remove(1, 9);  // absent: a no-op
  index.Candidates(1, 0, route, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{2}));
}

// Concurrent Register/Deregister against a running update loop. All
// public methods serialize on the internal mutex; this is the TSan target
// (CI runs --gtest_filter including QuerySetSyncStress.*).
TEST(QuerySetSyncStress, ConcurrentRegistrationAndEvaluation) {
  Fixture f;
  QuerySetOptions options;
  options.threads = 2;  // exercise the pool under churn too
  QuerySet set(options);
  set.Bind(f.g0);
  RecordingSink sink;
  Deadline inf = Deadline::Infinite();

  QueryId seed_id = 0;
  ASSERT_TRUE(set.Register(f.path, sink, inf, &seed_id).ok());

  std::thread updater([&] {
    RecordingSink local;
    for (int i = 0; i < 200; ++i) {
      Status st = set.ApplyUpdate(
          i % 2 == 0 ? Insert(1, 1, 2) : Delete(1, 1, 2), local, inf);
      ASSERT_TRUE(st.ok() || st.code() == StatusCode::kFailedPrecondition);
    }
  });
  std::thread churner([&] {
    RecordingSink local;
    for (int i = 0; i < 50; ++i) {
      QueryId id = 0;
      ASSERT_TRUE(set
                      .Register(i % 2 == 0 ? f.single : f.path, local, inf,
                                &id)
                      .ok());
      ASSERT_TRUE(set.Deregister(id).ok());
    }
  });
  updater.join();
  churner.join();

  EXPECT_FALSE(set.dead());
  EXPECT_EQ(set.applied_ops(), 200u);
  EXPECT_EQ(set.QueryCount(), 1u);  // every churned query was deregistered
  EXPECT_TRUE(set.IsLive(seed_id));
  EXPECT_EQ(set.ValidateVertexIndex(), "");
}

}  // namespace
}  // namespace multi
}  // namespace turboflux
