// Deadline under concurrency (QuerySet's cross-query fan-out polls one
// shared deadline from every EvalRouted worker) plus the set's
// cut-short-batch semantics: when a deadline expires mid-batch,
// QuerySet::ApplyBatch must return kDeadlineExceeded, report exactly the
// matches of the ops it consumed (whole ops, in stream order), and leave
// the set dead to further updates.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/common/deadline.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/multi/query_set.h"

namespace turboflux {
namespace {

using testutil::MakeRandomCase;
using testutil::RandomCase;
using testutil::RandomCaseConfig;

RandomCaseConfig TreeConfig() {
  RandomCaseConfig config;
  config.num_vertices = 9;
  config.num_vertex_labels = 3;
  config.num_edge_labels = 2;
  config.initial_edges = 14;
  config.stream_ops = 40;
  config.query_vertices = 4;
  config.query_edges = 3;
  return config;
}

TEST(DeadlineConcurrent, InfiniteNeverExpiresUnderContention) {
  Deadline d = Deadline::Infinite();
  std::vector<std::thread> threads;
  std::atomic<bool> any_expired{false};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100000; ++i) {
        if (d.Expired()) any_expired = true;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(any_expired.load());
}

TEST(DeadlineConcurrent, ExpiryIsObservedByAllPollersAndSticks) {
  Deadline d = Deadline::AfterMillis(20);
  std::vector<std::thread> threads;
  std::atomic<int> observed{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      // Each poll increments the shared sample counter; the clock is
      // only consulted every kCheckInterval calls, so spin until the
      // expiry actually becomes visible to this thread.
      while (!d.Expired()) {
      }
      ++observed;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(observed.load(), 4);
  // Sticky: once expired, always expired — no clock re-check that could
  // flip the answer back.
  EXPECT_TRUE(d.Expired());
  EXPECT_TRUE(d.ExpiredNow());
  // Copies made after expiry inherit the flag immediately.
  Deadline copy = d;
  EXPECT_TRUE(copy.Expired());
}

/// One tagged match report, in the order the set flushed it.
struct Tagged {
  multi::QueryId query;
  bool positive;
  Mapping mapping;

  friend bool operator==(const Tagged& a, const Tagged& b) {
    return a.query == b.query && a.positive == b.positive &&
           a.mapping == b.mapping;
  }
};

class TaggedSink : public multi::QuerySet::Sink {
 public:
  void OnMatch(multi::QueryId query, bool positive,
               const Mapping& m) override {
    records.push_back({query, positive, m});
  }
  std::vector<Tagged> records;
};

// Four copies of the case's query on a four-worker set with sharing off,
// so every routed op is evaluated by four runtimes concurrently.
constexpr size_t kCopies = 4;

multi::QuerySetOptions FanOutOptions() {
  multi::QuerySetOptions options;
  options.threads = 4;
  options.share_identical = false;
  return options;
}

void RegisterCopies(multi::QuerySet& set, const RandomCase& c) {
  set.Bind(c.g0);
  TaggedSink init;
  for (size_t q = 0; q < kCopies; ++q) {
    ASSERT_TRUE(
        set.Register(c.query, init, Deadline::Infinite(), nullptr).ok());
  }
}

// Sequentially replays `stream` on one fresh engine and returns, per op,
// what the set must flush for it: the engine's records once per copy,
// copies in id order.
std::vector<std::vector<Tagged>> SequentialPerOp(const RandomCase& c,
                                                 const UpdateStream& stream) {
  TurboFluxEngine seq;
  CountingSink init;
  EXPECT_TRUE(seq.Init(c.query, c.g0, init, Deadline::Infinite()));
  std::vector<std::vector<Tagged>> out;
  for (const UpdateOp& op : stream) {
    CollectingSink sink;
    EXPECT_TRUE(seq.ApplyUpdate(op, sink, Deadline::Infinite()));
    std::vector<Tagged> tagged;
    for (size_t q = 0; q < kCopies; ++q) {
      for (const CollectingSink::Record& r : sink.records()) {
        tagged.push_back(
            {static_cast<multi::QueryId>(q), r.positive, r.mapping});
      }
    }
    out.push_back(std::move(tagged));
  }
  return out;
}

TEST(DeadlineConcurrent, PreExpiredDeadlineCutsBatchToEmptyPrefix) {
  RandomCase c = MakeRandomCase(3, TreeConfig());
  multi::QuerySet set(FanOutOptions());
  RegisterCopies(set, c);

  Deadline d = Deadline::AfterMillis(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  while (!d.Expired()) {
  }
  TaggedSink sink;
  EXPECT_EQ(set.ApplyBatch(c.stream, sink, d).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(sink.records.empty());
  // Only unrouted ops and no-ops ahead of the first evaluation were
  // consumed; the first evaluated op was not.
  EXPECT_LT(set.applied_ops(), c.stream.size());
  // The set is dead after a cut-short batch: further updates refuse.
  EXPECT_TRUE(set.dead());
  EXPECT_EQ(set.ApplyUpdate(c.stream[0], sink, Deadline::Infinite()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(sink.records.empty());
}

TEST(DeadlineConcurrent, MidBatchExpiryReportsWholeOpPrefix) {
  RandomCase c = MakeRandomCase(5, TreeConfig());
  // Lengthen the window (repeats are legal: duplicate inserts and
  // deletes of absent edges are no-ops) so a short deadline can land
  // mid-batch rather than before or after it.
  UpdateStream stream;
  for (int r = 0; r < 8; ++r) {
    for (const UpdateOp& op : c.stream) stream.push_back(op);
  }
  std::vector<std::vector<Tagged>> per_op = SequentialPerOp(c, stream);

  // Whether the deadline fires before, during, or after the batch is
  // timing-dependent; all three outcomes must satisfy the contract.
  multi::QuerySet set(FanOutOptions());
  RegisterCopies(set, c);
  TaggedSink sink;
  Status st = set.ApplyBatch(stream, sink, Deadline::AfterMillis(2));
  if (st.ok()) {
    EXPECT_EQ(set.applied_ops(), stream.size());
  } else {
    EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(set.dead());
    TaggedSink after;
    EXPECT_EQ(set.ApplyUpdate(stream[0], after, Deadline::Infinite()).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_TRUE(after.records.empty());
  }
  // Exactly the records of the consumed ops, whole ops in stream order.
  std::vector<Tagged> want;
  for (size_t i = 0; i < set.applied_ops(); ++i) {
    want.insert(want.end(), per_op[i].begin(), per_op[i].end());
  }
  EXPECT_TRUE(sink.records == want)
      << "reported " << sink.records.size() << " records after "
      << set.applied_ops() << " consumed ops; the sequential prefix has "
      << want.size();
}

}  // namespace
}  // namespace turboflux
