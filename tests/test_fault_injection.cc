#include "turboflux/harness/fault_injection.h"

#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/core/turboflux.h"

namespace turboflux {
namespace {

TEST(FaultInjector, DisabledPlanNeverFires) {
  FaultInjector inj(FaultPlan{});
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(inj.ShouldFailOp());
  EXPECT_FALSE(inj.fired());
}

TEST(FaultInjector, FiresExactlyOnceAtTheMarkedOp) {
  FaultPlan plan;
  plan.fail_at_op = 3;
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.ShouldFailOp());
  EXPECT_FALSE(inj.ShouldFailOp());
  EXPECT_TRUE(inj.ShouldFailOp());
  EXPECT_TRUE(inj.fired());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(inj.ShouldFailOp());
}

// The lock-free one-shot trigger fires exactly once even when four
// threads poll it concurrently.
TEST(FaultInjector, OpTriggerIsThreadSafe) {
  FaultPlan plan;
  plan.fail_at_op = 50;
  FaultInjector inj(plan);
  std::atomic<int> fires{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        if (inj.ShouldFailOp()) ++fires;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(fires.load(), 1);
  EXPECT_TRUE(inj.fired());
  EXPECT_EQ(inj.ops_seen(), 400u);
}

// The consumer-batch triggers keep their own counters: polling one from
// four threads fires it exactly once and never trips the others.
TEST(FaultInjector, BatchTriggerIsIndependentAndThreadSafe) {
  FaultPlan plan;
  plan.force_checkpoint_at_batch = 50;
  FaultInjector inj(plan);
  std::atomic<int> fires{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        if (inj.ShouldForceCheckpoint()) ++fires;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(fires.load(), 1);
  EXPECT_FALSE(inj.ShouldStallConsumer());  // stall trigger disabled
  EXPECT_FALSE(inj.ShouldFailOp());         // op trigger disabled
  EXPECT_EQ(inj.ops_seen(), 0u);
}

TEST(CorruptSnapshot, FlipsOneBitInBounds) {
  std::string s = "abcd";
  EXPECT_TRUE(CorruptSnapshot(s, 2));
  EXPECT_EQ(s[0], 'a');
  EXPECT_EQ(s[2], 'c' ^ 0x01);
  EXPECT_TRUE(CorruptSnapshot(s, 2));  // flipping again restores
  EXPECT_EQ(s, "abcd");
}

TEST(CorruptSnapshot, OutOfRangeIsANoOp) {
  std::string s = "ab";
  EXPECT_FALSE(CorruptSnapshot(s, 2));
  EXPECT_FALSE(CorruptSnapshot(s, 12345));
  EXPECT_EQ(s, "ab");
}

// An injected op fault kills the engine without expiring the caller's
// deadline — the signature recovery code uses to tell an injected crash
// from a genuine timeout.
TEST(FaultInjection, InjectedOpFaultKillsEngineButNotDeadline) {
  testutil::RandomCase c = testutil::MakeRandomCase(7, {});
  TurboFluxEngine engine;
  CollectingSink sink;
  ASSERT_TRUE(engine.Init(c.query, c.g0, sink, Deadline::Infinite()));

  FaultPlan plan;
  plan.fail_at_op = 2;
  FaultInjector inj(plan);
  engine.set_fault_injector(&inj);

  Deadline deadline = Deadline::AfterMillis(60'000);
  ASSERT_GE(c.stream.size(), 2u);
  EXPECT_TRUE(engine.ApplyUpdate(c.stream[0], sink, deadline));
  EXPECT_FALSE(engine.dead());
  EXPECT_FALSE(engine.ApplyUpdate(c.stream[1], sink, deadline));
  EXPECT_TRUE(engine.dead());
  EXPECT_TRUE(inj.fired());
  EXPECT_FALSE(deadline.ExpiredNow());

  // A dead engine refuses further work until restored.
  EXPECT_FALSE(engine.ApplyUpdate(c.stream[0], sink, deadline));
  Status st = engine.TryApplyUpdate(c.stream[0], sink, deadline);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(FaultInjection, QuarantineCatchesOutOfRangeOps) {
  testutil::RandomCase c = testutil::MakeRandomCase(11, {});
  TurboFluxEngine engine;
  CollectingSink sink;
  ASSERT_TRUE(engine.Init(c.query, c.g0, sink, Deadline::Infinite()));

  const VertexId bogus = static_cast<VertexId>(c.g0.VertexCount()) + 5;
  Status st = engine.TryApplyUpdate(UpdateOp::Insert(0, 0, bogus), sink,
                                    Deadline::Infinite());
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(engine.dead());
  ASSERT_EQ(engine.quarantine().size(), 1u);
  EXPECT_EQ(engine.quarantine()[0].index, 0u);
  EXPECT_EQ(engine.quarantine()[0].op, UpdateOp::Insert(0, 0, bogus));
  EXPECT_EQ(engine.applied_ops(), 1u);  // consumed as a no-op

  // The engine keeps matching correctly after quarantining.
  for (const UpdateOp& op : c.stream) {
    Status s = engine.TryApplyUpdate(op, sink, Deadline::Infinite());
    EXPECT_FALSE(engine.dead()) << s.ToString();
  }
  EXPECT_EQ(engine.applied_ops(), 1u + c.stream.size());
  EXPECT_TRUE(engine.dcg().Validate().empty());
}

}  // namespace
}  // namespace turboflux
