#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/core/recovery.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/harness/fault_injection.h"

namespace turboflux {
namespace {

bool LongTests() {
  const char* env = std::getenv("TFX_LONG_TESTS");
  return env != nullptr && env[0] == '1';
}

void ExpectSameRecords(const CollectingSink& want, const CollectingSink& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want.records()[i].positive, got.records()[i].positive)
        << what << " record " << i;
    EXPECT_EQ(want.records()[i].mapping, got.records()[i].mapping)
        << what << " record " << i;
  }
}

/// Runs the case uninterrupted through RunResilient; the oracle every
/// faulted run is compared against.
ResilientResult RunOracle(const testutil::RandomCase& c, CollectingSink& sink,
                          std::string* final_dcg) {
  TurboFluxEngine engine;
  ResilientOptions ro;
  ro.checkpoint_every = 10;
  ResilientResult r = RunResilient(engine, c.query, c.g0, c.stream, sink, ro);
  EXPECT_TRUE(r.ok) << r.status.ToString();
  *final_dcg = engine.dcg().ToString();
  return r;
}

/// The recovery property: kill the engine at op `kill_at`, restore from the
/// last checkpoint, replay — the sink must see exactly the records an
/// uninterrupted run delivers, and the final DCG must be byte-identical.
void CheckRecoveryProperty(uint64_t seed, uint64_t kill_at) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " kill_at=" + std::to_string(kill_at));
  testutil::RandomCase c = testutil::MakeRandomCase(seed, {});

  CollectingSink oracle_sink;
  std::string oracle_dcg;
  RunOracle(c, oracle_sink, &oracle_dcg);

  FaultPlan plan;
  plan.fail_at_op = kill_at;
  FaultInjector inj(plan);

  TurboFluxEngine engine;
  ResilientOptions ro;
  ro.checkpoint_every = 10;
  ro.injector = &inj;
  CollectingSink sink;
  ResilientResult r = RunResilient(engine, c.query, c.g0, c.stream, sink, ro);
  ASSERT_TRUE(r.ok) << r.status.ToString();
  EXPECT_EQ(r.ops_consumed, c.stream.size());
  if (kill_at > 0 && kill_at <= c.stream.size()) {
    EXPECT_TRUE(inj.fired());
    EXPECT_GE(r.recoveries, 1u);
  }
  ExpectSameRecords(oracle_sink, sink, "faulted vs oracle");
  EXPECT_EQ(engine.dcg().ToString(), oracle_dcg);
  EXPECT_TRUE(engine.dcg().Validate().empty());
}

// Anchor: the resilient runner with no faults is observationally identical
// to the plain Init + ApplyUpdate loop. Initial matches are counted, not
// forwarded (the RunContinuous convention).
TEST(Recovery, NoFaultMatchesPlainLoop) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    testutil::RandomCase c = testutil::MakeRandomCase(seed, {});

    TurboFluxEngine plain;
    CountingSink init_counter;
    ASSERT_TRUE(plain.Init(c.query, c.g0, init_counter, Deadline::Infinite()));
    CollectingSink plain_sink;
    for (const UpdateOp& op : c.stream) {
      ASSERT_TRUE(plain.ApplyUpdate(op, plain_sink, Deadline::Infinite()));
    }

    CollectingSink sink;
    std::string dcg;
    ResilientResult r = RunOracle(c, sink, &dcg);
    EXPECT_EQ(r.ops_consumed, c.stream.size());
    EXPECT_EQ(r.initial_matches, init_counter.positive());
    EXPECT_EQ(r.recoveries, 0u);
    EXPECT_GE(r.checkpoints, 2u);  // initial + final at minimum
    ExpectSameRecords(plain_sink, sink, "resilient vs plain");
    EXPECT_EQ(dcg, plain.dcg().ToString());
  }
}

// The main randomized sweep over (seed, kill-point) pairs, more under
// TFX_LONG_TESTS=1.
TEST(Recovery, KillRestoreReplayMatchesOracle) {
  const uint64_t seeds = LongTests() ? 20 : 5;
  const std::vector<uint64_t> kills = {1, 3, 7, 12, 20};
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    for (uint64_t kill : kills) CheckRecoveryProperty(seed, kill);
  }
}

// Kill past the end of the stream: the injector never fires and the run is
// just the oracle.
TEST(Recovery, KillPointBeyondStreamIsBenign) {
  CheckRecoveryProperty(/*seed=*/4, /*kill_at=*/10'000);
}

// Malformed ops in the stream are quarantined, not fatal, and recovery
// around a kill point still reaches the oracle of the same dirty stream.
TEST(Recovery, QuarantineAndKillCompose) {
  testutil::RandomCase c = testutil::MakeRandomCase(8, {});
  const VertexId bogus = static_cast<VertexId>(c.g0.VertexCount()) + 9;
  UpdateStream dirty = c.stream;
  dirty.insert(dirty.begin() + 4, UpdateOp::Insert(0, 0, bogus));
  dirty.insert(dirty.begin() + 11, UpdateOp::Delete(bogus, 1, 2));

  CollectingSink oracle_sink;
  std::string oracle_dcg;
  {
    TurboFluxEngine engine;
    ResilientOptions ro;
    ro.checkpoint_every = 7;
    ResilientResult r =
        RunResilient(engine, c.query, c.g0, dirty, oracle_sink, ro);
    ASSERT_TRUE(r.ok) << r.status.ToString();
    EXPECT_EQ(r.quarantined, 2u);
    oracle_dcg = engine.dcg().ToString();
  }

  for (uint64_t kill : {2u, 5u, 13u}) {
    SCOPED_TRACE("kill=" + std::to_string(kill));
    FaultPlan plan;
    plan.fail_at_op = kill;
    FaultInjector inj(plan);
    TurboFluxEngine engine;
    ResilientOptions ro;
    ro.checkpoint_every = 7;
    ro.injector = &inj;
    CollectingSink sink;
    ResilientResult r = RunResilient(engine, c.query, c.g0, dirty, sink, ro);
    ASSERT_TRUE(r.ok) << r.status.ToString();
    // Each quarantined op is reported exactly once despite the replay.
    EXPECT_EQ(r.quarantined, 2u);
    ExpectSameRecords(oracle_sink, sink, "dirty stream recovery");
    EXPECT_EQ(engine.dcg().ToString(), oracle_dcg);
  }
}

// Checkpoint files on disk: a second process-equivalent run restores from
// the file a prior run wrote and resumes where it left off.
TEST(Recovery, RestartFromCheckpointFile) {
  testutil::RandomCase c = testutil::MakeRandomCase(10, {});
  const std::string path = testing::TempDir() + "tfx_recovery_ckpt.bin";

  std::string dcg_after_first;
  {
    TurboFluxEngine engine;
    ResilientOptions ro;
    ro.checkpoint_every = 5;
    ro.checkpoint_path = path;
    CollectingSink sink;
    ResilientResult r = RunResilient(engine, c.query, c.g0, c.stream, sink, ro);
    ASSERT_TRUE(r.ok) << r.status.ToString();
    dcg_after_first = engine.dcg().ToString();
  }
  {
    // Simulated restart: all stream ops were already consumed before the
    // final checkpoint, so the resumed run emits nothing new and lands on
    // the identical DCG.
    TurboFluxEngine engine;
    ResilientOptions ro;
    ro.restore_from = path;
    CollectingSink sink;
    ResilientResult r = RunResilient(engine, c.query, c.g0, c.stream, sink, ro);
    ASSERT_TRUE(r.ok) << r.status.ToString();
    EXPECT_EQ(r.ops_consumed, c.stream.size());
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(engine.dcg().ToString(), dcg_after_first);
  }
  {
    // A corrupted checkpoint file is a clean failure, not a crash.
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      std::ostringstream os;
      os << in.rdbuf();
      bytes = os.str();
    }
    ASSERT_FALSE(bytes.empty());
    ASSERT_TRUE(CorruptSnapshot(bytes, bytes.size() / 2));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    TurboFluxEngine engine;
    ResilientOptions ro;
    ro.restore_from = path;
    CollectingSink sink;
    ResilientResult r = RunResilient(engine, c.query, c.g0, c.stream, sink, ro);
    EXPECT_FALSE(r.ok);
  }
  std::remove(path.c_str());
}

// The checkpoint file is replaced by a rename, never rewritten in place: a
// hard link to the previous file still reads the previous bytes. An
// in-place rewrite would change them, and a kill during it would leave a
// torn snapshot and no intact one to restore from.
TEST(Recovery, CheckpointFileIsReplacedNotRewritten) {
  testutil::RandomCase c = testutil::MakeRandomCase(10, {});
  const std::string path = testing::TempDir() + "tfx_recovery_replace.bin";
  const std::string previous = path + ".previous";
  auto read_file = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  std::remove(previous.c_str());

  {
    // A run over half the stream leaves the previous checkpoint file.
    TurboFluxEngine engine;
    ResilientOptions ro;
    ro.checkpoint_path = path;
    const UpdateStream half(c.stream.begin(),
                            c.stream.begin() + c.stream.size() / 2);
    CollectingSink sink;
    ResilientResult r = RunResilient(engine, c.query, c.g0, half, sink, ro);
    ASSERT_TRUE(r.ok) << r.status.ToString();
  }
  const std::string old_bytes = read_file(path);
  ASSERT_FALSE(old_bytes.empty());
  std::filesystem::create_hard_link(path, previous);

  {
    TurboFluxEngine engine;
    ResilientOptions ro;
    ro.checkpoint_every = 5;
    ro.checkpoint_path = path;
    CollectingSink sink;
    ResilientResult r = RunResilient(engine, c.query, c.g0, c.stream, sink, ro);
    ASSERT_TRUE(r.ok) << r.status.ToString();
  }
  EXPECT_EQ(read_file(previous), old_bytes);
  EXPECT_NE(read_file(path), old_bytes);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  {
    TurboFluxEngine engine;
    ResilientOptions ro;
    ro.restore_from = path;
    CollectingSink sink;
    ResilientResult r = RunResilient(engine, c.query, c.g0, c.stream, sink, ro);
    ASSERT_TRUE(r.ok) << r.status.ToString();
    EXPECT_EQ(r.ops_consumed, c.stream.size());
  }
  std::remove(previous.c_str());
  std::remove(path.c_str());
}

// --- Concurrent checkpoint trigger (ResilientOptions::checkpoint_request,
// ISSUE 8 satellite): an external thread — the ingestion service's timer —
// demands commits at arbitrary points relative to the op flow. The sink
// stream must stay exactly-once regardless of where the commits land.

// Saturated variant: a spinner re-arms the request as fast as scheduling
// allows. On a many-core box nearly every between-ops poll point commits;
// on a single CPU the startup barrier still guarantees at least one
// trigger-driven commit, with a kill thrown in so a request-driven
// snapshot is immediately followed by restore-and-replay.
TEST(Recovery, CheckpointRequestAtEveryOpBoundary) {
  testutil::RandomCase c = testutil::MakeRandomCase(21, {});

  CollectingSink oracle_sink;
  std::string oracle_dcg;
  RunOracle(c, oracle_sink, &oracle_dcg);

  FaultPlan plan;
  plan.fail_at_op = 7;
  FaultInjector inj(plan);

  std::atomic<bool> request{false};
  std::atomic<bool> stop{false};
  std::thread spinner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      request.store(true, std::memory_order_relaxed);
    }
  });
  // The whole run can finish in microseconds — don't start until the
  // spinner is actually scheduled and arming the flag.
  while (!request.load(std::memory_order_relaxed)) {
    std::this_thread::yield();
  }

  TurboFluxEngine engine;
  ResilientOptions ro;
  ro.checkpoint_every = 1000;  // only the external trigger drives commits
  ro.injector = &inj;
  ro.checkpoint_request = &request;
  CollectingSink sink;
  ResilientResult r = RunResilient(engine, c.query, c.g0, c.stream, sink, ro);
  stop.store(true, std::memory_order_relaxed);
  spinner.join();

  ASSERT_TRUE(r.ok) << r.status.ToString();
  EXPECT_EQ(r.ops_consumed, c.stream.size());
  EXPECT_TRUE(inj.fired());
  // checkpoint_every is 1000, so any commit beyond the mandatory initial
  // and final ones came from the external trigger — and the armed flag at
  // the first poll point guarantees at least one.
  EXPECT_GE(r.checkpoints, 3u);
  ExpectSameRecords(oracle_sink, sink, "saturated checkpoint_request");
  EXPECT_EQ(engine.dcg().ToString(), oracle_dcg);
}

// Timer-race variant: a 1 ms timer thread fires the request while the
// runner works through the stream, so commits land at unpredictable op
// boundaries — swept across kill points.
TEST(Recovery, CheckpointRequestTimerRacesKillAndReplay) {
  const std::vector<uint64_t> kills = {1, 5, 12, 20};
  for (uint64_t seed : {31u, 32u}) {
    for (uint64_t kill : kills) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " kill=" + std::to_string(kill));
      testutil::RandomCase c = testutil::MakeRandomCase(seed, {});

      CollectingSink oracle_sink;
      std::string oracle_dcg;
      RunOracle(c, oracle_sink, &oracle_dcg);

      FaultPlan plan;
      plan.fail_at_op = kill;
      FaultInjector inj(plan);

      std::atomic<bool> request{false};
      std::atomic<bool> stop{false};
      std::thread timer([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          request.store(true, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });

      TurboFluxEngine engine;
      ResilientOptions ro;
      ro.checkpoint_every = 10;  // both schedules active at once
      ro.injector = &inj;
      ro.checkpoint_request = &request;
      CollectingSink sink;
      ResilientResult r =
          RunResilient(engine, c.query, c.g0, c.stream, sink, ro);
      stop.store(true, std::memory_order_relaxed);
      timer.join();

      ASSERT_TRUE(r.ok) << r.status.ToString();
      EXPECT_EQ(r.ops_consumed, c.stream.size());
      ExpectSameRecords(oracle_sink, sink, "timer-raced checkpoints");
      EXPECT_EQ(engine.dcg().ToString(), oracle_dcg);
      EXPECT_TRUE(engine.dcg().Validate().empty());
    }
  }
}

}  // namespace
}  // namespace turboflux
