// Chaos acceptance for the ingestion service (ISSUE 8 tentpole): at
// least 50 seeded kill/restart cycles under live load — hard Kill(),
// torn WAL appends, torn match-log commits, deaths on either side of the
// snapshot rename, forced mid-batch checkpoints, consumer stalls — after
// which the durable match stream must be BYTE-EQUAL to a single-process
// no-fault oracle replay of the same ops. This is the end-to-end pin on
// the S <= W <= J durability protocol (serve/server.h). The schedule runs
// at two snapshot cadences: every few ops, and one no run reaches.

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/common/rng.h"
#include "turboflux/harness/fault_injection.h"
#include "turboflux/multi/query_set.h"
#include "turboflux/serve/server.h"
#include "turboflux/workload/traffic.h"

namespace turboflux {
namespace serve {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("tfx_serve_chaos_" + name + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

class OracleSink : public multi::QuerySet::Sink {
 public:
  void OnMatch(multi::QueryId query, bool positive,
               const Mapping& m) override {
    MatchRecord rec;
    rec.op_index = op_index;
    rec.query = query;
    rec.positive = positive ? 1 : 0;
    rec.mapping = m;
    records.push_back(std::move(rec));
  }

  uint64_t op_index = 0;
  std::vector<MatchRecord> records;
};

/// The ground truth: one process, no faults, the whole stream in order.
std::string OracleCanonicalStream(const testutil::RandomCase& c,
                                  const UpdateStream& ops) {
  multi::QuerySet set;
  set.Bind(c.g0);
  OracleSink sink;
  multi::QueryId id = 0;
  sink.op_index = set.applied_ops();
  EXPECT_TRUE(set.Register(c.query, sink, Deadline::Infinite(), &id).ok());
  for (const UpdateOp& op : ops) {
    sink.op_index = set.applied_ops();
    Status s = set.ApplyUpdate(op, sink, Deadline::Infinite());
    EXPECT_NE(s.code(), StatusCode::kDeadlineExceeded);
  }
  return MatchLog::CanonicalMatchStream(sink.records);
}

/// The per-restart fault rotation. Variant 0 is a plain hard kill (the
/// kill point does the damage); the others arm an injected IO fault that
/// kills the server on its own somewhere past the restart.
FaultPlan PlanForCycle(int cycle, Rng& rng) {
  FaultPlan plan;
  switch (cycle % 6) {
    case 0:
      break;  // hard Kill() only
    case 1:
      plan.wal_torn_at_record = 1 + rng.NextBounded(10);
      break;
    case 2:
      // >= 2 so the match commit of the incarnation's Start() snapshot
      // survives; a later runtime commit tears.
      plan.matchlog_torn_at_commit = 2 + rng.NextBounded(2);
      break;
    case 3:
      plan.die_before_snapshot_rename = 1 + rng.NextBounded(2);
      break;
    case 4:
      plan.die_after_snapshot_rename = 1 + rng.NextBounded(2);
      break;
    case 5:
      plan.force_checkpoint_at_batch = 1 + rng.NextBounded(3);
      plan.stall_consumer_at_batch = 1 + rng.NextBounded(2);
      plan.stall_ms = 10;
      break;
  }
  return plan;
}

/// Runs one full chaos schedule over `ops` at the given snapshot cadence
/// and returns the number of restarts performed. The final durable stream
/// is compared to `oracle`.
int RunChaosSchedule(uint64_t seed, const testutil::RandomCase& c,
                     const UpdateStream& ops, const std::string& oracle,
                     uint64_t checkpoint_every_ops,
                     uint32_t checkpoint_interval_ms) {
  TempDir dir("seed" + std::to_string(seed));
  ServeOptions base;
  base.data_dir = dir.str();
  base.checkpoint_every_ops = checkpoint_every_ops;
  base.checkpoint_interval_ms = checkpoint_interval_ms;
  base.drain_wait_ms = 2;
  base.batch_window = 8;

  Rng rng(seed * 977 + 11);
  const uint64_t total = ops.size();
  int restarts = 0;
  int cycle = 0;

  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<Server> server;
  std::unique_ptr<ServerHandle> handle;

  // Boots an incarnation under `plan`. A Create() failure means the
  // injected fault struck during recovery itself — treat it like one more
  // crash and come back up clean, as an operator would.
  auto boot = [&](bool fresh, FaultPlan plan) -> bool {
    for (int attempt = 0; attempt < 2; ++attempt) {
      injector = std::make_unique<FaultInjector>(plan);
      ServeOptions options = base;
      options.injector = injector.get();
      server.reset();
      Status s = Server::Create(options, fresh ? &c.g0 : nullptr, &server);
      if (s.ok()) break;
      EXPECT_EQ(attempt, 0) << "clean recovery failed: " << s.message();
      if (attempt > 0) return false;
      ++restarts;
      plan = FaultPlan{};  // retry without faults
    }
    if (server == nullptr) return false;
    if (fresh) {
      multi::QueryId id = 0;
      EXPECT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
    }
    server->Start();
    handle = std::make_unique<ServerHandle>(*server, 1);
    return true;
  };

  if (!boot(true, PlanForCycle(cycle, rng))) return restarts;
  uint64_t durable = handle->Resync();
  EXPECT_EQ(durable, 0u);

  // Hard-kill points spread over the stream: every incarnation dies — by
  // its armed fault if it fires first, by Kill() at the next point
  // otherwise — so the restart quota is met no matter which faults trip.
  const int kKillPoints = 5;
  auto kill_at = [&](int k) {
    return total * static_cast<uint64_t>(k + 1) / (kKillPoints + 2);
  };

  auto restart = [&]() -> bool {
    ++restarts;
    ++cycle;
    server.reset();  // joins the (dead) ingest thread
    if (!boot(false, PlanForCycle(cycle, rng))) return false;
    durable = handle->Resync();
    return true;
  };

  while (durable < total) {
    size_t n = std::min<uint64_t>(1 + rng.NextBounded(6), total - durable);
    Response r =
        handle->Submit(std::span<const UpdateOp>(ops.data() + durable, n));
    if (r.kind == Response::Kind::kOk || r.kind == Response::Kind::kDup) {
      durable = r.seq;
      if (cycle < kKillPoints && durable >= kill_at(cycle)) {
        server->Kill();
        if (!restart()) return restarts;
      }
    } else {
      // ERR: the armed fault killed the server (possibly mid-ack).
      EXPECT_EQ(r.kind, Response::Kind::kErr);
      EXPECT_TRUE(server->died());
      if (!restart()) return restarts;
    }
  }

  // Final cycle: come up clean (no armed faults) and shut down
  // gracefully, so the tail of the stream commits.
  server->Kill();
  ++restarts;
  ++cycle;
  server.reset();
  if (!boot(false, FaultPlan{})) return restarts;
  EXPECT_EQ(handle->Resync(), total);
  server->Shutdown();
  EXPECT_FALSE(server->died());

  std::vector<MatchRecord> committed;
  EXPECT_TRUE(server->CommittedMatches(&committed).ok());
  EXPECT_EQ(MatchLog::CanonicalMatchStream(committed), oracle)
      << "durable match stream diverged from the oracle (seed " << seed
      << ")";
  return restarts;
}

/// The 10 seeded schedules at one snapshot cadence.
void RunTenSeeds(uint64_t checkpoint_every_ops,
                 uint32_t checkpoint_interval_ms) {
  int total_restarts = 0;
  int nonempty_oracles = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    testutil::RandomCaseConfig config;
    config.stream_ops = 48;
    testutil::RandomCase c = testutil::MakeRandomCase(7000 + seed, config);

    // Live load = the random case's stream plus an adversarial hot-vertex
    // storm over the same graph (workload/traffic.h) — every op routes to
    // the few highest-degree centers while the kill schedule runs.
    workload::HotspotConfig hot;
    hot.ops = 72;
    hot.seed = 31 * seed + 5;
    UpdateStream ops = c.stream;
    UpdateStream storm = workload::MakeHotspotStream(c.g0, hot);
    ops.insert(ops.end(), storm.begin(), storm.end());

    std::string oracle = OracleCanonicalStream(c, ops);
    if (oracle !=
        MatchLog::CanonicalMatchStream(std::span<const MatchRecord>())) {
      ++nonempty_oracles;
    }
    total_restarts += RunChaosSchedule(seed, c, ops, oracle,
                                       checkpoint_every_ops,
                                       checkpoint_interval_ms);
    if (::testing::Test::HasFailure()) break;  // don't drown the report
  }
  EXPECT_GE(total_restarts, 50);
  // Byte-equality of empty streams proves nothing; most seeds must have
  // actual matches flowing through the fault schedule.
  EXPECT_GE(nonempty_oracles, 5);
}

TEST(ServeChaos, FiftyKillRestartCyclesStayByteEqualToOracle) {
  RunTenSeeds(/*checkpoint_every_ops=*/7, /*checkpoint_interval_ms=*/25);
}

// At a cadence no run reaches, the only snapshots are the ones Start()
// writes, so every restart replays from its incarnation's Start() across
// many match commits, far behind the match watermark.
TEST(ServeChaos, RestartsFarBehindTheMatchWatermarkStayByteEqualToOracle) {
  RunTenSeeds(/*checkpoint_every_ops=*/1'000'000,
              /*checkpoint_interval_ms=*/60'000);
}

}  // namespace
}  // namespace serve
}  // namespace turboflux
