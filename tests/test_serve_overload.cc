// Overload acceptance (ISSUE 8): with evaluation throughput pinned by
// eval_throttle_us and producers submitting at several times that rate,
// the server must (a) keep Health() answering in well under 100 ms,
// (b) bound memory by the admission-queue cap (depth never exceeds it),
// (c) push back with RETRY — never an error or a dead server, and
// (d) degrade by shedding low-priority queries, restoring them once the
// storm passes.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/serve/server.h"

namespace turboflux {
namespace serve {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("tfx_serve_ovl_" + name + "_" + std::to_string(::getpid()))) {
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

/// Evaluation pinned at 500 ops/sec behind a 40-op queue, with the
/// snapshot cadence out of reach and tier dwell times in milliseconds.
ServeOptions StormOptions(const std::string& data_dir) {
  ServeOptions options;
  options.data_dir = data_dir;
  // Pin sustainable throughput: 2 ms busy time per op = 500 ops/sec.
  options.eval_throttle_us = 2000;
  // Cap below the producers' aggregate in-flight ops (8 channels x 8-op
  // batches = 64 offered), so admission genuinely fills and bounces.
  options.admission.queue_cap = 40;
  options.batch_window = 16;
  options.widen_batch_window = 16;
  // Keep snapshots out of the way so eval_throttle_us dominates the cost.
  options.checkpoint_every_ops = 100000;
  options.checkpoint_interval_ms = 60000;
  options.drain_wait_ms = 2;
  options.overload.sustain_us = 2000;
  options.overload.recover_us = 10000;
  return options;
}

TEST(ServeOverload, FourTimesOverloadDegradesGracefullyAndRecovers) {
  testutil::RandomCaseConfig config;
  config.stream_ops = 4;  // the stream itself is irrelevant; load is synthetic
  testutil::RandomCase c = testutil::MakeRandomCase(8200, config);
  // A second standing query (from an unrelated case) at lower priority —
  // the one overload shedding is allowed to sacrifice.
  testutil::RandomCase other = testutil::MakeRandomCase(8201, config);

  TempDir dir("storm");
  ServeOptions options = StormOptions(dir.str());

  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(options, &c.g0, &server).ok());
  multi::QueryId critical = 0, best_effort = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, /*priority=*/5, &critical).ok());
  ASSERT_TRUE(
      server->RegisterQuery(other.query, /*priority=*/1, &best_effort).ok());
  ASSERT_EQ(server->LiveQueryCount(), 2u);
  server->Start();

  // Producers: 8 channels, each pumping 8-op batches as fast as acks
  // allow — up to 64 ops in flight against a 40-op queue, several times
  // the 500 ops/sec the consumer can evaluate. The queue must fill and
  // RETRY must carry the excess.
  const auto storm_end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(700);
  std::atomic<uint64_t> oks{0}, retries{0}, errs{0};
  std::vector<std::thread> producers;
  for (uint64_t channel = 1; channel <= 8; ++channel) {
    producers.emplace_back([&, channel] {
      uint64_t seq = 1;
      std::vector<UpdateOp> batch;
      for (int i = 0; i < 8; ++i) {
        batch.push_back(UpdateOp::Insert(
            static_cast<VertexId>(channel), 0,
            static_cast<VertexId>((channel + i) % c.g0.VertexCount())));
      }
      while (std::chrono::steady_clock::now() < storm_end) {
        Response r = server->Submit(channel, seq, batch);
        switch (r.kind) {
          case Response::Kind::kOk:
          case Response::Kind::kDup:
            ++oks;
            seq = r.seq + 1;
            break;
          case Response::Kind::kRetry:
            ++retries;
            // A real client honors the hint; cap the sleep so the storm
            // keeps pressing.
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::min<uint32_t>(std::max<uint32_t>(1, r.retry_after_ms),
                                   10)));
            break;
          default:
            ++errs;
            return;
        }
      }
    });
  }

  // Health sampler: latency and depth under fire.
  std::atomic<bool> shed_seen{false};
  std::atomic<uint8_t> max_tier{0};
  int64_t worst_health_us = 0;
  bool depth_ok = true;
  {
    using Clock = std::chrono::steady_clock;
    while (Clock::now() < storm_end) {
      auto t0 = Clock::now();
      Response h = server->Health();
      int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                       Clock::now() - t0)
                       .count();
      worst_health_us = std::max(worst_health_us, us);
      ASSERT_EQ(h.kind, Response::Kind::kHealth);
      if (h.queue_depth > h.queue_cap) depth_ok = false;
      max_tier.store(
          std::max(max_tier.load(), static_cast<uint8_t>(h.tier)));
      if (server->LiveQueryCount() < 2) shed_seen = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  for (std::thread& t : producers) t.join();

  // (c) Backpressure, not failure: plenty of RETRYs, zero errors or
  // resets, server alive throughout.
  EXPECT_EQ(errs.load(), 0u);
  EXPECT_GT(retries.load(), 0u);
  EXPECT_GT(oks.load(), 0u);
  EXPECT_FALSE(server->died());

  // (a) Health stayed responsive while evaluation was saturated.
  EXPECT_LT(worst_health_us, 100'000) << "Health() blocked behind eval";
  // (b) Admission cap bounded the queue at every sample.
  EXPECT_TRUE(depth_ok);
  // (d) Pressure was high enough, sustained enough, to escalate tiers and
  // shed the best-effort query.
  EXPECT_GE(static_cast<Tier>(max_tier.load()), Tier::kShed);
  EXPECT_TRUE(shed_seen.load());
  EXPECT_GT(server->options().admission.queue_cap, 0u);

  // After the storm: the backlog drains, the tier walks back to kNormal,
  // and the shed query is restored.
  const auto calm_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < calm_deadline) {
    Response h = server->Health();
    if (h.queue_depth == 0 && h.tier == Tier::kNormal &&
        server->LiveQueryCount() == 2) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->Health().tier, Tier::kNormal);
  EXPECT_EQ(server->LiveQueryCount(), 2u);

  server->Shutdown();
  EXPECT_FALSE(server->died());
  // Everything acked during the storm is durable and committed.
  EXPECT_EQ(server->committed_ops(), server->accepted_ops());
  EXPECT_EQ(server->accepted_ops(), 8 * oks.load());
}

// A shed changes the query set, so it snapshots at once. A crash before
// the next cadence snapshot must not bring the shed query back: W already
// covers matches evaluated without it.
TEST(ServeOverload, ShedSurvivesACrashBeforeTheNextSnapshot) {
  testutil::RandomCaseConfig config;
  config.stream_ops = 4;
  testutil::RandomCase c = testutil::MakeRandomCase(8202, config);
  testutil::RandomCase other = testutil::MakeRandomCase(8203, config);

  TempDir dir("shed_crash");
  ServeOptions options = StormOptions(dir.str());

  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(options, &c.g0, &server).ok());
  multi::QueryId critical = 0, best_effort = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, /*priority=*/5, &critical).ok());
  ASSERT_TRUE(
      server->RegisterQuery(other.query, /*priority=*/1, &best_effort).ok());
  server->Start();

  // 8 producers press until the server goes down under them.
  std::vector<std::thread> producers;
  for (uint64_t channel = 1; channel <= 8; ++channel) {
    producers.emplace_back([&, channel] {
      uint64_t seq = 1;
      std::vector<UpdateOp> batch;
      for (int i = 0; i < 8; ++i) {
        batch.push_back(UpdateOp::Insert(
            static_cast<VertexId>(channel), 0,
            static_cast<VertexId>((channel + i) % c.g0.VertexCount())));
      }
      while (true) {
        Response r = server->Submit(channel, seq, batch);
        if (r.kind == Response::Kind::kOk || r.kind == Response::Kind::kDup) {
          seq = r.seq + 1;
        } else if (r.kind == Response::Kind::kRetry) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              std::min<uint32_t>(std::max<uint32_t>(1, r.retry_after_ms),
                                 10)));
        } else {
          return;  // killed
        }
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server->LiveQueryCount() == 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server->Kill();
  for (std::thread& t : producers) t.join();
  const size_t at_kill = server->LiveQueryCount();
  ASSERT_EQ(at_kill, 1u) << "the storm never shed the best-effort query";
  server.reset();

  std::unique_ptr<Server> recovered;
  ASSERT_TRUE(Server::Create(options, nullptr, &recovered).ok());
  EXPECT_EQ(recovered->LiveQueryCount(), at_kill);
  recovered->Shutdown();
  EXPECT_FALSE(recovered->died());
}

}  // namespace
}  // namespace serve
}  // namespace turboflux
