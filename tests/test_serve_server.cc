// Server core of tfx_serve (serve/server.h): durability acks, per-channel
// exactly-once sequencing (DUP / overlap trim / gap rejection), restart
// recovery, and the durable match stream against an in-process QuerySet
// oracle. The chaos suite (test_serve_chaos.cc) stresses the same
// protocol under injected faults; these are the deterministic basics.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/harness/fault_injection.h"
#include "turboflux/multi/query_set.h"
#include "turboflux/serve/server.h"

namespace turboflux {
namespace serve {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("tfx_serve_srv_" + name + "_" + std::to_string(::getpid()))) {
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

/// Collects QuerySet matches as MatchRecords, tagging each with the op
/// index the caller sets before the triggering ApplyUpdate/Register —
/// the oracle-side mirror of the server's internal tagging sink.
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

/// Replays the whole case through a QuerySet in one process, registering
/// the query after the first `register_at` ops — the match stream a
/// crash-free server must reproduce byte-for-byte.
std::vector<MatchRecord> OracleReplay(const testutil::RandomCase& c,
                                      size_t register_at = 0) {
  multi::QuerySet set;
  set.Bind(c.g0);
  OracleSink sink;
  for (size_t i = 0; i <= c.stream.size(); ++i) {
    sink.op_index = set.applied_ops();
    if (i == register_at) {
      multi::QueryId id = 0;
      EXPECT_TRUE(set.Register(c.query, sink, Deadline::Infinite(), &id).ok());
    }
    if (i == c.stream.size()) break;
    Status s = set.ApplyUpdate(c.stream[i], sink, Deadline::Infinite());
    EXPECT_NE(s.code(), StatusCode::kDeadlineExceeded);
  }
  return std::move(sink.records);
}

ServeOptions FastOptions(const std::string& data_dir) {
  ServeOptions options;
  options.data_dir = data_dir;
  options.checkpoint_every_ops = 7;  // commit often so restarts replay
  options.checkpoint_interval_ms = 50;
  options.drain_wait_ms = 2;
  return options;
}

testutil::RandomCase ServeCase(uint64_t seed) {
  testutil::RandomCaseConfig config;
  config.stream_ops = 60;
  return testutil::MakeRandomCase(seed, config);
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Submits the rest of the stream after the durable position, shuts down,
/// and checks the durable stream against OracleReplay(c, register_at).
void FinishAgainstOracle(Server& server, const testutil::RandomCase& c,
                         size_t register_at = 0) {
  ServerHandle handle(server, 1);
  const size_t durable = handle.next_seq() - 1;
  if (durable < c.stream.size()) {
    Response r = handle.Submit(std::span<const UpdateOp>(
        c.stream.data() + durable, c.stream.size() - durable));
    ASSERT_EQ(r.kind, Response::Kind::kOk);
  }
  server.Shutdown();
  EXPECT_FALSE(server.died());
  std::vector<MatchRecord> committed;
  ASSERT_TRUE(server.CommittedMatches(&committed).ok());
  std::vector<MatchRecord> oracle = OracleReplay(c, register_at);
  EXPECT_FALSE(oracle.empty());
  EXPECT_EQ(MatchLog::CanonicalMatchStream(committed),
            MatchLog::CanonicalMatchStream(oracle));
}

TEST(ServeServer, AcksSubmitsAndMatchesOracleReplay) {
  testutil::RandomCase c = ServeCase(4100);
  TempDir dir("oracle");
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(FastOptions(dir.str()), &c.g0, &server).ok());
  multi::QueryId id = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
  server->Start();

  ServerHandle handle(*server, 1);
  for (size_t i = 0; i < c.stream.size(); i += 5) {
    size_t n = std::min<size_t>(5, c.stream.size() - i);
    Response r =
        handle.Submit(std::span<const UpdateOp>(c.stream.data() + i, n));
    ASSERT_EQ(r.kind, Response::Kind::kOk) << "batch at " << i;
    EXPECT_EQ(r.seq, i + n);
  }
  server->Shutdown();
  EXPECT_FALSE(server->died());
  EXPECT_EQ(server->accepted_ops(), c.stream.size());
  EXPECT_EQ(server->committed_ops(), c.stream.size());

  std::vector<MatchRecord> committed;
  ASSERT_TRUE(server->CommittedMatches(&committed).ok());
  std::vector<MatchRecord> oracle = OracleReplay(c);
  EXPECT_FALSE(oracle.empty());  // a vacuous equality would prove nothing
  EXPECT_EQ(MatchLog::CanonicalMatchStream(committed),
            MatchLog::CanonicalMatchStream(oracle));
}

TEST(ServeServer, DuplicateAndOverlappingResendsAreIdempotent) {
  testutil::RandomCase c = ServeCase(4101);
  ASSERT_GE(c.stream.size(), 8u);
  TempDir dir("dup");
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(FastOptions(dir.str()), &c.g0, &server).ok());
  multi::QueryId id = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
  server->Start();

  std::span<const UpdateOp> ops(c.stream.data(), 4);
  Response r = server->Submit(1, 1, ops);
  ASSERT_EQ(r.kind, Response::Kind::kOk);
  EXPECT_EQ(r.seq, 4u);

  // Full resend: everything at or below the high-water mark is DUP.
  r = server->Submit(1, 1, ops);
  EXPECT_EQ(r.kind, Response::Kind::kDup);
  EXPECT_EQ(r.seq, 4u);

  // Overlapping resend [3, 6]: ops 3-4 are trimmed, 5-6 are new.
  r = server->Submit(1, 3, std::span<const UpdateOp>(c.stream.data() + 2, 4));
  ASSERT_EQ(r.kind, Response::Kind::kOk);
  EXPECT_EQ(r.seq, 6u);

  // A gap is a protocol error, not silent reordering.
  r = server->Submit(1, 9, std::span<const UpdateOp>(c.stream.data(), 1));
  ASSERT_EQ(r.kind, Response::Kind::kErr);
  EXPECT_EQ(r.code, StatusCode::kFailedPrecondition);

  // seq 0 and empty batches are malformed.
  r = server->Submit(1, 0, ops);
  EXPECT_EQ(r.kind, Response::Kind::kErr);
  r = server->Submit(1, 7, std::span<const UpdateOp>());
  EXPECT_EQ(r.kind, Response::Kind::kErr);

  server->Shutdown();
  // Exactly 6 distinct ops were ingested despite the resends.
  EXPECT_EQ(server->accepted_ops(), 6u);

  // The match stream equals a clean replay of the deduplicated prefix.
  testutil::RandomCase prefix = c;
  prefix.stream.assign(c.stream.begin(), c.stream.begin() + 6);
  std::vector<MatchRecord> committed;
  ASSERT_TRUE(server->CommittedMatches(&committed).ok());
  EXPECT_EQ(MatchLog::CanonicalMatchStream(committed),
            MatchLog::CanonicalMatchStream(OracleReplay(prefix)));
}

TEST(ServeServer, RestartResumesExactlyOnce) {
  testutil::RandomCase c = ServeCase(4102);
  TempDir dir("restart");
  const size_t half = c.stream.size() / 2;

  {
    std::unique_ptr<Server> server;
    ASSERT_TRUE(Server::Create(FastOptions(dir.str()), &c.g0, &server).ok());
    multi::QueryId id = 0;
    ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
    server->Start();
    ServerHandle handle(*server, 1);
    Response r =
        handle.Submit(std::span<const UpdateOp>(c.stream.data(), half));
    ASSERT_EQ(r.kind, Response::Kind::kOk);
    server->Shutdown();
  }

  // Second incarnation: no g0 (the snapshot has the state), resynced
  // producer, remainder of the stream — including a duplicate overlap the
  // resync dance would produce after a lost ack.
  {
    std::unique_ptr<Server> server;
    ASSERT_TRUE(
        Server::Create(FastOptions(dir.str()), nullptr, &server).ok());
    server->Start();
    ServerHandle handle(*server, 1);
    EXPECT_EQ(handle.Resync(), half);
    Response r = handle.Submit(std::span<const UpdateOp>(
        c.stream.data() + half, c.stream.size() - half));
    ASSERT_EQ(r.kind, Response::Kind::kOk);
    EXPECT_EQ(r.seq, c.stream.size());
    server->Shutdown();
    EXPECT_FALSE(server->died());

    std::vector<MatchRecord> committed;
    ASSERT_TRUE(server->CommittedMatches(&committed).ok());
    EXPECT_EQ(MatchLog::CanonicalMatchStream(committed),
              MatchLog::CanonicalMatchStream(OracleReplay(c)));
  }
}

TEST(ServeServer, KillLosesNothingAcked) {
  testutil::RandomCase c = ServeCase(4103);
  TempDir dir("kill");
  // Commit rarely, so Kill() strikes with matches buffered in memory and
  // a snapshot that lags the journal — recovery owes real replay.
  ServeOptions options = FastOptions(dir.str());
  options.checkpoint_every_ops = 1000;
  options.checkpoint_interval_ms = 60'000;

  uint64_t acked = 0;
  {
    std::unique_ptr<Server> server;
    ASSERT_TRUE(Server::Create(options, &c.g0, &server).ok());
    multi::QueryId id = 0;
    ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
    server->Start();
    ServerHandle handle(*server, 1);
    Response r = handle.Submit(
        std::span<const UpdateOp>(c.stream.data(), c.stream.size() / 2));
    ASSERT_EQ(r.kind, Response::Kind::kOk);
    acked = r.seq;
    server->Kill();
  }

  {
    std::unique_ptr<Server> server;
    ASSERT_TRUE(Server::Create(options, nullptr, &server).ok());
    server->Start();
    ServerHandle handle(*server, 1);
    // Every acked op survived the kill.
    EXPECT_GE(handle.Resync(), acked);
    uint64_t durable = handle.Resync();
    Response r = handle.Submit(std::span<const UpdateOp>(
        c.stream.data() + durable, c.stream.size() - durable));
    ASSERT_EQ(r.kind, Response::Kind::kOk);
    server->Shutdown();

    std::vector<MatchRecord> committed;
    ASSERT_TRUE(server->CommittedMatches(&committed).ok());
    EXPECT_EQ(MatchLog::CanonicalMatchStream(committed),
              MatchLog::CanonicalMatchStream(OracleReplay(c)));
  }
}

TEST(ServeServer, HealthAndStatsServeWithoutStreaming) {
  testutil::RandomCase c = ServeCase(4104);
  TempDir dir("health");
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(FastOptions(dir.str()), &c.g0, &server).ok());
  multi::QueryId id = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
  server->Start();

  Response health = server->Health();
  EXPECT_EQ(health.kind, Response::Kind::kHealth);
  EXPECT_EQ(health.tier, Tier::kNormal);
  EXPECT_EQ(health.queue_cap, server->options().admission.queue_cap);

  Response stats = server->Stats();
  EXPECT_EQ(stats.kind, Response::Kind::kStats);
  EXPECT_NE(stats.text.find("serve.ops_accepted"), std::string::npos);

  ServerHandle handle(*server, 3);
  ASSERT_EQ(handle.Submit(std::span<const UpdateOp>(c.stream.data(), 8)).kind,
            Response::Kind::kOk);
  EXPECT_EQ(server->Pos(3).seq, 8u);
  EXPECT_EQ(server->Pos(99).seq, 0u);

  server->Shutdown();
  Response matches = server->Matches(0, 1'000'000);
  ASSERT_EQ(matches.kind, Response::Kind::kMatches);
  std::vector<MatchRecord> committed;
  ASSERT_TRUE(server->CommittedMatches(&committed).ok());
  EXPECT_EQ(matches.matches.size(), committed.size());

  // Paging: a window in the middle returns exactly that slice.
  if (committed.size() >= 2) {
    Response page = server->Matches(1, 1);
    ASSERT_EQ(page.matches.size(), 1u);
    EXPECT_TRUE(page.matches[0] == committed[1]);
  }
}

TEST(ServeServer, MatchesCommitPerBatchWhileTheSnapshotWaits) {
  testutil::RandomCase c = ServeCase(4105);
  const std::vector<MatchRecord> oracle = OracleReplay(c);
  auto makes_match = [&](uint64_t op) {
    return std::any_of(oracle.begin(), oracle.end(),
                       [op](const MatchRecord& m) { return m.op_index == op; });
  };
  // Op k makes a match and op k + 1 none. Initial matches carry index 0
  // like op 0's, so k starts at 1.
  uint64_t k = 0;
  for (uint64_t i = 1; i + 1 < c.stream.size() && k == 0; ++i) {
    if (makes_match(i) && !makes_match(i + 1)) k = i;
  }
  ASSERT_GT(k, 0u) << "no match followed by a match-free op in the case";

  TempDir dir("perbatch");
  ServeOptions options = FastOptions(dir.str());
  options.checkpoint_every_ops = 1'000'000;
  options.checkpoint_interval_ms = 60'000;
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(options, &c.g0, &server).ok());
  multi::QueryId id = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
  server->Start();
  const std::string snapshot_path = dir.str() + "/snapshot.tfxq";
  const std::string log_path = dir.str() + "/matches.log";
  const std::string snapshot = ReadBytes(snapshot_path);
  ASSERT_FALSE(snapshot.empty());

  // W must cover `ops` once their batch is evaluated, not at the 60 s
  // timer (2 s leaves room for sanitizer builds).
  auto committed_soon = [&](uint64_t ops) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (server->committed_ops() < ops &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return server->committed_ops() >= ops;
  };

  ServerHandle handle(*server, 1);
  ASSERT_EQ(
      handle.Submit(std::span<const UpdateOp>(c.stream.data(), k + 1)).kind,
      Response::Kind::kOk);
  ASSERT_TRUE(committed_soon(k + 1));
  Response page = server->Matches(0, 1'000'000);
  ASSERT_EQ(page.kind, Response::Kind::kMatches);
  ASSERT_FALSE(page.matches.empty());
  EXPECT_EQ(page.matches.back().op_index, k);
  std::vector<MatchRecord> through_k;
  for (const MatchRecord& m : oracle) {
    if (m.op_index <= k) through_k.push_back(m);
  }
  EXPECT_EQ(MatchLog::CanonicalMatchStream(page.matches),
            MatchLog::CanonicalMatchStream(through_k));
  EXPECT_EQ(ReadBytes(snapshot_path), snapshot);

  // A match-free batch advances W in memory and writes nothing.
  const std::string log = ReadBytes(log_path);
  ASSERT_EQ(
      handle.Submit(std::span<const UpdateOp>(c.stream.data() + k + 1, 1))
          .kind,
      Response::Kind::kOk);
  ASSERT_TRUE(committed_soon(k + 2));
  EXPECT_EQ(ReadBytes(log_path), log);
  EXPECT_EQ(ReadBytes(snapshot_path), snapshot);
  server->Shutdown();
  EXPECT_FALSE(server->died());
}

TEST(ServeServer, CrashBeforeStartLeavesAFreshDir) {
  testutil::RandomCase c = ServeCase(4106);
  TempDir dir("setup_kill");
  {
    std::unique_ptr<Server> server;
    ASSERT_TRUE(Server::Create(FastOptions(dir.str()), &c.g0, &server).ok());
    multi::QueryId id = 0;
    ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
    server->Kill();
  }
  EXPECT_FALSE(fs::exists(dir.str() + "/snapshot.tfxq"));

  // The registration was never durable: the dir reopens from g0 with no
  // queries, and registering again reports the initial matches once.
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(FastOptions(dir.str()), &c.g0, &server).ok());
  EXPECT_EQ(server->LiveQueryCount(), 0u);
  multi::QueryId id = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
  server->Start();
  FinishAgainstOracle(*server, c);
}

TEST(ServeServer, FailedFirstSnapshotKillsTheServerAndLeavesAFreshDir) {
  testutil::RandomCase c = ServeCase(4107);
  TempDir dir("setup_die");
  {
    FaultPlan plan;
    plan.die_before_snapshot_rename = 1;
    FaultInjector injector(plan);
    ServeOptions options = FastOptions(dir.str());
    options.injector = &injector;
    std::unique_ptr<Server> server;
    ASSERT_TRUE(Server::Create(options, &c.g0, &server).ok());
    multi::QueryId id = 0;
    ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
    server->Start();
    EXPECT_TRUE(server->died());
    Response r = server->Submit(1, 1, c.stream);
    EXPECT_EQ(r.kind, Response::Kind::kErr);
  }
  // Start()'s match commit landed but its snapshot did not. Without a
  // snapshot the dir is fresh, and that report must not be kept next to
  // the one re-registration makes.
  EXPECT_FALSE(fs::exists(dir.str() + "/snapshot.tfxq"));
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(FastOptions(dir.str()), &c.g0, &server).ok());
  EXPECT_EQ(server->LiveQueryCount(), 0u);
  multi::QueryId id = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
  server->Start();
  FinishAgainstOracle(*server, c);
}

TEST(ServeServer, RegistrationAfterStartSurvivesACrash) {
  testutil::RandomCase c = ServeCase(4108);
  TempDir dir("late_register");
  ServeOptions options = FastOptions(dir.str());
  options.checkpoint_every_ops = 1'000'000;  // only set changes snapshot
  options.checkpoint_interval_ms = 60'000;
  const size_t half = c.stream.size() / 2;
  {
    std::unique_ptr<Server> server;
    ASSERT_TRUE(Server::Create(options, &c.g0, &server).ok());
    server->Start();
    ServerHandle handle(*server, 1);
    ASSERT_EQ(
        handle.Submit(std::span<const UpdateOp>(c.stream.data(), half)).kind,
        Response::Kind::kOk);
    // RegisterQuery waits out the ingest iteration that acked the batch,
    // so the query joins after exactly `half` ops.
    multi::QueryId id = 0;
    ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
    ASSERT_EQ(server->committed_ops(), half);
    ASSERT_EQ(handle
                  .Submit(std::span<const UpdateOp>(c.stream.data() + half,
                                                    c.stream.size() - half))
                  .kind,
              Response::Kind::kOk);
    server->Kill();
  }
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(options, nullptr, &server).ok());
  EXPECT_EQ(server->LiveQueryCount(), 1u);
  server->Start();
  FinishAgainstOracle(*server, c, half);
}

TEST(ServeServer, FreshDirWithoutGraphIsRejected) {
  TempDir dir("nog0");
  std::unique_ptr<Server> server;
  Status s = Server::Create(FastOptions(dir.str()), nullptr, &server);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace serve
}  // namespace turboflux
