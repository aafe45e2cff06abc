// TCP frontend of tfx_serve (serve/tcp.h): frame round-trips over a real
// loopback socket, malformed-input handling, and the dropped-connection
// fault (a client dying mid-frame must not corrupt the server or the
// next connection).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/harness/fault_injection.h"
#include "turboflux/serve/protocol.h"
#include "turboflux/serve/server.h"
#include "turboflux/serve/tcp.h"

namespace turboflux {
namespace serve {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("tfx_serve_tcp_" + name + "_" + std::to_string(::getpid()))) {
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

/// Server + TCP frontend on an ephemeral loopback port.
struct Rig {
  explicit Rig(const std::string& name) : dir(name) {
    c = testutil::MakeRandomCase(9100, {});
    ServeOptions options;
    options.data_dir = dir.str();
    options.checkpoint_every_ops = 4;  // snapshot between match commits
    options.checkpoint_interval_ms = 20;
    options.drain_wait_ms = 2;
    EXPECT_TRUE(Server::Create(options, &c.g0, &server).ok());
    multi::QueryId id = 0;
    EXPECT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
    server->Start();
    EXPECT_TRUE(tcp.Listen(*server, 0).ok());
    EXPECT_GT(tcp.port(), 0);
  }
  ~Rig() {
    tcp.Stop();
    server->Shutdown();
  }

  TempDir dir;
  testutil::RandomCase c;
  std::unique_ptr<Server> server;
  TcpServer tcp;
};

TEST(ServeTcp, PingSubmitPosHealthRoundTrip) {
  Rig rig("basic");
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.tcp.port()).ok());

  Request ping;
  ping.kind = Request::Kind::kPing;
  Response r;
  ASSERT_TRUE(client.Call(ping, &r).ok());
  EXPECT_EQ(r.kind, Response::Kind::kPong);

  // Submit the first 6 stream ops; ack carries the high-water seq.
  std::vector<UpdateOp> ops(rig.c.stream.begin(), rig.c.stream.begin() + 6);
  ASSERT_TRUE(client.Call(MakeSubmit(5, 1, ops), &r).ok());
  ASSERT_EQ(r.kind, Response::Kind::kOk) << r.text;
  EXPECT_EQ(r.seq, 6u);

  // A verbatim resend is answered DUP, not re-applied.
  ASSERT_TRUE(client.Call(MakeSubmit(5, 1, ops), &r).ok());
  EXPECT_EQ(r.kind, Response::Kind::kDup);
  EXPECT_EQ(r.seq, 6u);

  Request pos;
  pos.kind = Request::Kind::kPos;
  pos.channel = 5;
  ASSERT_TRUE(client.Call(pos, &r).ok());
  EXPECT_EQ(r.kind, Response::Kind::kPos);
  EXPECT_EQ(r.seq, 6u);

  Request health;
  health.kind = Request::Kind::kHealth;
  ASSERT_TRUE(client.Call(health, &r).ok());
  EXPECT_EQ(r.kind, Response::Kind::kHealth);
  EXPECT_EQ(r.accepted, 6u);

  Request stats;
  stats.kind = Request::Kind::kStats;
  ASSERT_TRUE(client.Call(stats, &r).ok());
  EXPECT_EQ(r.kind, Response::Kind::kStats);
  EXPECT_NE(r.text.find("serve.ops_accepted"), std::string::npos);

  // Wait for the match commit to cover the 6 ops, then read the durable
  // match stream back over the wire.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rig.server->committed_ops() < 6 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(rig.server->committed_ops(), 6u);
  Request matches;
  matches.kind = Request::Kind::kMatches;
  matches.start = 0;
  matches.limit = 1'000'000;
  ASSERT_TRUE(client.Call(matches, &r).ok());
  ASSERT_EQ(r.kind, Response::Kind::kMatches);
  std::vector<MatchRecord> committed;
  ASSERT_TRUE(rig.server->CommittedMatches(&committed).ok());
  EXPECT_EQ(r.matches.size(), committed.size());
}

TEST(ServeTcp, MalformedRequestAnswersErrWithoutKillingTheServer) {
  Rig rig("malformed");
  // Raw socket: send a well-framed but unparsable request line.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rig.tcp.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  std::string wire;
  EncodeFrame("BOGUS VERB 1 2 3", wire);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  // The connection answers ERR (and may then close).
  FrameDecoder decoder;
  std::string payload;
  char buf[512];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool got = false;
  while (!got && std::chrono::steady_clock::now() < deadline) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    got = decoder.Next(&payload);
  }
  ::close(fd);
  ASSERT_TRUE(got);
  Response r;
  ASSERT_TRUE(ParseResponse(payload, &r).ok());
  EXPECT_EQ(r.kind, Response::Kind::kErr);

  // The server itself is unharmed; a fresh connection works.
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.tcp.port()).ok());
  Request ping;
  ping.kind = Request::Kind::kPing;
  ASSERT_TRUE(client.Call(ping, &r).ok());
  EXPECT_EQ(r.kind, Response::Kind::kPong);
  EXPECT_FALSE(rig.server->died());
}

TEST(ServeTcp, DroppedConnectionMidFrameDiscardsThePartialRequest) {
  Rig rig("drop");
  FaultPlan plan;
  plan.drop_connection_at_frame = 2;  // tear the 2nd frame mid-send
  FaultInjector injector(plan);

  TcpClient doomed;
  ASSERT_TRUE(doomed.Connect("127.0.0.1", rig.tcp.port()).ok());
  Request ping;
  ping.kind = Request::Kind::kPing;
  Response r;
  ASSERT_TRUE(doomed.Call(ping, &r, &injector).ok());
  EXPECT_EQ(r.kind, Response::Kind::kPong);

  // Frame 2: a submit torn mid-frame; the call must fail client-side and
  // the server must never see (or partially apply) the ops.
  std::vector<UpdateOp> ops(rig.c.stream.begin(), rig.c.stream.begin() + 4);
  Status s = doomed.Call(MakeSubmit(3, 1, ops), &r, &injector);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(doomed.connected());

  // Give the server a beat to process the disconnect, then verify the
  // torn submit left no trace and the frontend still serves.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(rig.server->died());
  EXPECT_EQ(rig.server->Pos(3).seq, 0u);
  EXPECT_EQ(rig.server->accepted_ops(), 0u);

  TcpClient next;
  ASSERT_TRUE(next.Connect("127.0.0.1", rig.tcp.port()).ok());
  ASSERT_TRUE(next.Call(MakeSubmit(3, 1, ops), &r).ok());
  ASSERT_EQ(r.kind, Response::Kind::kOk);
  EXPECT_EQ(r.seq, 4u);
  EXPECT_EQ(rig.server->Pos(3).seq, 4u);
}

// Listen/Stop cycles with a client connecting concurrently: Stop must not
// race the accept thread over the listening socket (the TSan job runs
// this), and each cycle must shut down cleanly whatever the client got.
TEST(ServeTcp, ListenStopCyclesWithConcurrentClient) {
  Rig rig("cycles");
  for (int i = 0; i < 20; ++i) {
    TcpServer tcp;
    ASSERT_TRUE(tcp.Listen(*rig.server, 0).ok());
    const uint16_t port = tcp.port();
    std::thread client([port] {
      TcpClient c;
      if (!c.Connect("127.0.0.1", port).ok()) return;
      Request ping;
      ping.kind = Request::Kind::kPing;
      Response r;
      (void)c.Call(ping, &r);  // may fail: the listener is going away
    });
    if (i % 2 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    tcp.Stop();
    client.join();
  }

  // The server is unharmed and its own frontend still answers.
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.tcp.port()).ok());
  Request ping;
  ping.kind = Request::Kind::kPing;
  Response r;
  ASSERT_TRUE(client.Call(ping, &r).ok());
  EXPECT_EQ(r.kind, Response::Kind::kPong);
  EXPECT_FALSE(rig.server->died());
}

}  // namespace
}  // namespace serve
}  // namespace turboflux
