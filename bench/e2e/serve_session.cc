#include "serve_session.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "measure.h"
#include "turboflux/common/synchronization.h"
#include "turboflux/common/thread_annotations.h"
#include "turboflux/serve/match_log.h"
#include "turboflux/serve/protocol.h"
#include "turboflux/serve/tcp.h"

namespace turboflux {
namespace e2e {

namespace {

constexpr char kListening[] = "tfx_serve listening on 127.0.0.1:";
constexpr size_t kMaxLogBytes = 1 << 16;
constexpr int kMaxSubmitAttempts = 64;
constexpr int kPings = 1000;
constexpr size_t kReads = 8;
constexpr size_t kReadLimit = 4096;
// A commit that does not arrive within this long means the server stalled.
constexpr int64_t kCommitWaitNs = 60'000'000'000;

void SleepUntilNs(int64_t t_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t_ns)));
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Hands the producers from phase 1 to phase 2: they block here until the
/// poller has seen phase 1 committed.
class PhaseGate {
 public:
  /// Blocks until phase 2 opens; returns its deadline, or -1 on abort.
  int64_t AwaitPhase2() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (deadline_ns_ == 0 && !aborted_) cv_.Wait(mu_);
    return aborted_ ? -1 : deadline_ns_;
  }
  void OpenPhase2(int64_t deadline_ns) EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      deadline_ns_ = deadline_ns;
    }
    cv_.NotifyAll();
  }
  void Abort() EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      aborted_ = true;
    }
    cv_.NotifyAll();
  }

 private:
  Mutex mu_;
  CondVar cv_;
  int64_t deadline_ns_ GUARDED_BY(mu_) = 0;
  bool aborted_ GUARDED_BY(mu_) = false;
};

/// One producer: a channel, a connection and the ops it owns. Written by
/// its own thread only; read by the poller after the thread is joined or
/// after an acquire of the matching phase counter.
struct Producer {
  size_t channel = 0;
  const std::vector<size_t>* owned = nullptr;
  serve::TcpClient client;
  size_t cursor = 0;  ///< next index into *owned
  uint64_t next_seq = 1;
  std::vector<std::pair<size_t, int64_t>> acks;  ///< phase 1 (index, ack)
  std::vector<double> late_ms;
  size_t frames1 = 0;
  size_t acked2 = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  std::vector<std::string> frames;
  Status status;
};

/// Sends owned ops [cursor, cursor + count) as one frame, retrying RETRY
/// answers. On OK/DUP advances the cursor and stamps *ack_ns.
bool SubmitFrame(const LoadPlan& plan, Producer& p, size_t count,
                 int64_t* ack_ns) {
  std::vector<UpdateOp> ops;
  ops.reserve(count);
  for (size_t k = p.cursor; k < p.cursor + count; ++k) {
    ops.push_back((*plan.stream)[(*p.owned)[k]]);
  }
  serve::Request request = serve::MakeSubmit(p.channel, p.next_seq, ops);
  if (plan.record_frames) p.frames.push_back(serve::EncodeRequest(request));
  p.attempted += count;
  for (int attempt = 0; attempt < kMaxSubmitAttempts; ++attempt) {
    serve::Response response;
    Status st = p.client.Call(request, &response);
    if (!st.ok()) {
      p.status = st;
      break;
    }
    if (response.kind == serve::Response::Kind::kOk ||
        response.kind == serve::Response::Kind::kDup) {
      *ack_ns = NowNs();
      p.cursor += count;
      p.next_seq += count;
      return true;
    }
    if (response.kind != serve::Response::Kind::kRetry) {
      p.status = Status::Error(response.code, "submit: " + response.text);
      break;
    }
    ++p.retries;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::max<uint32_t>(1, response.retry_after_ms)));
  }
  if (p.status.ok()) {
    p.status = Status::FailedPrecondition("RETRY after 64 attempts");
  }
  p.failed += count;
  return false;
}

void RunProducer(const LoadPlan& plan, int64_t start_ns, Producer& p,
                 PhaseGate& gate, std::atomic<size_t>& phase1_done,
                 std::atomic<size_t>& phase2_done) {
  const std::vector<size_t>& owned = *p.owned;
  const size_t n1 = static_cast<size_t>(
      std::lower_bound(owned.begin(), owned.end(), plan.n1) - owned.begin());
  auto due = [&](size_t k) {
    return start_ns + static_cast<int64_t>(plan.due_us[owned[k]]) * 1000;
  };
  int64_t prev_ack = start_ns;
  bool ok = true;
  while (ok && p.cursor < n1) {
    const int64_t first_due = due(p.cursor);
    SleepUntilNs(first_due);
    const int64_t now = NowNs();
    size_t count = 0;
    while (p.cursor + count < n1 && count < plan.open_frame &&
           due(p.cursor + count) <= now) {
      ++count;
    }
    // Lateness counts only the generator's own delay: while it waits for
    // an ack, a due op is the server's backlog, not the generator's.
    p.late_ms.push_back(
        static_cast<double>(now - std::max(first_due, prev_ack)) / 1e6);
    const size_t first = p.cursor;
    int64_t ack_ns = 0;
    ok = SubmitFrame(plan, p, count, &ack_ns);
    if (!ok) break;
    for (size_t k = first; k < p.cursor; ++k) {
      p.acks.emplace_back(owned[k], ack_ns);
    }
    ++p.frames1;
    prev_ack = ack_ns;
  }
  phase1_done.fetch_add(1, std::memory_order_release);
  const int64_t deadline = ok ? gate.AwaitPhase2() : -1;
  while (deadline > 0 && p.cursor < owned.size() && NowNs() < deadline) {
    const size_t count = std::min(plan.closed_frame, owned.size() - p.cursor);
    int64_t ack_ns = 0;
    if (!SubmitFrame(plan, p, count, &ack_ns)) break;
    p.acked2 += count;
  }
  phase2_done.fetch_add(1, std::memory_order_release);
}

/// The poller: HEALTH once per millisecond on its own connection.
class Poller {
 public:
  Poller(serve::TcpClient& client, LoadResult& out)
      : client_(client), out_(out) {}

  /// One HEALTH round trip, recorded; then sleeps to the next tick.
  Status Tick() {
    serve::Request request;
    request.kind = serve::Request::Kind::kHealth;
    serve::Response response;
    Status st = client_.Call(request, &response);
    if (!st.ok()) return st;
    if (response.kind != serve::Response::Kind::kHealth) {
      return Status::Corruption("HEALTH answered " + response.text);
    }
    HealthSample s;
    s.t_ns = NowNs();
    s.committed = response.committed;
    s.depth = response.queue_depth;
    s.tier = static_cast<uint8_t>(response.tier);
    out_.polls.push_back(s);
    next_ns_ = std::max(next_ns_ + 1'000'000, s.t_ns);
    SleepUntilNs(next_ns_);
    return Status::Ok();
  }

  uint64_t committed() const {
    return out_.polls.empty() ? 0 : out_.polls.back().committed;
  }

  /// Polls until HEALTH reports at least `ops` committed.
  Status AwaitCommitted(uint64_t ops) {
    int64_t progress_ns = NowNs();
    uint64_t seen = committed();
    while (committed() < ops) {
      Status st = Tick();
      if (!st.ok()) return st;
      if (committed() != seen) {
        seen = committed();
        progress_ns = NowNs();
      } else if (NowNs() - progress_ns > kCommitWaitNs) {
        return Status::DeadlineExceeded("no commit progress for 60 s");
      }
    }
    return Status::Ok();
  }

 private:
  serve::TcpClient& client_;
  LoadResult& out_;
  int64_t next_ns_ = 0;
};

Status SimpleCall(serve::TcpClient& client, serve::Request::Kind kind,
                  serve::Response* response) {
  serve::Request request;
  request.kind = kind;
  return client.Call(request, response);
}

/// The producer that owns `op`: a hash of the edge, so an edge's inserts
/// and deletes keep their order.
size_t ProducerOf(const UpdateOp& op, size_t producers) {
  const uint64_t key = (uint64_t{op.from} << 32) ^ (uint64_t{op.label} << 16) ^
                       uint64_t{op.to} ^ (uint64_t{op.to} << 48);
  return static_cast<size_t>(Mix(key) % producers);
}

}  // namespace

Status ReadPages(const LoadPlan& plan, ServeProcess& server,
                 LoadResult* out) {
  serve::TcpClient client;
  Status st = client.Connect("127.0.0.1", server.port());
  if (!st.ok()) return st;
  std::vector<serve::MatchRecord> log;
  uint64_t watermark = 0;
  uint64_t bytes = 0;
  st = serve::MatchLog::Load(plan.match_log_path, &log, &watermark, &bytes);
  if (!st.ok()) return st;
  for (size_t k = 0; k < kReads; ++k) {
    serve::Request request;
    request.kind = serve::Request::Kind::kMatches;
    request.start = log.size() * k / kReads;
    request.limit = kReadLimit;
    serve::Response response;
    const int64_t t0 = NowNs();
    st = client.Call(request, &response);
    const int64_t t1 = NowNs();
    if (!st.ok()) return st;
    const size_t want = std::min<size_t>(kReadLimit,
                                         log.size() - request.start);
    if (response.kind != serve::Response::Kind::kMatches ||
        response.matches.size() != want ||
        !std::equal(response.matches.begin(), response.matches.end(),
                    log.begin() + static_cast<ptrdiff_t>(request.start))) {
      return Status::Corruption("MATCHES page at " +
                                std::to_string(request.start) +
                                " differs from the match log");
    }
    out->read_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  return Status::Ok();
}

ServeProcess::~ServeProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (log_fd_ >= 0) ::close(log_fd_);
}

Status ServeProcess::Launch(const std::vector<std::string>& argv,
                            double timeout_s) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return Status::IoError("pipe failed");
  const pid_t parent = ::getpid();
  const int64_t t0 = NowNs();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::IoError("fork failed");
  }
  if (pid_ == 0) {
    // The server must never outlive the benchmark, even if it crashes.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDERR_FILENO);
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  log_fd_ = fds[0];
  const int64_t deadline = t0 + static_cast<int64_t>(timeout_s * 1e9);
  while (true) {
    const size_t at = log_.find(kListening);
    const size_t eol = at == std::string::npos ? at : log_.find('\n', at);
    if (eol != std::string::npos) {
      setup_seconds_ = static_cast<double>(NowNs() - t0) / 1e9;
      port_ = static_cast<uint16_t>(
          std::atoi(log_.c_str() + at + std::strlen(kListening)));
      if (port_ == 0) {
        return Status::Corruption("cannot parse the port: " + log_);
      }
      // tfx_serve installs its SIGTERM handler just after printing the
      // line; a SIGTERM sent before that would kill it outright.
      while (!CatchesSigterm()) {
        if (NowNs() > deadline || !Running()) {
          return Status::FailedPrecondition("tfx_serve never caught SIGTERM");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return Status::Ok();
    }
    const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    if (left_ms <= 0) {
      Stop(SIGKILL, 5);
      return Status::DeadlineExceeded("tfx_serve did not start listening");
    }
    const size_t before = log_.size();
    DrainLog(static_cast<int>(std::min<int64_t>(left_ms, 100)));
    if (log_.size() == before && !Running()) {
      return Status::FailedPrecondition(
          "tfx_serve exited before listening: " + log_);
    }
  }
}

void ServeProcess::DrainLog(int timeout_ms) {
  if (log_fd_ < 0) return;
  pollfd pfd{log_fd_, POLLIN, 0};
  if (::poll(&pfd, 1, timeout_ms) <= 0) return;
  char buf[4096];
  const ssize_t n = ::read(log_fd_, buf, sizeof(buf));
  if (n <= 0) {
    ::close(log_fd_);
    log_fd_ = -1;
    return;
  }
  log_.append(buf, static_cast<size_t>(n));
  if (log_.size() > kMaxLogBytes) {
    log_.erase(0, log_.size() - kMaxLogBytes / 2);
  }
}

bool ServeProcess::Running() {
  if (pid_ <= 0) return false;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) != pid_) return true;
  exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  pid_ = -1;
  return false;
}

int ServeProcess::Stop(int sig, double timeout_s) {
  if (pid_ > 0) ::kill(pid_, sig);
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (Running() && NowNs() < deadline) DrainLog(20);
  if (Running()) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    exit_code_ = -1;
  }
  while (log_fd_ >= 0) DrainLog(100);
  return exit_code_;
}

void ServeProcess::Kill() {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
}

bool ServeProcess::CatchesSigterm() const {
  const uint64_t caught = std::strtoull(
      ProcStatusField(pid_, "SigCgt").c_str(), nullptr, 16);
  return (caught >> (SIGTERM - 1)) & 1;
}

double ServeProcess::PeakRssMb() const { return e2e::PeakRssMb(pid_); }

Status RunLoad(const LoadPlan& plan, ServeProcess& server, LoadResult* out) {
  const UpdateStream& stream = *plan.stream;
  out->owned.assign(plan.producers, {});
  for (size_t i = 0; i < stream.size(); ++i) {
    out->owned[ProducerOf(stream[i], plan.producers)].push_back(i);
  }

  serve::TcpClient poll_client;
  Status st = poll_client.Connect("127.0.0.1", server.port());
  if (!st.ok()) return st;
  serve::Response response;
  for (int i = 0; i < kPings; ++i) {
    const int64_t t0 = NowNs();
    st = SimpleCall(poll_client, serve::Request::Kind::kPing, &response);
    if (!st.ok()) return st;
    out->ping_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }

  std::vector<std::unique_ptr<Producer>> producers;
  for (size_t p = 0; p < plan.producers; ++p) {
    auto producer = std::make_unique<Producer>();
    producer->channel = p + 1;
    producer->owned = &out->owned[p];
    st = producer->client.Connect("127.0.0.1", server.port());
    if (!st.ok()) return st;
    producers.push_back(std::move(producer));
  }

  PhaseGate gate;
  std::atomic<size_t> phase1_done{0};
  std::atomic<size_t> phase2_done{0};
  const int64_t start_ns = NowNs() + 20'000'000;
  std::vector<std::thread> threads;
  for (std::unique_ptr<Producer>& p : producers) {
    threads.emplace_back([&plan, start_ns, &p, &gate, &phase1_done,
                          &phase2_done] {
      RunProducer(plan, start_ns, *p, gate, phase1_done, phase2_done);
    });
  }

  Poller poller(poll_client, *out);
  auto poll_until = [&](std::atomic<size_t>& done) {
    Status s;
    while (s.ok() && done.load(std::memory_order_acquire) < plan.producers) {
      s = poller.Tick();
    }
    return s;
  };
  st = poll_until(phase1_done);
  uint64_t acked1 = 0;
  for (const std::unique_ptr<Producer>& p : producers) acked1 += p->acks.size();
  if (st.ok()) st = poller.AwaitCommitted(acked1);
  if (st.ok()) {
    out->phase2_start_ns = NowNs();
    gate.OpenPhase2(out->phase2_start_ns +
                    static_cast<int64_t>(plan.phase2_seconds * 1e9));
    if (plan.kill_server_in_phase2) server.Kill();
    while (st.ok() &&
           phase2_done.load(std::memory_order_acquire) < plan.producers) {
      st = poller.Tick();
    }
    out->phase2_end_ns = NowNs();
  }
  if (!st.ok()) gate.Abort();
  for (std::thread& t : threads) t.join();

  for (std::unique_ptr<Producer>& p : producers) {
    out->attempted += p->attempted;
    out->failed += p->failed;
    out->retries += p->retries;
    out->phase1_frames += p->frames1;
    out->n2 += p->acked2;
    out->late_ms.insert(out->late_ms.end(), p->late_ms.begin(),
                        p->late_ms.end());
    for (std::string& f : p->frames) out->frames.push_back(std::move(f));
    if (st.ok() && !p->status.ok()) st = p->status;
  }
  out->due_ns.assign(plan.n1, 0);
  out->ack_ns.assign(plan.n1, 0);
  for (size_t i = 0; i < plan.n1; ++i) {
    out->due_ns[i] = start_ns + static_cast<int64_t>(plan.due_us[i]) * 1000;
  }
  for (const std::unique_ptr<Producer>& p : producers) {
    for (const auto& [index, ack] : p->acks) out->ack_ns[index] = ack;
  }
  if (!st.ok()) return st;

  st = poller.AwaitCommitted(acked1 + out->n2);
  if (!st.ok()) return st;
  return Status::Ok();
}

}  // namespace e2e
}  // namespace turboflux
