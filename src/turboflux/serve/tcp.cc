#include "turboflux/serve/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "turboflux/common/deadline.h"
#include "turboflux/serve/admission.h"

namespace turboflux {
namespace serve {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Deadline::Clock::now().time_since_epoch())
      .count();
}

bool SendAll(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

void SendResponse(int fd, const Response& response) {
  std::string frame;
  EncodeFrame(EncodeResponse(response), frame);
  (void)SendAll(fd, frame.data(), frame.size());
}

}  // namespace

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Listen(Server& server, uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IoError("socket() failed");
  int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind() failed: " + std::string(strerror(errno)));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen() failed");
  }
  accept_thread_ = std::thread([this, &server] { AcceptLoop(&server); });
  return Status::Ok();
}

void TcpServer::Stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // shutdown() wakes AcceptLoop out of accept(); the thread still reads
  // listen_fd_, so the fd is closed and reset only after the join.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> threads;
  {
    MutexLock lock(conn_mu_);
    for (int fd : conn_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  {
    MutexLock lock(conn_mu_);
    for (int fd : conn_fds_) ::close(fd);
    conn_fds_.clear();
  }
}

void TcpServer::AcceptLoop(Server* server) {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (Stop) or fatal
    }
    MutexLock lock(conn_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back(
        [this, server, fd] { HandleConnection(server, fd); });
  }
}

void TcpServer::HandleConnection(Server* server, int fd) {
  // Each connection is an independent producer: its own frame decoder,
  // its own rate-limit bucket. The channel id arrives in each request.
  TokenBucket bucket(server->options().rate_limit_per_sec,
                     server->options().rate_limit_burst);
  FrameDecoder decoder;
  char buf[4096];
  while (!stopping_.load(std::memory_order_acquire)) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // disconnect: any buffered partial frame is discarded
    }
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    std::string payload;
    while (decoder.Next(&payload)) {
      Request request;
      Status parse = ParseRequest(payload, &request);
      if (!parse.ok()) {
        Response err;
        err.kind = Response::Kind::kErr;
        err.code = parse.code();
        err.text = parse.message();
        SendResponse(fd, err);
        continue;
      }
      Response response;
      switch (request.kind) {
        case Request::Kind::kSubmit: {
          uint32_t retry_ms = 0;
          if (!bucket.TryAcquire(static_cast<double>(request.ops.size()),
                                 NowMicros(), &retry_ms)) {
            response.kind = Response::Kind::kRetry;
            response.retry_after_ms = retry_ms;
            response.tier = server->tier();
            break;
          }
          response = server->Submit(request.channel, request.seq,
                                    request.ops);
          break;
        }
        case Request::Kind::kPos:
          response = server->Pos(request.channel);
          break;
        case Request::Kind::kHealth:
          response = server->Health();
          break;
        case Request::Kind::kStats:
          response = server->Stats();
          break;
        case Request::Kind::kMatches:
          response = server->Matches(request.start, request.limit);
          break;
        case Request::Kind::kPing:
          response.kind = Response::Kind::kPong;
          break;
      }
      SendResponse(fd, response);
    }
    if (!decoder.status().ok()) {
      Response err;
      err.kind = Response::Kind::kErr;
      err.code = decoder.status().code();
      err.text = decoder.status().message();
      SendResponse(fd, err);
      break;  // the stream cannot be resynchronized
    }
  }
  ::shutdown(fd, SHUT_RDWR);
}

TcpClient::~TcpClient() { Close(); }

Status TcpClient::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Close();
    return Status::IoError("connect() failed: " + std::string(strerror(errno)));
  }
  int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  decoder_ = FrameDecoder();
  return Status::Ok();
}

void TcpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status TcpClient::Call(const Request& request, Response* response,
                       FaultInjector* injector) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  std::string frame;
  EncodeFrame(EncodeRequest(request), frame);
  size_t send_len = frame.size();
  bool drop = injector != nullptr && injector->ShouldDropConnection();
  if (drop) send_len = frame.size() > 1 ? frame.size() / 2 : 0;
  if (!SendAll(fd_, frame.data(), send_len)) {
    Close();
    return Status::IoError("send failed");
  }
  if (drop) {
    // Tear the connection mid-frame: the server must drop the partial
    // frame without dispatching it.
    Close();
    return Status::IoError("injected connection drop mid-frame");
  }
  std::string payload;
  char buf[4096];
  while (!decoder_.Next(&payload)) {
    if (!decoder_.status().ok()) {
      Close();
      return decoder_.status();
    }
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Close();
      return Status::IoError("connection closed mid-response");
    }
    decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
  return ParseResponse(payload, response);
}

}  // namespace serve
}  // namespace turboflux
