#include "client/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "server/wire.h"

namespace scdwarf::client {

namespace {

Status Errno(const std::string& what, const std::string& peer) {
  return Status::IoError(what + ": " + std::strerror(errno) + " (peer " +
                         peer + ")");
}

}  // namespace

Result<Endpoint> ParseEndpoint(std::string_view text) {
  Endpoint endpoint;
  std::string_view port_text = text;
  size_t colon = text.rfind(':');
  if (colon != std::string_view::npos) {
    if (colon > 0) endpoint.host = std::string(text.substr(0, colon));
    port_text = text.substr(colon + 1);
  }
  if (port_text.empty()) {
    return Status::InvalidArgument("endpoint \"" + std::string(text) +
                                   "\" has no port");
  }
  uint32_t port = 0;
  for (char c : port_text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("endpoint \"" + std::string(text) +
                                     "\" has a non-numeric port");
    }
    port = port * 10 + static_cast<uint32_t>(c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("endpoint \"" + std::string(text) +
                                     "\" port out of range");
    }
  }
  if (port == 0) {
    return Status::InvalidArgument("endpoint \"" + std::string(text) +
                                   "\" port must be nonzero");
  }
  endpoint.port = static_cast<uint16_t>(port);
  return endpoint;
}

Result<std::vector<Endpoint>> ParseEndpointList(std::string_view text) {
  std::vector<Endpoint> endpoints;
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    std::string_view part = text.substr(
        start, comma == std::string_view::npos ? text.size() - start
                                               : comma - start);
    SCD_ASSIGN_OR_RETURN(Endpoint endpoint, ParseEndpoint(part));
    endpoints.push_back(std::move(endpoint));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (endpoints.empty()) {
    return Status::InvalidArgument("empty endpoint list");
  }
  return endpoints;
}

CubeClient::CubeClient(Endpoint endpoint, ClientOptions options)
    : endpoint_(std::move(endpoint)),
      options_(options),
      peer_(endpoint_.ToString()) {}

CubeClient::~CubeClient() { Close(); }

void CubeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status CubeClient::Connect() {
  // Name resolution stays trivial on purpose: IPv4 literals plus the one
  // alias everyone actually uses. No getaddrinfo in the serving path.
  const char* host = endpoint_.host == "localhost" ? "127.0.0.1"
                                                   : endpoint_.host.c_str();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint_.port);
  if (::inet_pton(AF_INET, host, &addr.sin_addr) != 1) {
    return Status::InvalidArgument("endpoint host \"" + endpoint_.host +
                                   "\" is not an IPv4 literal");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return Errno("socket", peer_);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      Status status = Errno("connect", peer_);
      ::close(fd);
      return status;
    }
    // Non-blocking connect: poll for writability within the connect
    // timeout, then read SO_ERROR for the actual outcome.
    pollfd waiter{};
    waiter.fd = fd;
    waiter.events = POLLOUT;
    int ready = ::poll(&waiter, 1, options_.connect_timeout_ms);
    if (ready <= 0) {
      ::close(fd);
      if (ready == 0) {
        return Status::IoError("connect timed out after " +
                               std::to_string(options_.connect_timeout_ms) +
                               "ms (peer " + peer_ + ")");
      }
      return Errno("poll", peer_);
    }
    int error = 0;
    socklen_t error_len = sizeof(error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &error_len) != 0 ||
        error != 0) {
      ::close(fd);
      if (error != 0) errno = error;
      return Errno("connect", peer_);
    }
  }
  // Back to blocking with per-frame timeouts: a hung replica turns into a
  // timed-out frame read, which the pool treats as any other transport
  // error (close + retry elsewhere).
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  timeval io_timeout{};
  io_timeout.tv_sec = options_.io_timeout_ms / 1000;
  io_timeout.tv_usec = (options_.io_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &io_timeout, sizeof(io_timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &io_timeout, sizeof(io_timeout));
  int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  fd_ = fd;
  return Status::OK();
}

Result<std::string> CubeClient::Call(std::string_view request_json) {
  if (fd_ < 0) {
    SCD_RETURN_IF_ERROR(Connect());
  }
  Status written = server::WriteFrame(fd_, request_json, peer_);
  if (!written.ok()) {
    Close();
    return written;
  }
  Result<std::string> response =
      server::ReadFrame(fd_, options_.max_frame_bytes, peer_);
  if (!response.ok()) Close();
  return response;
}

ClientPool::ClientPool(Endpoint endpoint, ClientOptions options)
    : endpoint_(std::move(endpoint)), options_(options) {}

std::unique_ptr<CubeClient> ClientPool::Acquire() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_.empty()) {
      std::unique_ptr<CubeClient> conn = std::move(idle_.back());
      idle_.pop_back();
      return conn;
    }
  }
  return std::make_unique<CubeClient>(endpoint_, options_);
}

void ClientPool::Release(std::unique_ptr<CubeClient> conn) {
  if (conn == nullptr || !conn->connected()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (idle_.size() >= kMaxIdle) return;  // drop: pool is full
  idle_.push_back(std::move(conn));
}

void ClientPool::DropIdle() {
  std::vector<std::unique_ptr<CubeClient>> doomed;
  std::lock_guard<std::mutex> lock(mu_);
  doomed.swap(idle_);
}

Result<std::string> ClientPool::Call(std::string_view request_json) {
  Status last = Status::OK();
  for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
    std::unique_ptr<CubeClient> conn = Acquire();
    Result<std::string> response = conn->Call(request_json);
    if (response.ok()) {
      Release(std::move(conn));
      return response;
    }
    // Transport failure: the connection is already closed; retry on a fresh
    // one (safe — every wire op is idempotent server-side).
    last = response.status();
  }
  return last;
}

}  // namespace scdwarf::client
