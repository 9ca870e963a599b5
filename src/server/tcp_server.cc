#include "server/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "server/wire.h"

namespace scdwarf::server {

Status TcpServer::Start(uint16_t port, const std::string& bind_address) {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("server already started");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        "invalid bind address \"" + bind_address +
        "\" (expected an IPv4 literal such as 127.0.0.1 or 0.0.0.0)");
  }
  addr.sin_port = htons(port);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket: " + std::string(std::strerror(errno)));
  }
  int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status =
        Status::IoError("bind: " + std::string(std::strerror(errno)));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) != 0) {
    Status status =
        Status::IoError("listen: " + std::string(std::strerror(errno)));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    Status status =
        Status::IoError("getsockname: " + std::string(std::strerror(errno)));
    ::close(fd);
    return status;
  }
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  bind_address_ = bind_address;
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or unrecoverable error): stop accepting
    }
    // Reap before registering so the connection table never grows past
    // live connections + the ones that finished since the last accept.
    ReapFinishedConnections();
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    uint64_t id = next_connection_id_++;
    Connection& conn = connections_[id];
    conn.fd = fd;
    conn.thread = std::thread([this, id, fd] { ServeConnection(id, fd); });
  }
}

void TcpServer::ServeConnection(uint64_t id, int fd) {
  ClientContext client;
  while (!stopping_.load(std::memory_order_acquire)) {
    Result<std::string> frame = ReadFrame(fd, max_frame_bytes_);
    if (!frame.ok()) break;  // clean EOF, oversized frame, or read error
    std::string response = server_->HandleFrame(*frame, &client);
    if (!WriteFrame(fd, response).ok()) break;
  }
  // A dropped connection must not leak its cursor sessions until the TTL.
  server_->CloseClientSessions(client);
  ::shutdown(fd, SHUT_RDWR);
  // Self-register as finished; the next reap joins this thread and closes
  // the socket (the fd stays open until then — no reuse race).
  std::lock_guard<std::mutex> lock(mu_);
  finished_.push_back(id);
}

size_t TcpServer::ReapFinishedConnections() {
  std::vector<std::thread> done_threads;
  std::vector<int> done_fds;
  size_t live = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t id : finished_) {
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // already taken by Stop()
      done_threads.push_back(std::move(it->second.thread));
      done_fds.push_back(it->second.fd);
      connections_.erase(it);
    }
    finished_.clear();
    live = connections_.size();
  }
  for (std::thread& thread : done_threads) {
    if (thread.joinable()) thread.join();
  }
  for (int fd : done_fds) ::close(fd);
  return live;
}

void TcpServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_release);
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::map<uint64_t, Connection> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections.swap(connections_);
    finished_.clear();
  }
  for (auto& [id, conn] : connections) {
    ::shutdown(conn.fd, SHUT_RDWR);  // unblocks pending reads
  }
  for (auto& [id, conn] : connections) {
    if (conn.thread.joinable()) conn.thread.join();
  }
  for (auto& [id, conn] : connections) ::close(conn.fd);
}

}  // namespace scdwarf::server
