/// \file client.h
/// \brief Client library for the scdwarf wire protocol: a single pooled
/// connection type (CubeClient) plus a thread-safe connection pool
/// (ClientPool) with bounded retries.
///
/// Design notes:
///  - Connections are lazy: a CubeClient connects on the first Call (with a
///    connect timeout via non-blocking connect + poll), then sets socket
///    send/receive timeouts so a hung server surfaces as a timed-out IoError
///    instead of a stuck thread.
///  - Any transport error closes the connection; the next Call reconnects.
///    Protocol-level errors (an "ok":false response) are NOT transport
///    errors — the frame arrived fine — and never close the socket.
///  - ClientPool::Call retries on a fresh connection up to kMaxRetries
///    times. That is safe because every wire op is idempotent on the server:
///    queries are pure reads and query_open just allocates another session
///    (reaped by TTL if the response was lost).
///  - Every error message carries the endpoint ("... (peer 127.0.0.1:4321)"),
///    threaded through wire::ReadFull/WriteFull, so router retry logs name
///    the replica that failed.

#ifndef SCDWARF_CLIENT_CLIENT_H_
#define SCDWARF_CLIENT_CLIENT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace scdwarf::client {

/// \brief A host:port pair. Only IPv4 literals and "localhost" are
/// supported — the fleet this targets is loopback / rack-local.
struct Endpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  std::string ToString() const { return host + ":" + std::to_string(port); }

  bool operator==(const Endpoint& other) const {
    return host == other.host && port == other.port;
  }
};

/// \brief Parses "host:port" (host may be omitted: ":9000" and "9000" both
/// mean 127.0.0.1). InvalidArgument on malformed input.
Result<Endpoint> ParseEndpoint(std::string_view text);

/// \brief Parses a comma-separated endpoint list ("host:port,host:port,...").
/// Empty segments are rejected.
Result<std::vector<Endpoint>> ParseEndpointList(std::string_view text);

/// \brief Client knobs. Defaults suit loopback fleets.
struct ClientOptions {
  int connect_timeout_ms = 2000;
  int io_timeout_ms = 5000;  ///< per-frame send/receive timeout
  size_t max_frame_bytes = 1 << 20;
};

/// \brief One connection to one server. Not thread-safe — either own one per
/// thread or go through ClientPool.
class CubeClient {
 public:
  explicit CubeClient(Endpoint endpoint, ClientOptions options = {});
  ~CubeClient();

  CubeClient(const CubeClient&) = delete;
  CubeClient& operator=(const CubeClient&) = delete;

  /// \brief Sends one request payload and returns the response payload.
  /// Connects lazily; any transport error closes the connection (the next
  /// Call reconnects) and is returned with the peer address in the message.
  Result<std::string> Call(std::string_view request_json);

  /// True while a socket is open (it may still be dead; the next Call finds
  /// out).
  bool connected() const { return fd_ >= 0; }

  /// Closes the connection if open. Idempotent.
  void Close();

  const Endpoint& endpoint() const { return endpoint_; }

 private:
  Status Connect();

  Endpoint endpoint_;
  ClientOptions options_;
  std::string peer_;  ///< endpoint_.ToString(), for error annotation
  int fd_ = -1;
};

/// \brief Thread-safe pool of CubeClient connections to one endpoint.
class ClientPool {
 public:
  explicit ClientPool(Endpoint endpoint, ClientOptions options = {});

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  /// \brief Acquire → Call → Release, retrying transport errors on a fresh
  /// connection up to kMaxRetries times. Returns the last transport
  /// error when every attempt fails.
  Result<std::string> Call(std::string_view request_json);

  /// \brief Takes an idle connection, or builds a new one (still
  /// unconnected — the first Call connects).
  std::unique_ptr<CubeClient> Acquire();

  /// \brief Returns \p conn to the idle list; drops it instead when the pool
  /// already holds kMaxIdle connections or the connection is closed.
  void Release(std::unique_ptr<CubeClient> conn);

  /// \brief Closes every idle connection (live checked-out connections are
  /// unaffected). The router calls this when it marks a replica unhealthy,
  /// so no stale socket to a dead process is ever reused.
  void DropIdle();

  const Endpoint& endpoint() const { return endpoint_; }

 private:
  /// Idle connections kept per endpoint; extras are closed on release.
  static constexpr size_t kMaxIdle = 8;
  /// Call's attempts are 1 + kMaxRetries, each on a fresh or pooled
  /// connection. Retries fire only on transport errors (see file comment).
  static constexpr int kMaxRetries = 2;

  Endpoint endpoint_;
  ClientOptions options_;
  std::mutex mu_;
  std::vector<std::unique_ptr<CubeClient>> idle_;
};

}  // namespace scdwarf::client

#endif  // SCDWARF_CLIENT_CLIENT_H_
