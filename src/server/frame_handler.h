/// \file frame_handler.h
/// \brief The transport-facing request interface: anything that can turn one
/// request frame payload into one response frame payload. QueryServer (direct
/// serving) and replica::Router (fan-out over replicas) both implement it, so
/// TcpServer can front either without knowing which.

#ifndef SCDWARF_SERVER_FRAME_HANDLER_H_
#define SCDWARF_SERVER_FRAME_HANDLER_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace scdwarf::server {

/// \brief Per-connection state: the cursor ids opened over one connection,
/// so the transport can reclaim them on disconnect. Owned by a single
/// connection thread — not thread-safe on its own.
struct ClientContext {
  std::vector<uint64_t> cursors;

  /// Drops \p cursor_id, once its session is drained or closed.
  void ForgetCursor(uint64_t cursor_id) {
    auto it = std::find(cursors.begin(), cursors.end(), cursor_id);
    if (it != cursors.end()) cursors.erase(it);
  }
};

/// \brief Serves one request frame at a time. Implementations must be
/// thread-safe: the TCP front-end calls HandleFrame concurrently from every
/// connection thread.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;

  /// \brief Serves one request frame payload and returns the response frame
  /// payload (never throws; protocol errors become error payloads).
  /// \p client, when given, records cursor sessions opened by this caller so
  /// CloseClientSessions can reclaim them on disconnect.
  virtual std::string HandleFrame(std::string_view request_json,
                                  ClientContext* client = nullptr) = 0;

  /// \brief Closes every cursor session recorded in \p client (idempotent;
  /// already-expired cursors are skipped silently).
  virtual void CloseClientSessions(ClientContext& client) = 0;
};

}  // namespace scdwarf::server

#endif  // SCDWARF_SERVER_FRAME_HANDLER_H_
