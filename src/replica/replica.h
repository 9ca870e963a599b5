/// \file replica.h
/// \brief A replica serving process: loads the newest epoch snapshot file
/// from a spool directory, serves it read-only over TCP, and follows later
/// epochs by polling the spool. No wire op changes what a replica serves.
///
/// Replicas never mutate snapshot files — they mmap them PROT_READ (see
/// snapshot.h) — and never apply updates themselves; the single publisher
/// process owns the write path, replicas fan out the read path. Each replica
/// retains recent epochs (ServerOptions.retain_epochs) so a router can fail
/// a mid-drain cursor over to it at the epoch the cursor started on.

#ifndef SCDWARF_REPLICA_REPLICA_H_
#define SCDWARF_REPLICA_REPLICA_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/result.h"
#include "server/query_server.h"
#include "server/tcp_server.h"

namespace scdwarf::replica {

/// \brief Replica knobs.
struct ReplicaOptions {
  std::string snapshot_dir;  ///< spool to bootstrap + follow (required)
  uint16_t port = 0;         ///< 0 = kernel-assigned
  /// Address the TCP listener binds ("0.0.0.0" serves every interface —
  /// required when the spool is a shared filesystem and clients are remote).
  std::string bind_address = server::TcpServer::kLoopback;
  int num_workers = 0;  ///< ServerOptions::num_workers; 0 = auto
  size_t cache_capacity = 4096;
  size_t max_sessions = 64;
  size_t retain_epochs = 4;
  /// Spool poll period; 0 serves the epoch loaded at start-up.
  int poll_interval_ms = 0;
  /// How long Start() waits for the first loadable snapshot file to appear
  /// before giving up (the publisher may still be starting).
  int bootstrap_wait_ms = 10000;
};

/// \brief One replica process: QueryServer + TcpServer + optional
/// spool-poll thread.
class ReplicaServer {
 public:
  explicit ReplicaServer(ReplicaOptions options);
  ~ReplicaServer();

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  /// \brief Waits for a loadable snapshot to appear in the spool (up to
  /// bootstrap_wait_ms), then catches up: the trailing retain_epochs spool
  /// files are loaded oldest-first, so a restarted replica rejoins at the
  /// newest spooled epoch with its epoch-retention window already populated
  /// for epoch-pinned router failover. Corrupt or truncated files are skipped (counted by
  /// replica_snapshot_load_failures_total), never fatal, as long as at
  /// least one file loads.
  Status Start();

  /// \brief Stops serving and joins the poll thread. Idempotent.
  void Stop();

  int port() const { return tcp_ != nullptr ? tcp_->port() : 0; }
  uint64_t epoch() const { return server_ != nullptr ? server_->epoch() : 0; }
  server::QueryServer* server() { return server_.get(); }
  server::TcpServer* tcp() { return tcp_.get(); }

  /// \brief Loads every spool snapshot newer than the current epoch, in
  /// epoch order. Returns how many were loaded. A file that fails to load
  /// (truncated, bad magic, mid-rename garbage) is skipped with
  /// replica_snapshot_load_failures_total bumped — the next good file still
  /// loads and serving never stops; a failed path is not re-attempted until
  /// its size changes. The poll thread calls this periodically; tests call
  /// it directly.
  Result<size_t> PollOnce();

 private:
  /// True when \p path already failed at its current size (so one bad file
  /// is counted once, not once per poll).
  bool AlreadyFailed(const std::string& path);
  void RememberFailure(const std::string& path, const Status& status);

  ReplicaOptions options_;
  std::unique_ptr<server::QueryServer> server_;
  std::unique_ptr<server::TcpServer> tcp_;
  metrics::Counter* load_failures_;  ///< replica_snapshot_load_failures_total
  std::mutex failed_mu_;
  std::map<std::string, uint64_t> failed_sizes_;  ///< guarded by failed_mu_
  std::mutex poll_mu_;
  std::condition_variable poll_cv_;
  bool stopping_ = false;  ///< guarded by poll_mu_
  std::thread poll_thread_;
};

}  // namespace scdwarf::replica

#endif  // SCDWARF_REPLICA_REPLICA_H_
