/// \file router.h
/// \brief The shard router: a FrameHandler that fans the wire protocol out
/// over a fleet of replica servers, so N processes serve one published cube
/// behind a single endpoint.
///
/// Routing rules:
///  - One-shot queries (point/aggregate/slice/rollup) hash their normalized
///    cache key over the currently-healthy replicas — the same logical query
///    always lands on the same replica while the fleet is stable, which
///    keeps per-replica result caches hot. A transport failure marks the
///    replica and retries the next healthy one.
///  - Cursor sessions are sticky: query_open picks a replica round-robin and
///    every query_next of that session goes back to it. The router records
///    the epoch the session was pinned to; when the replica dies mid-drain,
///    the session is re-opened on another replica *at that exact epoch*
///    (replicas retain recent epochs — see ServerOptions.retain_epochs),
///    already-delivered pages are replayed and discarded, and the drain
///    continues byte-identically. Sessions whose epoch has aged out
///    everywhere surface code "epoch_gone".
///  - stats / metrics / metrics_text / ping answer about the router itself;
///    load_snapshot is rejected (the publisher notifies replicas directly).
///  - Responses are forwarded as raw bytes. The router reads only the
///    envelope (server::ReadEnvelope: ok, epoch, code, cursor, done from
///    the response's fixed head and page trailer, never the rows) and
///    rewrites the cursor id's digits in place (replica cursor id -> router
///    cursor id), so row payloads stay byte-identical to the replica's.
///
/// Health: a background thread pings every replica each health_interval_ms;
/// unhealthy_after consecutive failures mark a replica down (its idle
/// connections are dropped) until a later ping succeeds. Interval 0 disables
/// the thread — tests drive CheckReplicasOnce() manually.

#ifndef SCDWARF_REPLICA_ROUTER_H_
#define SCDWARF_REPLICA_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "client/client.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "server/frame_handler.h"
#include "server/wire.h"

namespace scdwarf::replica {

/// \brief Router knobs.
struct RouterOptions {
  /// Per-replica connection options (timeouts, pool size, retries).
  client::ClientOptions client;

  /// Health-check period; 0 disables the background thread.
  int health_interval_ms = 500;

  /// Consecutive failures before a replica is marked unhealthy.
  int unhealthy_after = 2;

  /// Router-side cursor sessions held open at once.
  size_t max_sessions = 1024;
};

/// \brief Fans requests out over replica servers. Thread-safe; typically
/// fronted by a server::TcpServer.
class Router : public server::FrameHandler {
 public:
  Router(std::vector<client::Endpoint> replicas, RouterOptions options = {});
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  std::string HandleFrame(std::string_view request_json,
                          server::ClientContext* client = nullptr) override;
  void CloseClientSessions(server::ClientContext& client) override;

  /// \brief Pings every replica once, updating health state and the known
  /// epochs. The health thread calls this periodically; tests call it
  /// directly. Returns how many replicas answered.
  size_t CheckReplicasOnce();

  size_t num_replicas() const { return backends_.size(); }
  size_t healthy_replicas() const;
  size_t open_sessions() const;

  /// Highest epoch any replica has reported (the router's own envelope
  /// epoch for requests it answers itself).
  uint64_t BestEpoch() const;

  /// {"metrics":[...]} over the router registry + the process-global one.
  std::string MetricsJson() const;
  /// The same series in Prometheus text exposition format.
  std::string MetricsText() const;

 private:
  /// One replica: its endpoint, connection pool and health state.
  struct Backend {
    client::Endpoint endpoint;
    std::unique_ptr<client::ClientPool> pool;
    std::atomic<bool> healthy{true};  ///< optimistic until proven otherwise
    std::atomic<int> failures{0};
    std::atomic<uint64_t> epoch{0};   ///< last epoch seen in a response
    metrics::Counter* forwarded = nullptr;  ///< router_forwarded_total{replica}
    metrics::Gauge* healthy_gauge = nullptr;  ///< router_replica_healthy{replica}
    metrics::Gauge* epoch_gauge = nullptr;    ///< router_replica_epoch{replica}
  };

  /// One sticky cursor session. backend/replica_cursor/pages_delivered are
  /// guarded by mu (sessions_mu_ only guards the id map).
  struct RouterSession {
    uint64_t id = 0;
    uint64_t epoch = 0;          ///< pinned epoch, fixed at open
    size_t backend = 0;          ///< index into backends_
    uint64_t replica_cursor = 0;
    std::string open_request;    ///< epoch-pinned reopen frame payload
    uint64_t pages_delivered = 0;
    std::mutex mu;
  };

  std::string ForwardOneShot(const server::QueryRequest& request,
                             std::string_view request_json);
  std::string HandleOpen(const server::QueryRequest& request,
                         std::string_view request_json,
                         server::ClientContext* client);
  std::string HandleNext(const server::QueryRequest& request,
                         server::ClientContext* client);
  std::string HandleClose(const server::QueryRequest& request,
                          server::ClientContext* client);
  /// Re-opens \p session on another healthy replica at its pinned epoch and
  /// replays the already-delivered pages. Returns the next page's raw
  /// replica response on success; an error response payload otherwise.
  std::string FailOverSession(RouterSession* session, size_t failed_backend,
                              server::ClientContext* client);
  /// Delivers one raw query_next replica response \p page whose envelope
  /// is \p env: bumps page accounting, reaps the session when done,
  /// rewrites the cursor id in place.
  void DeliverPage(RouterSession* session, const server::Envelope& env,
                   server::ClientContext* client, std::string* page);
  /// One replica call, timed as router_hop_us{phase="rtt"} and a
  /// router.forward span.
  Result<std::string> Forward(Backend* backend, std::string_view request_json);

  /// Healthy backend indices, in order.
  std::vector<size_t> HealthyIndices() const;
  void MarkFailure(Backend* backend);
  void MarkHealthy(Backend* backend);
  /// Records \p epoch as the replica's current epoch. Only called where the
  /// response reports the replica's *current* epoch (ping, one-shots) — a
  /// pinned query_open reports the pinned epoch, which must not clobber it.
  void ObserveEpoch(Backend* backend, uint64_t epoch);
  void EraseSession(uint64_t id);
  std::string BuildStatsPayload() const;

  RouterOptions options_;
  std::vector<std::unique_ptr<Backend>> backends_;  ///< fixed at construction
  metrics::MetricRegistry registry_;
  Stopwatch uptime_;
  metrics::Counter* requests_total_;         ///< router_requests_total
  metrics::Counter* retries_total_;          ///< router_retries_total
  metrics::Counter* failovers_total_;        ///< router_failovers_total
  metrics::Counter* sessions_opened_;        ///< router_sessions_opened_total
  metrics::Gauge* sessions_open_;            ///< router_sessions_open
  metrics::Counter* health_checks_total_;    ///< router_health_checks_total
  metrics::Counter* replica_unhealthy_;      ///< router_replica_unhealthy_total
  FixedBucketHistogram* hop_rtt_us_;         ///< router_hop_us{phase=rtt}
  FixedBucketHistogram* hop_relay_us_;       ///< router_hop_us{phase=relay}

  mutable std::mutex sessions_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<RouterSession>> sessions_;
  uint64_t next_cursor_id_ = 1;      ///< guarded by sessions_mu_
  std::atomic<size_t> round_robin_{0};

  std::mutex health_mu_;
  std::condition_variable health_cv_;
  bool stopping_ = false;  ///< guarded by health_mu_
  std::thread health_thread_;
};

}  // namespace scdwarf::replica

#endif  // SCDWARF_REPLICA_ROUTER_H_
