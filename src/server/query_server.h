/// \file query_server.h
/// \brief The concurrent cube query service: owns the epoch-snapshot cube
/// store, the result cache and the cursor-session table, and turns request
/// frames into response frames.
///
/// Execution model: each caller (a TCP connection thread, or a test/bench
/// thread through ServerHandle) runs its own request in HandleFrame once it
/// holds one of num_workers execution slots, so at most num_workers requests
/// execute at once and the server owns no thread. Admission control bounds
/// the requests waiting for a slot or executing; anything beyond the bound
/// is answered immediately with an "overloaded" rejection instead of joining
/// an unbounded queue — overload shows up as explicit errors, not as
/// unbounded latency.
///
/// Cursor sessions: query_open pins a session to the current epoch snapshot
/// (the session holds the snapshot's shared_ptr, so later publishes never
/// change what an open cursor sees) and query_next pages its rows. Sessions
/// are bounded by max_sessions and reaped after session_ttl_seconds idle.

#ifndef SCDWARF_SERVER_QUERY_SERVER_H_
#define SCDWARF_SERVER_QUERY_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "dwarf/cursor.h"
#include "dwarf/dwarf_cube.h"
#include "dwarf/update.h"
#include "server/epoch_cube.h"
#include "server/frame_handler.h"
#include "server/result_cache.h"
#include "server/wire.h"

namespace scdwarf::server {

/// \brief Serving knobs. Defaults suit the tests and small deployments.
struct ServerOptions {
  /// Most requests executing at once; 1 = one at a time. Resolved through
  /// the same policy as the construction pipeline: 0 = auto (SCDWARF_THREADS
  /// env override, else hardware_concurrency); see
  /// common::ResolveThreadCount.
  int num_workers = 0;

  /// Admission bound: maximum requests waiting for an execution slot or
  /// executing at once. Requests arriving beyond it are rejected with code
  /// "overloaded".
  size_t max_queue_depth = 128;

  /// Result-cache entries across all shards; 0 disables caching.
  size_t cache_capacity = 4096;

  /// Cursor sessions held open at once; query_open beyond the cap is
  /// rejected with code "too_many_sessions".
  size_t max_sessions = 64;

  /// Idle time after which an open cursor session is reaped (the sweep runs
  /// on every query_open, and on demand via ReapIdleSessions).
  double session_ttl_seconds = 300.0;

  /// Test/fault-injection seam: when set, every admitted request invokes it
  /// on the calling thread once it holds an execution slot, before executing
  /// (the overload tests park a request here to fill the queue
  /// deterministically).
  std::function<void()> pre_execute_hook;

  /// When non-empty, the server spools each published epoch (including the
  /// initial cube, as epoch initial_epoch) to
  /// `<snapshot_dir>/epoch-<NNN>.cf` — the fan-out feed replicas load from.
  std::string snapshot_dir;

  /// Epochs kept reachable for epoch-pinned query_open (router failover),
  /// current one included. Clamped to at least 1.
  size_t retain_epochs = 4;

  /// Epoch of the initial cube. A replica that loads a mid-history snapshot
  /// file passes the file's epoch here so its numbering matches the
  /// publisher's.
  uint64_t initial_epoch = 0;
};

/// \brief Point-in-time serving statistics (the "stats" op renders these).
struct ServerStats {
  uint64_t epoch = 0;
  uint64_t queries_total = 0;   ///< completed requests, including errors
  uint64_t rejected_total = 0;  ///< admission rejections
  uint64_t updates_applied = 0;
  double uptime_seconds = 0;
  double qps = 0;  ///< queries_total / uptime
  uint64_t latency_count = 0;
  double latency_p50_us = 0;
  double latency_p90_us = 0;
  double latency_p99_us = 0;
  ResultCacheStats cache;
  double cache_hit_rate = 0;  ///< hits / (hits + misses), 0 when no lookups
  uint64_t sessions_open = 0;      ///< cursor sessions currently held
  uint64_t sessions_opened = 0;    ///< successful query_open calls
  uint64_t sessions_expired = 0;   ///< sessions reaped by the idle TTL
  uint64_t sessions_rejected = 0;  ///< query_open rejected by max_sessions
  int num_workers = 0;
  size_t max_queue_depth = 0;
  dwarf::UpdateProfile last_update;  ///< profile of the newest ApplyUpdate
};

/// \brief Multi-client cube query service over one DwarfCube.
class QueryServer : public FrameHandler {
 public:
  explicit QueryServer(dwarf::DwarfCube cube, ServerOptions options = {});
  ~QueryServer() override = default;

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// \brief Serves one request frame payload and returns the response frame
  /// payload. Runs the request on the calling thread once it holds an
  /// execution slot, or answers "overloaded" at once when max_queue_depth
  /// requests are already waiting or executing. Thread-safe.
  /// \p client, when given, records cursor sessions opened by this caller so
  /// CloseClientSessions can reclaim them on disconnect.
  std::string HandleFrame(std::string_view request_json,
                          ClientContext* client = nullptr) override;

  /// \brief Merges \p tuples into the served cube and publishes the next
  /// epoch; the one code path that publishes a batch. Under the publish
  /// mutex it stages the batch in a dwarf::CubeUpdater, runs the incremental
  /// Apply() — or, once the live cube has kCompactionChunkLimit arena
  /// chunks, the compacting Rebuild() — publishes the result, sweeps the
  /// result cache and spools the snapshot. The sweep carries entries whose
  /// query provably misses every changed key prefix over to the new epoch
  /// and invalidates the rest. Open cursor sessions are unaffected — they
  /// keep serving their pinned snapshot.
  Result<uint64_t> ApplyUpdate(
      const std::vector<std::pair<std::vector<std::string>, dwarf::Measure>>&
          tuples);

  /// \brief Closes every cursor session recorded in \p client (idempotent;
  /// already-expired cursors are skipped silently).
  void CloseClientSessions(ClientContext& client) override;

  /// \brief Loads the snapshot file at \p path and publishes it as the
  /// served cube (a replica's spool poll). The file's epoch must exceed the
  /// current epoch — FailedPrecondition otherwise. The result cache is
  /// dropped wholesale on success: a snapshot carries no changed-prefix
  /// list, so nothing can be proven unaffected. Open cursor sessions keep
  /// serving their pinned snapshots. Returns the published epoch.
  Result<uint64_t> LoadSnapshot(const std::string& path);

  /// \brief Drops sessions idle longer than session_ttl_seconds and returns
  /// how many were reaped. Runs implicitly on every query_open.
  size_t ReapIdleSessions();

  ServerStats Stats() const;

  /// \brief The "metrics" op payload: {"metrics":[...]} covering every series
  /// of this server's registry followed by the process-global registry (the
  /// build-side instrumentation). See metrics::SnapshotToJson for the entry
  /// shape.
  std::string MetricsJson() const;

  /// \brief The same series as MetricsJson rendered in Prometheus text
  /// exposition format (the "metrics_text" op / --prometheus-dump output).
  std::string MetricsText() const;

  /// Incremental publishes append one arena chunk per epoch; the publish
  /// that finds this many chunks rebuilds from scratch instead, resetting
  /// the chain (and dropping dead nodes) before chunk-lookup costs creep
  /// into reads.
  static constexpr size_t kCompactionChunkLimit = 64;

  uint64_t epoch() const { return store_.epoch(); }
  int num_workers() const { return num_workers_; }
  size_t open_sessions() const;
  const EpochCubeStore& store() const { return store_; }
  const ResultCache& cache() const { return cache_; }

 private:
  /// Result-cache lock shards (clamped to [1, cache_capacity]).
  static constexpr size_t kCacheShards = 8;

  /// \brief One open cursor: the pinned snapshot plus the paused traversal.
  struct Session {
    Session(uint64_t id, uint64_t epoch,
            std::shared_ptr<const dwarf::DwarfCube> cube,
            dwarf::RowCursor cursor, size_t page_size, double now)
        : id(id),
          epoch(epoch),
          cube(std::move(cube)),
          cursor(std::move(cursor)),
          page_size(page_size),
          last_used(now) {}

    const uint64_t id;
    const uint64_t epoch;  ///< the epoch the session serves, forever
    const std::shared_ptr<const dwarf::DwarfCube> cube;  ///< snapshot pin
    dwarf::RowCursor cursor;  ///< guarded by mu
    const size_t page_size;
    std::mutex mu;           ///< serializes query_next on this cursor
    double last_used;        ///< uptime seconds; guarded by sessions_mu_
  };

  /// Executes a parsed-or-unparsable request (cache + snapshot path).
  std::string Process(std::string_view request_json, ClientContext* client);
  /// Runs one successfully-parsed request (the op switch + cache path).
  std::string Dispatch(const QueryRequest& request,
                       const EpochCubeStore::Snapshot& snapshot,
                       ClientContext* client);
  std::string HandleQueryOpen(const QueryRequest& request,
                              const EpochCubeStore::Snapshot& snapshot,
                              ClientContext* client);
  /// Advances the request's cursor session one page, reclaiming the session
  /// (and the client's cursor record) when drained.
  std::string HandleQueryNext(const QueryRequest& request,
                              ClientContext* client);
  std::string HandleQueryClose(const QueryRequest& request,
                               ClientContext* client);
  size_t ReapIdleSessionsLocked(double now);  // requires sessions_mu_
  std::string BuildStatsPayload() const;
  /// Writes the current cube as \p epoch into options_.snapshot_dir and
  /// bumps the publish metrics; failures are reported on stderr, never
  /// thrown into the serving path. No-op when snapshot_dir is unset.
  void SpoolSnapshot(uint64_t epoch);

  ServerOptions options_;
  int num_workers_;
  /// Per-instance registry: serving metrics stay scoped to this server, so
  /// concurrent instances (tests, benches) never bleed into each other.
  /// Declared before cache_ and the metric pointers below, which register
  /// into it during construction.
  metrics::MetricRegistry registry_;
  EpochCubeStore store_;
  ResultCache cache_;
  dwarf::CubeSchema schema_;  ///< dimension layout; fixed across epochs
  /// num_workers_ execution slots; a caller holds one while its request
  /// runs.
  std::counting_semaphore<> slots_;
  Stopwatch uptime_;
  FixedBucketHistogram* latency_us_;  ///< server_request_us
  /// server_op_us{op=...}, indexed by RequestOp.
  std::array<FixedBucketHistogram*, kNumRequestOps> op_latency_us_{};
  /// Admission-control level (waiting + executing). Stays a plain atomic —
  /// its acq_rel increment/decrement IS the admission decision, not a
  /// monitoring read; max_queue_depth bounds it.
  std::atomic<size_t> in_flight_{0};
  metrics::Counter* requests_total_;       ///< server_requests_total
  metrics::Counter* rejected_total_;       ///< server_rejected_total
  metrics::Counter* updates_applied_;      ///< server_updates_applied_total
  /// server_range_revalidations_total: cached entries with a value-range
  /// constraint carried across an epoch publish because every changed key
  /// provably missed the range (served again without recomputation).
  metrics::Counter* range_revalidations_;
  /// Serializes publishes: ApplyUpdate and LoadSnapshot hold it from the
  /// epoch read to the cache sweep (and the spool), so epochs, sweeps and
  /// spooled files all arrive in epoch order.
  std::mutex publish_mu_;
  mutable std::mutex last_update_mu_;
  dwarf::UpdateProfile last_update_;
  mutable std::mutex sessions_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Session>> sessions_;
  uint64_t next_cursor_id_ = 1;  ///< guarded by sessions_mu_
  metrics::Counter* sessions_opened_;    ///< server_sessions_opened_total
  metrics::Counter* sessions_expired_;   ///< server_sessions_expired_total
  metrics::Counter* sessions_rejected_;  ///< server_sessions_rejected_total
  metrics::Gauge* sessions_open_;        ///< server_sessions_open
  /// Snapshot fan-out instrumentation (publisher + replica sides).
  metrics::Counter* snapshots_published_;    ///< server_snapshots_published_total
  FixedBucketHistogram* snapshot_write_us_;  ///< server_snapshot_write_us
  metrics::Counter* snapshots_loaded_;       ///< replica_snapshots_loaded_total
  FixedBucketHistogram* snapshot_load_us_;   ///< replica_snapshot_load_us
  metrics::Gauge* snapshot_bytes_;           ///< replica_snapshot_bytes
};

/// \brief In-process client used by tests and the load-generator bench: the
/// same framing semantics as the TCP path minus the socket, including the
/// per-connection session cleanup on destruction.
class ServerHandle {
 public:
  explicit ServerHandle(QueryServer* server) : server_(server) {}
  ~ServerHandle() {
    if (server_ != nullptr) server_->CloseClientSessions(context_);
  }

  ServerHandle(const ServerHandle&) = delete;
  ServerHandle& operator=(const ServerHandle&) = delete;
  ServerHandle(ServerHandle&& other) noexcept
      : server_(other.server_), context_(std::move(other.context_)) {
    other.server_ = nullptr;
    other.context_.cursors.clear();
  }

  /// Sends one request payload, returns the response payload. Blocking.
  std::string Call(std::string_view request_json) {
    return server_->HandleFrame(request_json, &context_);
  }

  /// Opens a cursor session over \p query_json (a slice/rollup request
  /// object) with the given page size; returns the raw response payload.
  std::string QueryOpen(std::string_view query_json, size_t page_size) {
    return Call("{\"op\":\"query_open\",\"query\":" + std::string(query_json) +
                ",\"page_size\":" + std::to_string(page_size) + "}");
  }

  std::string QueryNext(uint64_t cursor) {
    return Call("{\"op\":\"query_next\",\"cursor\":" + std::to_string(cursor) +
                "}");
  }

  std::string QueryClose(uint64_t cursor) {
    return Call("{\"op\":\"query_close\",\"cursor\":" +
                std::to_string(cursor) + "}");
  }

 private:
  QueryServer* server_;
  ClientContext context_;
};

}  // namespace scdwarf::server

#endif  // SCDWARF_SERVER_QUERY_SERVER_H_
