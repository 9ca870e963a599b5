#include "server/query_server.h"

#include <sys/stat.h>

#include <cstdio>
#include <future>

#include "common/parallel.h"
#include "common/trace.h"
#include "json/json_parser.h"
#include "json/json_value.h"
#include "replica/snapshot.h"

namespace scdwarf::server {

namespace {

using json::JsonObject;
using json::JsonValue;

std::string MakeOverloadPayload(size_t max_queue_depth) {
  return MakeErrorPayload("overloaded",
                          "server over capacity (max queue depth " +
                              std::to_string(max_queue_depth) +
                              "); retry later");
}

std::string MakeTooManySessionsPayload(size_t max_sessions) {
  return MakeErrorPayload("too_many_sessions",
                          "cursor session table full (max " +
                              std::to_string(max_sessions) +
                              "); close or drain a session and retry");
}

/// True when \p request carries a value-range constraint — a value-bound
/// aggregate range or a rollup "where" clause — i.e. the constraints the
/// revalidation sweep can decide at the string level.
bool RequestHasRangeConstraint(const QueryRequest& request) {
  for (const WirePredicate& predicate : request.predicates) {
    if (predicate.kind == dwarf::DimPredicate::Kind::kRange &&
        predicate.value_bounds) {
      return true;
    }
  }
  return !request.rollup_where.empty();
}

}  // namespace

QueryServer::QueryServer(dwarf::DwarfCube cube, ServerOptions options)
    : options_(std::move(options)),
      num_workers_(ResolveThreadCount(options_.num_workers)),
      store_(std::move(cube), options_.initial_epoch),
      cache_(options_.cache_capacity, kCacheShards, &registry_),
      schema_(store_.snapshot().cube->schema()),
      latency_us_(registry_.GetHistogram(
          "server_request_us", {},
          "end-to-end request latency including queueing (us)")),
      requests_total_(registry_.GetCounter(
          "server_requests_total", {},
          "completed requests, including error responses")),
      rejected_total_(registry_.GetCounter(
          "server_rejected_total", {},
          "requests rejected by admission control")),
      updates_applied_(registry_.GetCounter(
          "server_updates_applied_total", {},
          "epoch publishes via ApplyUpdate")),
      range_revalidations_(registry_.GetCounter(
          "server_range_revalidations_total", {},
          "cached range-constrained results carried across an epoch publish "
          "because every changed key provably missed the range")),
      sessions_opened_(registry_.GetCounter(
          "server_sessions_opened_total", {},
          "successful query_open calls")),
      sessions_expired_(registry_.GetCounter(
          "server_sessions_expired_total", {},
          "cursor sessions reaped by the idle TTL")),
      sessions_rejected_(registry_.GetCounter(
          "server_sessions_rejected_total", {},
          "query_open calls rejected by max_sessions")),
      sessions_open_(registry_.GetGauge(
          "server_sessions_open", {},
          "cursor sessions currently held open")),
      snapshots_published_(registry_.GetCounter(
          "server_snapshots_published_total", {},
          "epoch snapshot files spooled to snapshot_dir")),
      snapshot_write_us_(registry_.GetHistogram(
          "server_snapshot_write_us", {},
          "snapshot file serialize + atomic-rename latency (us)")),
      snapshots_loaded_(registry_.GetCounter(
          "replica_snapshots_loaded_total", {},
          "snapshot files loaded and published via LoadSnapshot")),
      snapshot_load_us_(registry_.GetHistogram(
          "replica_snapshot_load_us", {},
          "snapshot mmap + parse + publish latency (us)")),
      snapshot_bytes_(registry_.GetGauge(
          "replica_snapshot_bytes", {},
          "size of the most recently loaded snapshot file")) {
  for (size_t i = 0; i < kNumRequestOps; ++i) {
    op_latency_us_[i] = registry_.GetHistogram(
        "server_op_us", {{"op", RequestOpName(static_cast<RequestOp>(i))}},
        "per-op execute latency, excluding admission queueing (us)");
  }
  if (num_workers_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_workers_);
  }
  store_.set_retain_epochs(options_.retain_epochs);
  // The spool starts with the initial cube so a replica fleet can bootstrap
  // before the first update arrives.
  SpoolSnapshot(options_.initial_epoch);
}

void QueryServer::SpoolSnapshot(uint64_t epoch) {
  if (options_.snapshot_dir.empty()) return;
  std::string path;
  Status status = WriteSnapshotFile(*store_.snapshot().cube, epoch, &path);
  if (!status.ok()) {
    // Serving must not die with the spool; the gap in published files is
    // visible to operators through server_snapshots_published_total.
    std::fprintf(stderr, "scdwarf: snapshot spool for epoch %llu failed: %s\n",
                 static_cast<unsigned long long>(epoch),
                 status.ToString().c_str());
    return;
  }
  if (options_.post_publish) options_.post_publish(epoch, path);
}

Status QueryServer::WriteSnapshotFile(const dwarf::DwarfCube& cube,
                                      uint64_t epoch, std::string* path_out) {
  Stopwatch watch;
  std::string path =
      options_.snapshot_dir + "/" + replica::SnapshotFileName(epoch);
  SCD_RETURN_IF_ERROR(replica::WriteCubeSnapshot(cube, epoch, path));
  snapshots_published_->Increment();
  snapshot_write_us_->Record(watch.ElapsedMicros());
  if (path_out != nullptr) *path_out = path;
  return Status::OK();
}

std::string QueryServer::Admitted(const std::function<std::string()>& run) {
  Stopwatch watch;
  size_t depth = in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (depth >= options_.max_queue_depth) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_total_->Increment();
    return MakeResponse(false, store_.epoch(), false,
                        MakeOverloadPayload(options_.max_queue_depth));
  }
  std::string response;
  if (pool_ == nullptr) {
    // Single-worker servers execute inline, the repo-wide num_threads == 1
    // convention; admission control above still bounds concurrent callers.
    if (options_.pre_execute_hook) options_.pre_execute_hook();
    response = run();
  } else {
    std::promise<std::string> promise;
    std::future<std::string> future = promise.get_future();
    // The caller blocks on the future below, so everything \p run captures
    // (the request bytes, the ClientContext) outlives the worker-side call.
    pool_->Submit([this, &run, &promise] {
      if (options_.pre_execute_hook) options_.pre_execute_hook();
      promise.set_value(run());
    });
    response = future.get();
  }
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  requests_total_->Increment();
  latency_us_->Record(watch.ElapsedMicros());
  return response;
}

std::string QueryServer::HandleFrame(std::string_view request_json,
                                     ClientContext* client) {
  return Admitted(
      [this, request_json, client] { return Process(request_json, client); });
}

std::string QueryServer::Process(std::string_view request_json,
                                 ClientContext* client) {
  trace::ScopedSpan span("server.process");
  Result<QueryRequest> request = ParseRequest(request_json);
  EpochCubeStore::Snapshot snapshot = store_.snapshot();
  if (!request.ok()) {
    return MakeResponse(false, snapshot.epoch, false,
                        MakeErrorPayload(request.status()));
  }
  Stopwatch watch;
  std::string response = Dispatch(*request, snapshot, client);
  op_latency_us_[static_cast<size_t>(request->op)]->Record(
      watch.ElapsedMicros());
  return response;
}

std::string QueryServer::Dispatch(const QueryRequest& request,
                                  const EpochCubeStore::Snapshot& snapshot,
                                  ClientContext* client) {
  switch (request.op) {
    case RequestOp::kStats:
      return MakeResponse(true, snapshot.epoch, false, BuildStatsPayload());
    case RequestOp::kMetrics:
      return MakeResponse(true, snapshot.epoch, false, MetricsJson());
    case RequestOp::kPing: {
      JsonObject payload;
      payload.emplace_back("epoch",
                           JsonValue(static_cast<int64_t>(snapshot.epoch)));
      payload.emplace_back("uptime_s", JsonValue(uptime_.ElapsedSeconds()));
      payload.emplace_back("sessions",
                           JsonValue(static_cast<int64_t>(open_sessions())));
      return MakeResponse(true, snapshot.epoch, false,
                          json::SerializeJson(JsonValue(std::move(payload))));
    }
    case RequestOp::kMetricsText: {
      JsonObject payload;
      payload.emplace_back("text", JsonValue(MetricsText()));
      return MakeResponse(true, snapshot.epoch, false,
                          json::SerializeJson(JsonValue(std::move(payload))));
    }
    case RequestOp::kLoadSnapshot:
      return HandleLoadSnapshot(request);
    case RequestOp::kQueryOpen: {
      // An epoch-pinned open (router failover) re-opens against the retained
      // snapshot of that exact epoch, so the new cursor replays the same
      // pages byte for byte.
      if (request.open_epoch.has_value() &&
          *request.open_epoch != snapshot.epoch) {
        Result<EpochCubeStore::Snapshot> pinned =
            store_.SnapshotAt(*request.open_epoch);
        if (!pinned.ok()) {
          return MakeResponse(
              false, snapshot.epoch, false,
              MakeErrorPayload("epoch_gone", pinned.status().message()));
        }
        return HandleQueryOpen(request, *pinned, client);
      }
      return HandleQueryOpen(request, snapshot, client);
    }
    case RequestOp::kQueryNext:
      return HandleQueryNext(request, client);
    case RequestOp::kQueryClose:
      return HandleQueryClose(request, client);
    default:
      break;
  }
  std::string key = NormalizedCacheKey(request);
  if (std::optional<CachedResult> cached = cache_.Get(key, snapshot.epoch)) {
    return MakeResponse(cached->ok, snapshot.epoch, true, cached->payload_json);
  }
  ExecResult result = ExecuteRequest(*snapshot.cube, request);
  cache_.Put(key, snapshot.epoch, CachedResult{result.ok, result.payload_json},
             request);
  return MakeResponse(result.ok, snapshot.epoch, false, result.payload_json);
}

std::string QueryServer::HandleQueryOpen(
    const QueryRequest& request, const EpochCubeStore::Snapshot& snapshot,
    ClientContext* client) {
  Result<dwarf::RowCursor> cursor =
      OpenRowCursor(*snapshot.cube, *request.open_query);
  if (!cursor.ok()) {
    return MakeResponse(false, snapshot.epoch, false,
                        MakeErrorPayload(cursor.status()));
  }
  double now = uptime_.ElapsedSeconds();
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    ReapIdleSessionsLocked(now);
    if (sessions_.size() >= options_.max_sessions) {
      sessions_rejected_->Increment();
      return MakeResponse(false, snapshot.epoch, false,
                          MakeTooManySessionsPayload(options_.max_sessions));
    }
    id = next_cursor_id_++;
    sessions_.emplace(
        id, std::make_shared<Session>(id, snapshot.epoch, snapshot.cube,
                                      std::move(*cursor), request.page_size,
                                      now));
    sessions_open_->Set(static_cast<int64_t>(sessions_.size()));
  }
  sessions_opened_->Increment();
  if (client != nullptr) client->cursors.push_back(id);
  return MakeResponse(
      true, snapshot.epoch, false,
      MakeCursorOpenPayload(id, snapshot.epoch, request.page_size));
}

std::string QueryServer::HandleQueryNext(const QueryRequest& request,
                                         ClientContext* client) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(request.cursor_id);
    if (it != sessions_.end()) {
      session = it->second;
      session->last_used = uptime_.ElapsedSeconds();
    }
  }
  if (session == nullptr) {
    return MakeResponse(
        false, store_.epoch(), false,
        MakeErrorPayload(Status::NotFound(
            "unknown cursor " + std::to_string(request.cursor_id) +
            " (closed, drained, or expired)")));
  }
  std::vector<dwarf::SliceRow> rows;
  bool done = false;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    rows.reserve(session->page_size);
    session->cursor.Next(session->page_size, &rows);
    done = session->cursor.done();
  }
  if (done) {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.erase(session->id);
    sessions_open_->Set(static_cast<int64_t>(sessions_.size()));
    if (client != nullptr) client->ForgetCursor(session->id);
  }
  // The page reports the session's pinned epoch — what the rows were
  // computed against — not the store's possibly-newer epoch.
  return MakeResponse(true, session->epoch, false,
                      MakeCursorPagePayload(request.cursor_id, rows, done));
}

std::string QueryServer::HandleQueryClose(const QueryRequest& request,
                                          ClientContext* client) {
  bool closed = false;
  uint64_t epoch = store_.epoch();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(request.cursor_id);
    if (it != sessions_.end()) {
      epoch = it->second->epoch;
      sessions_.erase(it);
      sessions_open_->Set(static_cast<int64_t>(sessions_.size()));
      closed = true;
    }
    if (client != nullptr) client->ForgetCursor(request.cursor_id);
  }
  JsonObject payload;
  payload.emplace_back("closed", JsonValue(closed));
  return MakeResponse(true, epoch, false,
                      json::SerializeJson(JsonValue(std::move(payload))));
}

std::string QueryServer::HandleLoadSnapshot(const QueryRequest& request) {
  if (!options_.allow_snapshot_load) {
    return MakeResponse(
        false, store_.epoch(), false,
        MakeErrorPayload(Status::FailedPrecondition(
            "load_snapshot is disabled on this server (replica mode only)")));
  }
  Result<uint64_t> epoch = LoadSnapshot(request.snapshot_path);
  if (!epoch.ok()) {
    return MakeResponse(false, store_.epoch(), false,
                        MakeErrorPayload(epoch.status()));
  }
  JsonObject payload;
  payload.emplace_back("loaded", JsonValue(true));
  payload.emplace_back("epoch", JsonValue(static_cast<int64_t>(*epoch)));
  payload.emplace_back(
      "nodes", JsonValue(static_cast<int64_t>(
                   store_.snapshot().cube->num_nodes())));
  return MakeResponse(true, *epoch, false,
                      json::SerializeJson(JsonValue(std::move(payload))));
}

Result<uint64_t> QueryServer::LoadSnapshot(const std::string& path) {
  Stopwatch watch;
  Result<replica::CubeSnapshot> loaded = replica::LoadCubeSnapshot(path);
  SCD_RETURN_IF_ERROR(loaded.status());
  if (loaded->cube.num_dimensions() != schema_.num_dimensions()) {
    return Status::InvalidArgument(
        "snapshot " + path + " has " +
        std::to_string(loaded->cube.num_dimensions()) +
        " dimensions; this server serves " +
        std::to_string(schema_.num_dimensions()));
  }
  const uint64_t epoch = loaded->epoch;
  {
    std::lock_guard<std::mutex> publish_lock(publish_mu_);
    trace::ScopedSpan publish_span("server.publish_snapshot");
    SCD_RETURN_IF_ERROR(store_.Publish(std::move(loaded->cube), epoch));
    // A snapshot publish carries no changed-prefix list, so no cached entry
    // can be proven unaffected: drop the cache wholesale. Open cursor
    // sessions keep their pinned snapshots and are untouched.
    cache_.Revalidate(epoch, nullptr);
  }
  snapshots_loaded_->Increment();
  snapshot_load_us_->Record(watch.ElapsedMicros());
  struct stat file_info {};
  if (::stat(path.c_str(), &file_info) == 0) {
    snapshot_bytes_->Set(static_cast<int64_t>(file_info.st_size));
  }
  return epoch;
}

void QueryServer::CloseClientSessions(ClientContext& client) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (uint64_t id : client.cursors) sessions_.erase(id);
  sessions_open_->Set(static_cast<int64_t>(sessions_.size()));
  client.cursors.clear();
}

size_t QueryServer::ReapIdleSessions() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return ReapIdleSessionsLocked(uptime_.ElapsedSeconds());
}

size_t QueryServer::ReapIdleSessionsLocked(double now) {
  size_t reaped = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now - it->second->last_used > options_.session_ttl_seconds) {
      it = sessions_.erase(it);
      ++reaped;
    } else {
      ++it;
    }
  }
  if (reaped > 0) {
    sessions_expired_->Increment(reaped);
    sessions_open_->Set(static_cast<int64_t>(sessions_.size()));
  }
  return reaped;
}

size_t QueryServer::open_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

Result<uint64_t> QueryServer::ApplyUpdate(
    const std::vector<std::pair<std::vector<std::string>, dwarf::Measure>>&
        tuples) {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  trace::ScopedSpan publish_span("server.publish");
  const EpochCubeStore::Snapshot live = store_.snapshot();
  // Update against a private copy; readers keep the published cube. The copy
  // is O(arena chunks): chunks are shared immutably across epochs.
  dwarf::CubeUpdater updater{dwarf::DwarfCube(*live.cube)};
  for (const auto& [keys, measure] : tuples) {
    SCD_RETURN_IF_ERROR(updater.AddTuple(keys, measure));
  }
  const std::vector<std::vector<std::string>> changed =
      updater.ChangedKeyPrefixes();
  dwarf::UpdateProfile profile;
  Result<dwarf::DwarfCube> updated =
      live.cube->arena_chunks() >= kCompactionChunkLimit
          ? std::move(updater).Rebuild(&profile)
          : std::move(updater).Apply(&profile);
  SCD_RETURN_IF_ERROR(updated.status());
  const uint64_t epoch = live.epoch + 1;
  SCD_RETURN_IF_ERROR(store_.Publish(std::move(*updated), epoch));
  // Delta-epoch revalidation: carry a cached result over to the new epoch
  // iff its query provably misses every changed key prefix. The cache hands
  // over each entry's parsed request, so the sweep parses nothing.
  cache_.Revalidate(epoch, [this, &changed](const QueryRequest& request) {
    bool keep = !RequestMayTouchPrefixes(schema_, request, changed);
    if (keep && RequestHasRangeConstraint(request)) {
      range_revalidations_->Increment();
    }
    return keep;
  });
  SpoolSnapshot(epoch);
  updates_applied_->Increment();
  {
    std::lock_guard<std::mutex> lock(last_update_mu_);
    last_update_ = profile;
  }
  return epoch;
}

ServerStats QueryServer::Stats() const {
  ServerStats stats;
  stats.epoch = store_.epoch();
  stats.queries_total = requests_total_->value();
  stats.rejected_total = rejected_total_->value();
  stats.updates_applied = updates_applied_->value();
  stats.uptime_seconds = uptime_.ElapsedSeconds();
  stats.qps = stats.uptime_seconds > 0
                  ? static_cast<double>(stats.queries_total) /
                        stats.uptime_seconds
                  : 0;
  stats.latency_count = latency_us_->count();
  stats.latency_p50_us = latency_us_->Quantile(0.50);
  stats.latency_p90_us = latency_us_->Quantile(0.90);
  stats.latency_p99_us = latency_us_->Quantile(0.99);
  stats.cache = cache_.stats();
  uint64_t lookups = stats.cache.hits + stats.cache.misses;
  stats.cache_hit_rate =
      lookups > 0 ? static_cast<double>(stats.cache.hits) /
                        static_cast<double>(lookups)
                  : 0;
  stats.sessions_open = open_sessions();
  stats.sessions_opened = sessions_opened_->value();
  stats.sessions_expired = sessions_expired_->value();
  stats.sessions_rejected = sessions_rejected_->value();
  stats.num_workers = num_workers_;
  stats.max_queue_depth = options_.max_queue_depth;
  {
    std::lock_guard<std::mutex> lock(last_update_mu_);
    stats.last_update = last_update_;
  }
  return stats;
}

std::string QueryServer::BuildStatsPayload() const {
  ServerStats stats = Stats();
  JsonObject latency;
  latency.emplace_back("count", JsonValue(static_cast<int64_t>(stats.latency_count)));
  latency.emplace_back("p50_us", JsonValue(stats.latency_p50_us));
  latency.emplace_back("p90_us", JsonValue(stats.latency_p90_us));
  latency.emplace_back("p99_us", JsonValue(stats.latency_p99_us));
  JsonObject cache;
  cache.emplace_back("hits", JsonValue(static_cast<int64_t>(stats.cache.hits)));
  cache.emplace_back("misses", JsonValue(static_cast<int64_t>(stats.cache.misses)));
  cache.emplace_back("evictions", JsonValue(static_cast<int64_t>(stats.cache.evictions)));
  cache.emplace_back("invalidations", JsonValue(static_cast<int64_t>(stats.cache.invalidations)));
  cache.emplace_back("revalidated", JsonValue(static_cast<int64_t>(stats.cache.revalidated)));
  cache.emplace_back("entries", JsonValue(static_cast<int64_t>(stats.cache.entries)));
  cache.emplace_back("hit_rate", JsonValue(stats.cache_hit_rate));
  JsonObject sessions;
  sessions.emplace_back("open", JsonValue(static_cast<int64_t>(stats.sessions_open)));
  sessions.emplace_back("opened", JsonValue(static_cast<int64_t>(stats.sessions_opened)));
  sessions.emplace_back("expired", JsonValue(static_cast<int64_t>(stats.sessions_expired)));
  sessions.emplace_back("rejected", JsonValue(static_cast<int64_t>(stats.sessions_rejected)));
  sessions.emplace_back("max_sessions", JsonValue(static_cast<int64_t>(options_.max_sessions)));
  sessions.emplace_back("ttl_seconds", JsonValue(options_.session_ttl_seconds));
  JsonObject last_update;
  last_update.emplace_back("base_tuples", JsonValue(static_cast<int64_t>(stats.last_update.base_tuples)));
  last_update.emplace_back("new_tuples", JsonValue(static_cast<int64_t>(stats.last_update.new_tuples)));
  last_update.emplace_back("rebuild_ms", JsonValue(stats.last_update.rebuild_ms));
  last_update.emplace_back("incremental", JsonValue(stats.last_update.incremental));
  last_update.emplace_back("delta_build_ms", JsonValue(stats.last_update.delta_build_ms));
  last_update.emplace_back("merge_ms", JsonValue(stats.last_update.merge_ms));
  last_update.emplace_back("nodes_reused", JsonValue(static_cast<int64_t>(stats.last_update.nodes_reused)));
  JsonObject inner;
  inner.emplace_back("epoch", JsonValue(static_cast<int64_t>(stats.epoch)));
  inner.emplace_back("queries_total", JsonValue(static_cast<int64_t>(stats.queries_total)));
  inner.emplace_back("rejected_total", JsonValue(static_cast<int64_t>(stats.rejected_total)));
  inner.emplace_back("updates_applied", JsonValue(static_cast<int64_t>(stats.updates_applied)));
  inner.emplace_back("uptime_seconds", JsonValue(stats.uptime_seconds));
  inner.emplace_back("qps", JsonValue(stats.qps));
  inner.emplace_back("latency", JsonValue(std::move(latency)));
  inner.emplace_back("cache", JsonValue(std::move(cache)));
  inner.emplace_back("sessions", JsonValue(std::move(sessions)));
  inner.emplace_back("num_workers", JsonValue(stats.num_workers));
  inner.emplace_back("max_queue_depth", JsonValue(static_cast<int64_t>(stats.max_queue_depth)));
  inner.emplace_back("last_update", JsonValue(std::move(last_update)));
  JsonObject payload;
  payload.emplace_back("stats", JsonValue(std::move(inner)));
  return json::SerializeJson(JsonValue(std::move(payload)));
}

std::string QueryServer::MetricsJson() const {
  return "{\"metrics\":" +
         metrics::SnapshotToJson(metrics::SnapshotWithGlobal(registry_)) + "}";
}

std::string QueryServer::MetricsText() const {
  return metrics::SnapshotToPrometheusText(
      metrics::SnapshotWithGlobal(registry_));
}

}  // namespace scdwarf::server
