#include "replica/router.h"

#include <chrono>
#include <functional>
#include <utility>

#include "common/trace.h"
#include "json/json_parser.h"
#include "json/json_value.h"

namespace scdwarf::replica {

namespace {

using json::JsonObject;
using json::JsonValue;
using server::Envelope;
using server::MakeErrorPayload;
using server::MakeResponse;
using server::QueryRequest;
using server::ReadEnvelope;
using server::RequestOp;

constexpr char kHopHelp[] =
    "router hop latency by phase (us): rtt = one replica call's wall time, "
    "relay = the router's own work on the response";

/// Points the cursor id ReadEnvelope found in \p response at \p id, in
/// place. Replica responses are forwarded as raw bytes; re-serializing
/// through the JSON model would route int64 measures through doubles, so
/// rewriting the digit span is what keeps the rows byte-identical.
void RewriteCursor(const Envelope& env, uint64_t id, std::string* response) {
  if (env.has_cursor) {
    response->replace(env.cursor_pos, env.cursor_len, std::to_string(id));
  }
}

/// Times the router's own work on one replica response (envelope read,
/// session bookkeeping, cursor rewrite) as a router.relay span and a
/// router_hop_us{phase="relay"} sample.
class RelayScope {
 public:
  explicit RelayScope(FixedBucketHistogram* relay_us)
      : relay_us_(relay_us) {}
  ~RelayScope() { relay_us_->Record(watch_.ElapsedMicros()); }

  RelayScope(const RelayScope&) = delete;
  RelayScope& operator=(const RelayScope&) = delete;

 private:
  trace::ScopedSpan span_{"router.relay"};
  FixedBucketHistogram* relay_us_;
  Stopwatch watch_;
};

std::string MakeNoHealthyReplicaPayload(const Status& last) {
  std::string message = "no healthy replica available";
  if (!last.ok()) message += "; last error: " + last.message();
  return MakeErrorPayload("no_healthy_replica", message);
}

std::string MakeTooManySessionsPayload(size_t max_sessions) {
  return MakeErrorPayload("too_many_sessions",
                          "router session table full (max " +
                              std::to_string(max_sessions) +
                              "); close or drain a session and retry");
}

std::string NextRequestFrame(uint64_t replica_cursor) {
  return "{\"op\":\"query_next\",\"cursor\":" + std::to_string(replica_cursor) +
         "}";
}

std::string CloseRequestFrame(uint64_t replica_cursor) {
  return "{\"op\":\"query_close\",\"cursor\":" +
         std::to_string(replica_cursor) + "}";
}

}  // namespace

Router::Router(std::vector<client::Endpoint> replicas, RouterOptions options)
    : options_(options),
      requests_total_(registry_.GetCounter(
          "router_requests_total", {},
          "requests handled by the router, including errors")),
      retries_total_(registry_.GetCounter(
          "router_retries_total", {},
          "forwards retried on an alternate replica")),
      failovers_total_(registry_.GetCounter(
          "router_failovers_total", {},
          "cursor sessions re-opened on another replica mid-drain")),
      sessions_opened_(registry_.GetCounter(
          "router_sessions_opened_total", {},
          "successful query_open calls through the router")),
      sessions_open_(registry_.GetGauge(
          "router_sessions_open", {},
          "router-side cursor sessions currently held open")),
      health_checks_total_(registry_.GetCounter(
          "router_health_checks_total", {},
          "ping probes sent to replicas")),
      replica_unhealthy_(registry_.GetCounter(
          "router_replica_unhealthy_total", {},
          "healthy->unhealthy transitions across all replicas")),
      hop_rtt_us_(registry_.GetHistogram("router_hop_us", {{"phase", "rtt"}},
                                         kHopHelp)),
      hop_relay_us_(registry_.GetHistogram(
          "router_hop_us", {{"phase", "relay"}}, kHopHelp)) {
  backends_.reserve(replicas.size());
  for (client::Endpoint& endpoint : replicas) {
    auto backend = std::make_unique<Backend>();
    backend->endpoint = endpoint;
    backend->pool =
        std::make_unique<client::ClientPool>(endpoint, options_.client);
    const std::string name = endpoint.ToString();
    backend->forwarded = registry_.GetCounter(
        "router_forwarded_total", {{"replica", name}},
        "requests forwarded to this replica");
    backend->healthy_gauge = registry_.GetGauge(
        "router_replica_healthy", {{"replica", name}},
        "1 while this replica passes health checks");
    backend->epoch_gauge = registry_.GetGauge(
        "router_replica_epoch", {{"replica", name}},
        "last current epoch this replica reported");
    backend->healthy_gauge->Set(1);
    backends_.push_back(std::move(backend));
  }
  if (options_.health_interval_ms > 0) {
    health_thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(health_mu_);
      while (!stopping_) {
        health_cv_.wait_for(
            lock, std::chrono::milliseconds(options_.health_interval_ms));
        if (stopping_) break;
        lock.unlock();
        CheckReplicasOnce();
        lock.lock();
      }
    });
  }
}

Router::~Router() {
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    stopping_ = true;
  }
  health_cv_.notify_all();
  if (health_thread_.joinable()) health_thread_.join();
}

std::string Router::HandleFrame(std::string_view request_json,
                                server::ClientContext* client) {
  requests_total_->Increment();
  Result<QueryRequest> request = server::ParseRequest(request_json);
  if (!request.ok()) {
    return MakeResponse(false, BestEpoch(), false,
                        MakeErrorPayload(request.status()));
  }
  switch (request->op) {
    case RequestOp::kStats:
      return MakeResponse(true, BestEpoch(), false, BuildStatsPayload());
    case RequestOp::kMetrics:
      return MakeResponse(true, BestEpoch(), false, MetricsJson());
    case RequestOp::kMetricsText: {
      JsonObject payload;
      payload.emplace_back("text", JsonValue(MetricsText()));
      return MakeResponse(true, BestEpoch(), false,
                          json::SerializeJson(JsonValue(std::move(payload))));
    }
    case RequestOp::kPing: {
      JsonObject payload;
      payload.emplace_back("epoch",
                           JsonValue(static_cast<int64_t>(BestEpoch())));
      payload.emplace_back("uptime_s", JsonValue(uptime_.ElapsedSeconds()));
      payload.emplace_back("sessions",
                           JsonValue(static_cast<int64_t>(open_sessions())));
      return MakeResponse(true, BestEpoch(), false,
                          json::SerializeJson(JsonValue(std::move(payload))));
    }
    case RequestOp::kLoadSnapshot:
      return MakeResponse(
          false, BestEpoch(), false,
          MakeErrorPayload(Status::FailedPrecondition(
              "load_snapshot must be sent to a replica, not the router")));
    case RequestOp::kQueryOpen:
      return HandleOpen(*request, request_json, client);
    case RequestOp::kQueryNext:
      return HandleNext(*request, client);
    case RequestOp::kQueryClose:
      return HandleClose(*request, client);
    default:
      return ForwardOneShot(*request, request_json);
  }
}

std::string Router::ForwardOneShot(const QueryRequest& request,
                                   std::string_view request_json) {
  std::vector<size_t> candidates = HealthyIndices();
  if (candidates.empty()) {
    // Everyone is marked down. Health state is advisory, not authoritative:
    // try the whole fleet rather than failing a query a replica might still
    // answer (and let a success mark it back up).
    for (size_t i = 0; i < backends_.size(); ++i) candidates.push_back(i);
  }
  // Hashing the normalized key keeps each logical query on one replica
  // while the fleet is stable, so per-replica result caches stay hot.
  size_t start = std::hash<std::string>{}(server::NormalizedCacheKey(request)) %
                 candidates.size();
  Status last = Status::OK();
  for (size_t i = 0; i < candidates.size(); ++i) {
    Backend* backend =
        backends_[candidates[(start + i) % candidates.size()]].get();
    if (i > 0) retries_total_->Increment();
    Result<std::string> response = Forward(backend, request_json);
    if (!response.ok()) {
      last = response.status();
      MarkFailure(backend);
      continue;
    }
    RelayScope relay(hop_relay_us_);
    backend->forwarded->Increment();
    if (Result<Envelope> env = ReadEnvelope(*response); env.ok()) {
      MarkHealthy(backend);
      ObserveEpoch(backend, env->epoch);
    }
    return std::move(*response);
  }
  return MakeResponse(false, BestEpoch(), false,
                      MakeNoHealthyReplicaPayload(last));
}

std::string Router::HandleOpen(const QueryRequest& request,
                               std::string_view request_json,
                               server::ClientContext* client) {
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (sessions_.size() >= options_.max_sessions) {
      return MakeResponse(false, BestEpoch(), false,
                          MakeTooManySessionsPayload(options_.max_sessions));
    }
  }
  std::vector<size_t> candidates = HealthyIndices();
  if (candidates.empty()) {
    for (size_t i = 0; i < backends_.size(); ++i) candidates.push_back(i);
  }
  size_t start = round_robin_.fetch_add(1, std::memory_order_relaxed) %
                 candidates.size();
  Status last = Status::OK();
  for (size_t i = 0; i < candidates.size(); ++i) {
    size_t index = candidates[(start + i) % candidates.size()];
    Backend* backend = backends_[index].get();
    if (i > 0) retries_total_->Increment();
    Result<std::string> response = Forward(backend, request_json);
    if (!response.ok()) {
      last = response.status();
      MarkFailure(backend);
      continue;
    }
    RelayScope relay(hop_relay_us_);
    backend->forwarded->Increment();
    Result<Envelope> env = ReadEnvelope(*response);
    if (!env.ok()) return std::move(*response);
    MarkHealthy(backend);
    if (!env->ok || !env->has_cursor) {
      // Deterministic rejection (bad query, replica session table full):
      // forward it — another replica would answer the same way.
      return std::move(*response);
    }
    auto session = std::make_shared<RouterSession>();
    session->epoch = env->epoch;
    session->backend = index;
    session->replica_cursor = env->cursor;
    // The reopen frame pins the session's epoch so a failover lands on the
    // exact snapshot this drain started on.
    QueryRequest pinned = request;
    pinned.open_epoch = env->epoch;
    session->open_request = server::NormalizedCacheKey(pinned);
    uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      id = next_cursor_id_++;
      session->id = id;
      sessions_.emplace(id, session);
      sessions_open_->Set(static_cast<int64_t>(sessions_.size()));
    }
    sessions_opened_->Increment();
    if (client != nullptr) client->cursors.push_back(id);
    RewriteCursor(*env, id, &*response);
    return std::move(*response);
  }
  return MakeResponse(false, BestEpoch(), false,
                      MakeNoHealthyReplicaPayload(last));
}

std::string Router::HandleNext(const QueryRequest& request,
                               server::ClientContext* client) {
  std::shared_ptr<RouterSession> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(request.cursor_id);
    if (it != sessions_.end()) session = it->second;
  }
  if (session == nullptr) {
    // Same wording as the server's unknown-cursor error, so clients see one
    // behavior whether they talk to a replica or the router.
    return MakeResponse(
        false, BestEpoch(), false,
        MakeErrorPayload(Status::NotFound(
            "unknown cursor " + std::to_string(request.cursor_id) +
            " (closed, drained, or expired)")));
  }
  std::lock_guard<std::mutex> lock(session->mu);
  Backend* backend = backends_[session->backend].get();
  Result<std::string> response =
      Forward(backend, NextRequestFrame(session->replica_cursor));
  if (response.ok()) {
    RelayScope relay(hop_relay_us_);
    Result<Envelope> env = ReadEnvelope(*response);
    if (env.ok() && env->ok) {
      MarkHealthy(backend);
      DeliverPage(session.get(), *env, client, &*response);
      return std::move(*response);
    }
    if (env.ok() && env->code != "not_found") {
      return std::move(*response);  // deterministic error; session stays pinned
    }
    // not_found: the replica lost the session (restart, TTL); an unreadable
    // envelope: the replica answered garbage. Either way, fail over.
  } else {
    MarkFailure(backend);
  }
  return FailOverSession(session.get(), session->backend, client);
}

std::string Router::FailOverSession(RouterSession* session,
                                    size_t failed_backend,
                                    server::ClientContext* client) {
  failovers_total_->Increment();
  std::string last_error_response;
  Status last = Status::OK();
  for (size_t index = 0; index < backends_.size(); ++index) {
    if (index == failed_backend) continue;
    Backend* backend = backends_[index].get();
    if (!backend->healthy.load(std::memory_order_acquire)) continue;
    Result<std::string> opened = Forward(backend, session->open_request);
    if (!opened.ok()) {
      last = opened.status();
      MarkFailure(backend);
      continue;
    }
    uint64_t replica_cursor = 0;
    {
      RelayScope relay(hop_relay_us_);
      Result<Envelope> open_env = ReadEnvelope(*opened);
      if (!open_env.ok()) continue;
      MarkHealthy(backend);
      if (!open_env->ok || !open_env->has_cursor) {
        // epoch_gone here, or the replica's session table is full; remember
        // the response and try the rest of the fleet.
        last_error_response = std::move(*opened);
        continue;
      }
      replica_cursor = open_env->cursor;
    }
    std::string next_frame = NextRequestFrame(replica_cursor);
    // Replay the pages the client already consumed, discarding them. The
    // replicas serve bit-identical snapshot files and row order is
    // deterministic, so page k on this replica is page k on the dead one.
    bool candidate_failed = false;
    for (uint64_t page = 0; page < session->pages_delivered; ++page) {
      Result<std::string> replayed = Forward(backend, next_frame);
      if (!replayed.ok()) {
        last = replayed.status();
        MarkFailure(backend);
        candidate_failed = true;
        break;
      }
      RelayScope relay(hop_relay_us_);
      Result<Envelope> env = ReadEnvelope(*replayed);
      if (!env.ok() || !env->ok || env->done) {
        // The cursor ran out before reaching the client's position: the
        // replicas disagree about the snapshot. Surface it, don't guess.
        return MakeResponse(
            false, session->epoch, false,
            MakeErrorPayload(Status::Internal(
                "cursor replay diverged on replica " +
                backend->endpoint.ToString() + " (page " +
                std::to_string(page + 1) + " of " +
                std::to_string(session->pages_delivered) + ")")));
      }
    }
    if (candidate_failed) continue;
    Result<std::string> next = Forward(backend, next_frame);
    if (!next.ok()) {
      last = next.status();
      MarkFailure(backend);
      continue;
    }
    RelayScope relay(hop_relay_us_);
    Result<Envelope> env = ReadEnvelope(*next);
    if (!env.ok() || !env->ok) {
      last_error_response = std::move(*next);
      continue;
    }
    session->backend = index;
    session->replica_cursor = replica_cursor;
    DeliverPage(session, *env, client, &*next);
    return std::move(*next);
  }
  if (!last_error_response.empty()) return last_error_response;
  return MakeResponse(false, session->epoch, false,
                      MakeNoHealthyReplicaPayload(last));
}

void Router::DeliverPage(RouterSession* session, const Envelope& env,
                         server::ClientContext* client, std::string* page) {
  ++session->pages_delivered;
  if (env.done) {
    EraseSession(session->id);
    if (client != nullptr) client->ForgetCursor(session->id);
  }
  RewriteCursor(env, session->id, page);
}

std::string Router::HandleClose(const QueryRequest& request,
                                server::ClientContext* client) {
  std::shared_ptr<RouterSession> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(request.cursor_id);
    if (it != sessions_.end()) {
      session = it->second;
      sessions_.erase(it);
      sessions_open_->Set(static_cast<int64_t>(sessions_.size()));
    }
  }
  if (client != nullptr) client->ForgetCursor(request.cursor_id);
  if (session == nullptr) {
    return MakeResponse(true, BestEpoch(), false, "{\"closed\":false}");
  }
  std::lock_guard<std::mutex> lock(session->mu);
  Backend* backend = backends_[session->backend].get();
  Result<std::string> response =
      Forward(backend, CloseRequestFrame(session->replica_cursor));
  if (!response.ok()) {
    MarkFailure(backend);
    // The replica-side session dies with its process or its idle TTL; the
    // router-side one is gone either way, which is what "closed" promises.
    return MakeResponse(true, session->epoch, false, "{\"closed\":true}");
  }
  return std::move(*response);
}

void Router::CloseClientSessions(server::ClientContext& client) {
  std::vector<uint64_t> cursors;
  cursors.swap(client.cursors);
  for (uint64_t id : cursors) {
    std::shared_ptr<RouterSession> session;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      auto it = sessions_.find(id);
      if (it == sessions_.end()) continue;
      session = it->second;
      sessions_.erase(it);
      sessions_open_->Set(static_cast<int64_t>(sessions_.size()));
    }
    std::lock_guard<std::mutex> lock(session->mu);
    Backend* backend = backends_[session->backend].get();
    // Best effort: an unreachable replica reaps the session by TTL.
    (void)Forward(backend, CloseRequestFrame(session->replica_cursor));
  }
}

size_t Router::CheckReplicasOnce() {
  size_t answered = 0;
  for (const std::unique_ptr<Backend>& backend : backends_) {
    health_checks_total_->Increment();
    Result<std::string> response = Forward(backend.get(), "{\"op\":\"ping\"}");
    if (response.ok()) {
      RelayScope relay(hop_relay_us_);
      Result<Envelope> env = ReadEnvelope(*response);
      if (env.ok() && env->ok) {
        MarkHealthy(backend.get());
        ObserveEpoch(backend.get(), env->epoch);
        ++answered;
        continue;
      }
    }
    MarkFailure(backend.get());
  }
  return answered;
}

Result<std::string> Router::Forward(Backend* backend,
                                    std::string_view request_json) {
  trace::ScopedSpan span("router.forward");
  Stopwatch watch;
  Result<std::string> response = backend->pool->Call(request_json);
  hop_rtt_us_->Record(watch.ElapsedMicros());
  return response;
}

std::vector<size_t> Router::HealthyIndices() const {
  std::vector<size_t> healthy;
  healthy.reserve(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i]->healthy.load(std::memory_order_acquire)) {
      healthy.push_back(i);
    }
  }
  return healthy;
}

void Router::MarkFailure(Backend* backend) {
  int failures = backend->failures.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (failures >= options_.unhealthy_after &&
      backend->healthy.exchange(false, std::memory_order_acq_rel)) {
    replica_unhealthy_->Increment();
    backend->healthy_gauge->Set(0);
    // Drop pooled sockets to the dead process so recovery starts clean.
    backend->pool->DropIdle();
  }
}

void Router::MarkHealthy(Backend* backend) {
  backend->failures.store(0, std::memory_order_release);
  if (!backend->healthy.exchange(true, std::memory_order_acq_rel)) {
    backend->healthy_gauge->Set(1);
  }
}

void Router::ObserveEpoch(Backend* backend, uint64_t epoch) {
  backend->epoch.store(epoch, std::memory_order_release);
  backend->epoch_gauge->Set(static_cast<int64_t>(epoch));
}

void Router::EraseSession(uint64_t id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.erase(id);
  sessions_open_->Set(static_cast<int64_t>(sessions_.size()));
}

size_t Router::healthy_replicas() const {
  size_t count = 0;
  for (const std::unique_ptr<Backend>& backend : backends_) {
    if (backend->healthy.load(std::memory_order_acquire)) ++count;
  }
  return count;
}

size_t Router::open_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

uint64_t Router::BestEpoch() const {
  uint64_t best = 0;
  for (const std::unique_ptr<Backend>& backend : backends_) {
    uint64_t epoch = backend->epoch.load(std::memory_order_acquire);
    if (epoch > best) best = epoch;
  }
  return best;
}

std::string Router::BuildStatsPayload() const {
  JsonObject router;
  router.emplace_back("replicas",
                      JsonValue(static_cast<int64_t>(backends_.size())));
  router.emplace_back("healthy",
                      JsonValue(static_cast<int64_t>(healthy_replicas())));
  router.emplace_back("epoch", JsonValue(static_cast<int64_t>(BestEpoch())));
  router.emplace_back("sessions_open",
                      JsonValue(static_cast<int64_t>(open_sessions())));
  router.emplace_back(
      "requests_total",
      JsonValue(static_cast<int64_t>(requests_total_->value())));
  router.emplace_back(
      "retries_total",
      JsonValue(static_cast<int64_t>(retries_total_->value())));
  router.emplace_back(
      "failovers_total",
      JsonValue(static_cast<int64_t>(failovers_total_->value())));
  router.emplace_back(
      "health_checks_total",
      JsonValue(static_cast<int64_t>(health_checks_total_->value())));
  router.emplace_back("uptime_seconds", JsonValue(uptime_.ElapsedSeconds()));
  json::JsonArray replicas;
  for (const std::unique_ptr<Backend>& backend : backends_) {
    JsonObject entry;
    entry.emplace_back("endpoint", JsonValue(backend->endpoint.ToString()));
    entry.emplace_back(
        "healthy",
        JsonValue(backend->healthy.load(std::memory_order_acquire)));
    entry.emplace_back(
        "epoch", JsonValue(static_cast<int64_t>(
                     backend->epoch.load(std::memory_order_acquire))));
    replicas.emplace_back(JsonValue(std::move(entry)));
  }
  router.emplace_back("backends", JsonValue(std::move(replicas)));
  JsonObject inner;
  inner.emplace_back("router", JsonValue(std::move(router)));
  JsonObject payload;
  payload.emplace_back("stats", JsonValue(std::move(inner)));
  return json::SerializeJson(JsonValue(std::move(payload)));
}

std::string Router::MetricsJson() const {
  return "{\"metrics\":" +
         metrics::SnapshotToJson(metrics::SnapshotWithGlobal(registry_)) + "}";
}

std::string Router::MetricsText() const {
  return metrics::SnapshotToPrometheusText(
      metrics::SnapshotWithGlobal(registry_));
}

}  // namespace scdwarf::replica
