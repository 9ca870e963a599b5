#include "replica/replica.h"

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <utility>

#include "json/json_parser.h"
#include "json/json_value.h"
#include "replica/snapshot.h"
#include "server/wire.h"

namespace scdwarf::replica {

namespace {

/// Size of \p path, or 0 when it vanished (a failed file that disappears is
/// forgotten and a recreated one re-attempted).
uint64_t FileSize(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

ReplicaServer::ReplicaServer(ReplicaOptions options)
    : options_(std::move(options)),
      load_failures_(metrics::GlobalRegistry().GetCounter(
          "replica_snapshot_load_failures_total", {},
          "spool snapshot files that failed to load (truncated, bad magic, "
          "mid-rename garbage) and were skipped")),
      catchup_loads_(metrics::GlobalRegistry().GetCounter(
          "replica_catchup_loads_total", {},
          "snapshot files loaded by spool catch-up (start-up fast-forward or "
          "poll) rather than by publisher notification")) {}

ReplicaServer::~ReplicaServer() { Stop(); }

Status ReplicaServer::Start() {
  if (server_ != nullptr) {
    return Status::FailedPrecondition("replica already started");
  }
  if (options_.snapshot_dir.empty()) {
    return Status::InvalidArgument("replica requires a snapshot directory");
  }
  // Bootstrap: wait for the publisher to spool its first *loadable* snapshot.
  // A missing directory counts as "not yet" too — the publisher may create
  // it — and so does a spool holding only corrupt files (each counted once
  // via replica_snapshot_load_failures_total): the publisher may still be
  // mid-write. Of the trailing retain_epochs files, the oldest loadable one
  // becomes the bootstrap cube; PollOnce() then fast-forwards through every
  // newer file, so a restarted replica rejoins at the newest spooled epoch
  // with its retention window repopulated for epoch-pinned router failover —
  // no publisher notification needed.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.bootstrap_wait_ms);
  server::ServerOptions server_options;
  server_options.num_workers = options_.num_workers;
  server_options.cache_capacity = options_.cache_capacity;
  server_options.max_sessions = options_.max_sessions;
  server_options.retain_epochs = options_.retain_epochs;
  server_options.allow_snapshot_load = true;
  size_t seen = 0;
  for (;;) {
    Result<std::vector<SnapshotFileEntry>> listed =
        ListSnapshots(options_.snapshot_dir);
    if (listed.ok() && !listed->empty()) {
      seen = listed->size();
      size_t first = 0;
      if (options_.retain_epochs > 0 &&
          listed->size() > options_.retain_epochs) {
        first = listed->size() - options_.retain_epochs;
      }
      for (size_t i = first; i < listed->size() && server_ == nullptr; ++i) {
        const SnapshotFileEntry& entry = (*listed)[i];
        if (AlreadyFailed(entry.path)) continue;
        Result<CubeSnapshot> loaded = LoadCubeSnapshot(entry.path);
        if (!loaded.ok()) {
          RememberFailure(entry.path, loaded.status());
          continue;
        }
        server_options.initial_epoch = loaded->epoch;
        server_ = std::make_unique<server::QueryServer>(
            std::move(loaded->cube), std::move(server_options));
      }
      if (server_ != nullptr) break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::NotFound(
          "no loadable snapshot appeared in " + options_.snapshot_dir +
          " within " + std::to_string(options_.bootstrap_wait_ms) + "ms (" +
          std::to_string(seen) + " files present)");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Fast-forward through the remaining newer files via the same skip-and-count
  // path the poll thread uses (errors here are transient; the poll thread or
  // the next notification retries).
  (void)PollOnce();
  tcp_ = std::make_unique<server::TcpServer>(server_.get(),
                                             options_.max_frame_bytes);
  Status started = tcp_->Start(options_.port, options_.bind_address);
  if (!started.ok()) {
    tcp_.reset();
    server_.reset();
    return started;
  }
  if (options_.poll_interval_ms > 0) {
    poll_thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(poll_mu_);
      while (!stopping_) {
        poll_cv_.wait_for(
            lock, std::chrono::milliseconds(options_.poll_interval_ms));
        if (stopping_) break;
        lock.unlock();
        (void)PollOnce();  // spool errors are transient; keep polling
        lock.lock();
      }
    });
  }
  return Status::OK();
}

Result<size_t> ReplicaServer::PollOnce() {
  if (server_ == nullptr) {
    return Status::FailedPrecondition("replica not started");
  }
  SCD_ASSIGN_OR_RETURN(std::vector<SnapshotFileEntry> entries,
                       ListSnapshots(options_.snapshot_dir));
  size_t loaded = 0;
  for (const SnapshotFileEntry& entry : entries) {
    if (entry.epoch <= server_->epoch()) continue;
    if (AlreadyFailed(entry.path)) continue;
    Result<uint64_t> result = server_->LoadSnapshot(entry.path);
    if (result.ok()) {
      ++loaded;
      catchup_loads_->Increment();
      continue;
    }
    // A concurrent load_snapshot notification may have raced us past this
    // epoch — that is not a bad file, and the epoch guard above skips it on
    // the next pass.
    if (result.status().IsFailedPrecondition() &&
        entry.epoch <= server_->epoch()) {
      continue;
    }
    RememberFailure(entry.path, result.status());
  }
  return loaded;
}

bool ReplicaServer::AlreadyFailed(const std::string& path) {
  const uint64_t size = FileSize(path);
  std::lock_guard<std::mutex> lock(failed_mu_);
  auto it = failed_sizes_.find(path);
  return it != failed_sizes_.end() && it->second == size;
}

void ReplicaServer::RememberFailure(const std::string& path,
                                    const Status& status) {
  load_failures_->Increment();
  std::fprintf(stderr, "scdwarf_replica: skipping snapshot %s: %s\n",
               path.c_str(), status.ToString().c_str());
  std::lock_guard<std::mutex> lock(failed_mu_);
  failed_sizes_[path] = FileSize(path);
}

void ReplicaServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(poll_mu_);
    stopping_ = true;
  }
  poll_cv_.notify_all();
  if (poll_thread_.joinable()) poll_thread_.join();
  if (tcp_ != nullptr) tcp_->Stop();
}

SnapshotNotifier::SnapshotNotifier(std::vector<client::Endpoint> replicas,
                                   client::ClientOptions options) {
  pools_.reserve(replicas.size());
  for (client::Endpoint& endpoint : replicas) {
    pools_.push_back(
        std::make_unique<client::ClientPool>(std::move(endpoint), options));
  }
}

size_t SnapshotNotifier::NotifyAll(const std::string& path) {
  json::JsonObject request;
  request.emplace_back("op", json::JsonValue("load_snapshot"));
  request.emplace_back("path", json::JsonValue(path));
  const std::string frame =
      json::SerializeJson(json::JsonValue(std::move(request)));
  size_t acknowledged = 0;
  for (const std::unique_ptr<client::ClientPool>& pool : pools_) {
    Result<std::string> response = pool->Call(frame);
    if (!response.ok()) continue;
    Result<server::Envelope> env = server::ReadEnvelope(*response);
    if (env.ok() && env->ok) ++acknowledged;
  }
  return acknowledged;
}

}  // namespace scdwarf::replica
