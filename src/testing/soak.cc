#include "testing/soak.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/stopwatch.h"
#include "dwarf/builder.h"
#include "json/json_parser.h"
#include "json/json_value.h"
#include "replica/snapshot.h"
#include "server/wire.h"

namespace scdwarf::soak {

namespace fs = std::filesystem;

namespace {

using json::JsonArray;
using json::JsonObject;
using json::JsonValue;

/// 28 ISO dates — zero-padded, so lexicographic order is chronological and
/// value-range predicates / rollup-where clauses are exercised for real.
const std::vector<std::string>& Dates() {
  static const auto* v = [] {
    auto* dates = new std::vector<std::string>;
    for (int day = 1; day <= 28; ++day) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "2026-01-%02d", day);
      dates->push_back(buf);
    }
    return dates;
  }();
  return *v;
}

const std::vector<std::string>& Days() {
  static const auto* v = new std::vector<std::string>{
      "Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"};
  return *v;
}

const std::vector<std::string>& Stations() {
  static const auto* v = [] {
    auto* stations = new std::vector<std::string>;
    for (int i = 0; i < 12; ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "Station%02d", i);
      stations->push_back(buf);
    }
    return stations;
  }();
  return *v;
}

/// Occasionally-queried, occasionally-published station names outside the
/// base vocabulary: publishes with them force real dictionary growth, and
/// queries with them exercise the not-found-yet / found-after-merge edge.
std::string FreshStation(Rng& rng) {
  return "Fresh" + std::to_string(rng.NextBelow(32));
}

std::vector<std::string> RandomKeys(Rng& rng) {
  return {Dates()[rng.NextBelow(Dates().size())],
          Days()[rng.NextBelow(Days().size())],
          rng.NextBool(0.06)
              ? FreshStation(rng)
              : Stations()[rng.NextBelow(Stations().size())]};
}

/// Sorted inclusive date range [lo, hi] from the soak vocabulary.
std::pair<std::string, std::string> RandomDateRange(Rng& rng) {
  const auto& dates = Dates();
  size_t a = rng.NextBelow(dates.size());
  size_t b = rng.NextBelow(dates.size());
  if (a > b) std::swap(a, b);
  return {dates[a], dates[b]};
}

const std::vector<std::string>& AvailabilityCodes() {
  static const auto* v = new std::vector<std::string>{
      "overloaded", "no_healthy_replica", "too_many_sessions", "epoch_gone"};
  return *v;
}

bool IsAvailabilityCode(const std::string& code) {
  const auto& codes = AvailabilityCodes();
  return std::find(codes.begin(), codes.end(), code) != codes.end();
}

/// Envelope fields of one response payload.
struct ResponseEnvelope {
  bool parsed = false;
  bool ok = false;
  uint64_t epoch = 0;
  std::string code;
  JsonValue value;
};

ResponseEnvelope ParseEnvelope(const std::string& response) {
  ResponseEnvelope env;
  auto root = json::ParseJson(response);
  if (!root.ok()) return env;
  auto ok = root->Get("ok");
  auto epoch = root->Get("epoch");
  if (!ok.ok() || !epoch.ok()) return env;
  auto ok_flag = ok->AsBool();
  auto epoch_num = epoch->AsNumber();
  if (!ok_flag.ok() || !epoch_num.ok()) return env;
  env.parsed = true;
  env.ok = *ok_flag;
  env.epoch = static_cast<uint64_t>(*epoch_num);
  if (auto code = root->Get("code"); code.ok()) {
    if (auto text = code->AsString(); text.ok()) env.code = *text;
  }
  env.value = std::move(*root);
  return env;
}

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

std::string DefaultReplicaBinary() {
  if (const char* env = std::getenv("SCDWARF_REPLICA_BIN");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  std::error_code ec;
  fs::path self = fs::read_symlink("/proc/self/exe", ec);
  if (ec) return "";
  return (self.parent_path() / ".." / "src" / "replica" / "scdwarf_replica")
      .lexically_normal()
      .string();
}

dwarf::CubeSchema SoakSchema() {
  std::vector<dwarf::DimensionSpec> specs;
  specs.emplace_back("Date", "", /*ordered_in=*/true);
  specs.emplace_back("Day");
  specs.emplace_back("Station");
  return dwarf::CubeSchema("soak_fleet", std::move(specs), "rides",
                           dwarf::AggFn::kSum);
}

std::vector<std::pair<std::vector<std::string>, dwarf::Measure>> SoakBatch(
    Rng& rng, int size) {
  std::vector<std::pair<std::vector<std::string>, dwarf::Measure>> batch;
  batch.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    batch.emplace_back(RandomKeys(rng),
                       static_cast<dwarf::Measure>(rng.NextInRange(1, 40)));
  }
  return batch;
}

Fleet::Fleet(FleetOptions options)
    : options_(std::move(options)),
      latency_us_(FixedBucketHistogram::LatencyMicrosBounds()) {}

Fleet::~Fleet() { Stop(); }

Status Fleet::Start() {
  if (publisher_ != nullptr) {
    return Status::FailedPrecondition("fleet already started");
  }
  if (options_.replicas < 1) {
    return Status::InvalidArgument("a fleet needs at least one replica");
  }
  if (options_.replica_bin.empty()) {
    options_.replica_bin = DefaultReplicaBinary();
  }
  if (options_.replica_bin.empty() || !fs::exists(options_.replica_bin)) {
    return Status::NotFound("scdwarf_replica binary not found at \"" +
                            options_.replica_bin +
                            "\"; pass FleetOptions.replica_bin or set "
                            "SCDWARF_REPLICA_BIN");
  }
  if (options_.spool_dir.empty()) {
    spool_ = (fs::temp_directory_path() /
              ("scdwarf_soak_" + std::to_string(::getpid())))
                 .string();
    owns_spool_ = true;
  } else {
    spool_ = options_.spool_dir;
  }
  fs::remove_all(spool_);
  std::error_code ec;
  fs::create_directories(spool_, ec);
  if (ec) {
    return Status::IoError("create spool " + spool_ + ": " + ec.message());
  }

  // Initial cube + publisher. Replicas follow the spool by polling, which is
  // exactly the catch-up path under test.
  Rng seed_rng(options_.seed);
  dwarf::DwarfBuilder builder(SoakSchema());
  for (auto& [keys, measure] : SoakBatch(seed_rng, 64)) {
    SCD_RETURN_IF_ERROR(builder.AddTuple(keys, measure));
  }
  auto cube = std::move(builder).Build();
  SCD_RETURN_IF_ERROR(cube.status());
  server::ServerOptions publisher_options;
  publisher_options.num_workers = 1;
  publisher_options.snapshot_dir = spool_;
  publisher_options.retain_epochs =
      std::max(options_.model_epochs, options_.retain_epochs);
  publisher_ = std::make_unique<server::QueryServer>(std::move(*cube),
                                                     publisher_options);
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    models_[0] = publisher_->store().snapshot().cube;
    newest_epoch_ = 0;
  }

  // The fleet: real replica subprocesses, in-process router in front.
  std::vector<client::Endpoint> endpoints;
  for (int i = 0; i < options_.replicas; ++i) {
    Result<ReplicaProcess> spawned = LaunchReplica(0);
    if (!spawned.ok()) {
      Stop();
      return spawned.status();
    }
    client::Endpoint endpoint;
    endpoint.port = spawned->port;
    endpoints.push_back(endpoint);
    replicas_.push_back(std::move(*spawned));
  }
  replica::RouterOptions router_options;
  router_options.health_interval_ms = options_.health_interval_ms;
  router_ = std::make_unique<replica::Router>(endpoints, router_options);
  router_->CheckReplicasOnce();
  router_tcp_ = std::make_unique<server::TcpServer>(router_.get());
  if (Status status = router_tcp_->Start(0); !status.ok()) {
    Stop();
    return status;
  }
  router_port_ = static_cast<uint16_t>(router_tcp_->port());

  stopping_.store(false, std::memory_order_release);
  if (options_.publish_interval_ms > 0) {
    publish_thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(wake_mu_);
      while (!stopping_.load(std::memory_order_acquire)) {
        wake_cv_.wait_for(
            lock, std::chrono::milliseconds(options_.publish_interval_ms));
        if (stopping_.load(std::memory_order_acquire)) break;
        lock.unlock();
        if (auto published = PublishBatch(); !published.ok()) {
          std::fprintf(stderr, "soak publish: %s\n",
                       published.status().ToString().c_str());
        }
        lock.lock();
      }
    });
  }
  if (options_.kill_interval_ms > 0) {
    kill_thread_ = std::thread([this] {
      Rng rng(options_.seed ^ 0xdeadbeef);
      std::unique_lock<std::mutex> lock(wake_mu_);
      while (!stopping_.load(std::memory_order_acquire)) {
        wake_cv_.wait_for(lock,
                          std::chrono::milliseconds(options_.kill_interval_ms));
        if (stopping_.load(std::memory_order_acquire)) break;
        lock.unlock();
        int index = static_cast<int>(
            rng.NextBelow(static_cast<uint64_t>(options_.replicas)));
        (void)KillReplica(index);  // FailedPrecondition when already dead
        if (Status status = RestartReplica(index); !status.ok()) {
          std::fprintf(stderr, "soak restart replica %d: %s\n", index,
                       status.ToString().c_str());
        }
        lock.lock();
      }
    });
  }
  if (options_.corrupt_interval_ms > 0) {
    corrupt_thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(wake_mu_);
      while (!stopping_.load(std::memory_order_acquire)) {
        wake_cv_.wait_for(
            lock, std::chrono::milliseconds(options_.corrupt_interval_ms));
        if (stopping_.load(std::memory_order_acquire)) break;
        lock.unlock();
        if (Status status = CorruptSpool(); !status.ok()) {
          std::fprintf(stderr, "soak corrupt: %s\n",
                       status.ToString().c_str());
        }
        lock.lock();
      }
    });
  }
  return Status::OK();
}

Status Fleet::RunFor(double seconds) {
  if (publisher_ == nullptr) {
    return Status::FailedPrecondition("fleet not started");
  }
  churn_stop_.store(false, std::memory_order_release);
  session_threads_.reserve(static_cast<size_t>(options_.sessions));
  for (int i = 0; i < options_.sessions; ++i) {
    session_threads_.emplace_back([this, i] { SessionLoop(i); });
  }
  Stopwatch watch;
  while (watch.ElapsedSeconds() < seconds &&
         !stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  churn_stop_.store(true, std::memory_order_release);
  for (std::thread& thread : session_threads_) thread.join();
  session_threads_.clear();

  FleetCounters counters = Counters();
  if (counters.mismatches > 0) {
    std::string detail;
    for (const std::string& sample : MismatchSamples()) {
      detail += "\n  " + sample;
    }
    return Status::Internal(std::to_string(counters.mismatches) +
                            " differential mismatch(es)" + detail);
  }
  if (options_.p99_bound_us > 0 && counters.p99_us > options_.p99_bound_us) {
    return Status::Internal(
        "one-shot p99 " + std::to_string(counters.p99_us) + "us over bound " +
        std::to_string(options_.p99_bound_us) + "us");
  }
  return Status::OK();
}

void Fleet::Stop() {
  stopping_.store(true, std::memory_order_release);
  churn_stop_.store(true, std::memory_order_release);
  wake_cv_.notify_all();
  model_cv_.notify_all();
  for (std::thread& thread : session_threads_) {
    if (thread.joinable()) thread.join();
  }
  session_threads_.clear();
  if (publish_thread_.joinable()) publish_thread_.join();
  if (kill_thread_.joinable()) kill_thread_.join();
  if (corrupt_thread_.joinable()) corrupt_thread_.join();
  if (router_tcp_ != nullptr) router_tcp_->Stop();
  {
    std::lock_guard<std::mutex> lock(replicas_mu_);
    for (ReplicaProcess& replica : replicas_) StopReplica(replica);
    replicas_.clear();
  }
  router_tcp_.reset();
  router_.reset();
  publisher_.reset();
  if (owns_spool_ && !spool_.empty()) {
    std::error_code ec;
    fs::remove_all(spool_, ec);
  }
}

FleetCounters Fleet::Counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  FleetCounters counters = counters_;
  counters.p50_us = latency_us_.Quantile(0.5);
  counters.p99_us = latency_us_.Quantile(0.99);
  return counters;
}

std::vector<std::string> Fleet::MismatchSamples() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return mismatch_samples_;
}

Result<uint64_t> Fleet::PublishBatch() {
  if (publisher_ == nullptr) {
    return Status::FailedPrecondition("fleet not started");
  }
  std::vector<std::pair<std::vector<std::string>, dwarf::Measure>> batch;
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    Rng rng(options_.seed * 6364136223846793005ull + newest_epoch_ + 1);
    batch = SoakBatch(rng, options_.batch_size);
  }
  SCD_ASSIGN_OR_RETURN(uint64_t epoch, publisher_->ApplyUpdate(batch));
  // The model of this epoch must be the exact cube the replicas serve — the
  // retained snapshot, not a re-derivation.
  SCD_ASSIGN_OR_RETURN(server::EpochCubeStore::Snapshot snapshot,
                       publisher_->store().SnapshotAt(epoch));
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    models_[epoch] = snapshot.cube;
    newest_epoch_ = std::max(newest_epoch_, epoch);
    while (models_.size() > options_.model_epochs) {
      models_.erase(models_.begin());
    }
  }
  model_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.published_epochs;
  }
  return epoch;
}

Status Fleet::KillReplica(int index) {
  std::lock_guard<std::mutex> lock(replicas_mu_);
  if (index < 0 || static_cast<size_t>(index) >= replicas_.size()) {
    return Status::InvalidArgument("no replica " + std::to_string(index));
  }
  ReplicaProcess& replica = replicas_[static_cast<size_t>(index)];
  if (replica.pid < 0) {
    return Status::FailedPrecondition("replica " + std::to_string(index) +
                                      " already dead");
  }
  ::kill(replica.pid, SIGKILL);
  StopReplica(replica);  // reaps it and closes its pipes
  {
    std::lock_guard<std::mutex> counters_lock(counters_mu_);
    ++counters_.kills;
  }
  return Status::OK();
}

Status Fleet::RestartReplica(int index) {
  // Everything at or below this epoch was already spooled (ApplyUpdate
  // spools synchronously), so a restarted replica reaching it proves the
  // spool catch-up path.
  const uint64_t newest_spooled = publisher_->epoch();
  uint16_t port = 0;
  {
    std::lock_guard<std::mutex> lock(replicas_mu_);
    if (index < 0 || static_cast<size_t>(index) >= replicas_.size()) {
      return Status::InvalidArgument("no replica " + std::to_string(index));
    }
    ReplicaProcess& replica = replicas_[static_cast<size_t>(index)];
    if (replica.pid >= 0) {
      return Status::FailedPrecondition("replica " + std::to_string(index) +
                                        " still running");
    }
    port = replica.port;
  }
  // The port was just freed by SIGKILL; SO_REUSEADDR makes an immediate
  // rebind legal, but give the kernel a few tries anyway.
  Result<ReplicaProcess> spawned = Status::Internal("unreached");
  for (int attempt = 0; attempt < 5; ++attempt) {
    spawned = LaunchReplica(port);
    if (spawned.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  SCD_RETURN_IF_ERROR(spawned.status());
  const uint64_t banner_epoch = spawned->banner_epoch;
  {
    std::lock_guard<std::mutex> lock(replicas_mu_);
    replicas_[static_cast<size_t>(index)] = std::move(*spawned);
  }
  std::lock_guard<std::mutex> counters_lock(counters_mu_);
  ++counters_.restarts;
  if (banner_epoch >= newest_spooled) ++counters_.catchups;
  return Status::OK();
}

Status Fleet::CorruptSpool() {
  if (publisher_ == nullptr) {
    return Status::FailedPrecondition("fleet not started");
  }
  const uint64_t n = corrupt_variant_.fetch_add(1);
  // A near-future epoch slot: replicas trip over it now, the publisher
  // overwrites it (atomically) within a few publishes, and the replicas'
  // size-keyed retry picks up the good bytes — self-healing corruption.
  const uint64_t target = publisher_->epoch() + 1 + n % 3;
  const fs::path path = fs::path(spool_) / replica::SnapshotFileName(target);
  switch (n % 3) {
    case 0:  // wrong magic, plausible length
      WriteFileBytes(path, "NOTACUBE" + std::string(512, '\xab'));
      break;
    case 1: {  // truncated copy of the newest good snapshot
      auto listed = replica::ListSnapshots(spool_);
      if (!listed.ok() || listed->empty()) return listed.status();
      std::string bytes = ReadFileBytes(listed->back().path);
      WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));
      break;
    }
    default:  // a mid-rename leftover; ListSnapshots must keep ignoring it
      WriteFileBytes(fs::path(spool_) /
                         (replica::SnapshotFileName(target) + ".tmp"),
                     std::string(128, '\xcd'));
      break;
  }
  std::lock_guard<std::mutex> lock(counters_mu_);
  ++counters_.corruptions;
  return Status::OK();
}

Result<uint64_t> Fleet::ReplicaCounter(int index, const std::string& name) {
  uint16_t port = replica_port(index);
  if (port == 0) {
    return Status::InvalidArgument("no replica " + std::to_string(index));
  }
  client::Endpoint endpoint;
  endpoint.port = port;
  client::CubeClient conn(endpoint);
  SCD_ASSIGN_OR_RETURN(std::string response,
                       conn.Call("{\"op\":\"metrics\"}"));
  SCD_ASSIGN_OR_RETURN(JsonValue root, json::ParseJson(response));
  SCD_ASSIGN_OR_RETURN(JsonValue metrics, root.Get("metrics"));
  const JsonArray* entries = metrics.AsArray();
  if (entries == nullptr) {
    return Status::ParseError("metrics payload is not an array");
  }
  uint64_t total = 0;
  for (const JsonValue& entry : *entries) {
    auto entry_name = entry.Get("name");
    if (!entry_name.ok()) continue;
    auto text = entry_name->AsString();
    if (!text.ok() || *text != name) continue;
    auto value = entry.Get("value");
    if (!value.ok()) continue;
    if (auto number = value->AsNumber(); number.ok()) {
      total += static_cast<uint64_t>(*number);
    }
  }
  return total;
}

uint16_t Fleet::replica_port(int index) const {
  std::lock_guard<std::mutex> lock(replicas_mu_);
  if (index < 0 || static_cast<size_t>(index) >= replicas_.size()) return 0;
  return replicas_[static_cast<size_t>(index)].port;
}

uint64_t Fleet::published_epoch() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return newest_epoch_;
}

// ------------------------------------------------------ replica subprocesses

Result<ReplicaProcess> SpawnReplica(const std::string& binary,
                                    const std::vector<std::string>& flags) {
  // argv is built before the fork: the child of a threaded process must
  // not allocate.
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& flag : flags) {
    argv.push_back(const_cast<char*>(flag.c_str()));
  }
  argv.push_back(nullptr);
  int to_child[2];
  int from_child[2];
  if (::pipe(to_child) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  if (::pipe(from_child) != 0) {
    Status status =
        Status::IoError(std::string("pipe: ") + std::strerror(errno));
    ::close(to_child[0]);
    ::close(to_child[1]);
    return status;
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    Status status =
        Status::IoError(std::string("fork: ") + std::strerror(errno));
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      ::close(fd);
    }
    return status;
  }
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      ::close(fd);
    }
    ::execv(binary.c_str(), argv.data());
    std::fprintf(stderr, "exec %s: %s\n", binary.c_str(), std::strerror(errno));
    _exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  ReplicaProcess replica;
  replica.pid = pid;
  replica.stdin_fd = to_child[1];
  replica.stdout_fd = from_child[0];

  std::string banner;
  char c = 0;
  while (banner.find('\n') == std::string::npos &&
         ::read(replica.stdout_fd, &c, 1) == 1) {
    banner.push_back(c);
  }
  size_t colon = banner.find("127.0.0.1:");
  size_t epoch_at = banner.find("(epoch ");
  if (colon != std::string::npos && epoch_at != std::string::npos) {
    replica.port = static_cast<uint16_t>(
        std::atoi(banner.c_str() + colon + std::strlen("127.0.0.1:")));
    replica.banner_epoch = static_cast<uint64_t>(
        std::atoll(banner.c_str() + epoch_at + std::strlen("(epoch ")));
  }
  if (replica.port == 0) {
    StopReplica(replica);
    return Status::IoError("replica banner carried no port: \"" + banner +
                           "\"");
  }
  return replica;
}

void StopReplica(ReplicaProcess& replica) {
  if (replica.stdin_fd >= 0) ::close(replica.stdin_fd);  // EOF: clean exit
  if (replica.pid >= 0) {
    int status = 0;
    bool exited = false;
    for (int spin = 0; spin < 200 && !exited; ++spin) {
      exited = ::waitpid(replica.pid, &status, WNOHANG) == replica.pid;
      if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!exited) {
      ::kill(replica.pid, SIGKILL);
      ::waitpid(replica.pid, &status, 0);
    }
  }
  if (replica.stdout_fd >= 0) ::close(replica.stdout_fd);
  replica.pid = -1;
  replica.stdin_fd = -1;
  replica.stdout_fd = -1;
}

Result<ReplicaProcess> Fleet::LaunchReplica(uint16_t port) {
  return SpawnReplica(
      options_.replica_bin,
      {"--snapshot-dir=" + spool_, "--port=" + std::to_string(port),
       "--poll-ms=" + std::to_string(options_.replica_poll_ms),
       "--retain-epochs=" + std::to_string(options_.retain_epochs),
       "--workers=1"});
}

// --------------------------------------------------------------- the checker

std::shared_ptr<const dwarf::DwarfCube> Fleet::ModelFor(uint64_t epoch,
                                                        Verdict* verdict) {
  std::string complaint;
  std::shared_ptr<const dwarf::DwarfCube> model;
  {
    std::unique_lock<std::mutex> lock(model_mu_);
    // The answer can race the publisher's model insert by the gap between
    // the spool write and our map update — wait it out, bounded.
    bool arrived = model_cv_.wait_for(
        lock, std::chrono::seconds(3), [this, epoch] {
          return newest_epoch_ >= epoch ||
                 stopping_.load(std::memory_order_acquire);
        });
    if (newest_epoch_ >= epoch) {
      auto it = models_.find(epoch);
      if (it != models_.end()) {
        model = it->second;
        *verdict = Verdict::kChecked;
      } else {
        *verdict = Verdict::kUnchecked;  // aged out of the model window
      }
    } else if (!arrived || stopping_.load(std::memory_order_acquire)) {
      *verdict = Verdict::kUnchecked;  // shutdown race: don't judge it
    }
    if (!arrived && !stopping_.load(std::memory_order_acquire)) {
      complaint = "answer claims epoch " + std::to_string(epoch) +
                  " but the publisher only reached " +
                  std::to_string(newest_epoch_);
      *verdict = Verdict::kChecked;
    }
  }
  if (!complaint.empty()) RecordMismatch(complaint);
  return model;
}

void Fleet::RecordMismatch(const std::string& what) {
  std::lock_guard<std::mutex> lock(counters_mu_);
  ++counters_.mismatches;
  if (mismatch_samples_.size() < 8) mismatch_samples_.push_back(what);
}

Fleet::Verdict Fleet::CheckOneShot(const std::string& request_json,
                                   const std::string& raw) {
  ResponseEnvelope env = ParseEnvelope(raw);
  if (!env.parsed) {
    RecordMismatch("unparsable response to " + request_json + ": " + raw);
    return Verdict::kChecked;
  }
  if (!env.ok && IsAvailabilityCode(env.code)) return Verdict::kAvailability;
  Verdict verdict = Verdict::kUnchecked;
  std::shared_ptr<const dwarf::DwarfCube> model = ModelFor(env.epoch, &verdict);
  if (model == nullptr) return verdict;
  auto request = server::ParseRequest(request_json);
  if (!request.ok()) {
    RecordMismatch("soak generated an unparsable request: " + request_json);
    return Verdict::kChecked;
  }
  server::ExecResult direct = server::ExecuteRequest(*model, *request);
  // The cached flag is the replica's business; either variant is correct.
  if (raw !=
          server::MakeResponse(direct.ok, env.epoch, false,
                               direct.payload_json) &&
      raw != server::MakeResponse(direct.ok, env.epoch, true,
                                  direct.payload_json)) {
    RecordMismatch("epoch " + std::to_string(env.epoch) + " request " +
                   request_json + "\n    got:  " + raw + "\n    want: " +
                   server::MakeResponse(direct.ok, env.epoch, false,
                                        direct.payload_json));
  }
  return Verdict::kChecked;
}

void Fleet::RunCursorDrain(client::CubeClient& conn,
                           const std::string& query_json, size_t page_size) {
  const std::string open_frame = "{\"op\":\"query_open\",\"query\":" +
                                 query_json + ",\"page_size\":" +
                                 std::to_string(page_size) + "}";
  Result<std::string> opened = conn.Call(open_frame);
  if (!opened.ok()) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.transport_errors;
    return;
  }
  ResponseEnvelope open_env = ParseEnvelope(*opened);
  if (!open_env.parsed) {
    RecordMismatch("unparsable query_open response: " + *opened);
    return;
  }
  if (!open_env.ok) {
    if (IsAvailabilityCode(open_env.code)) {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.availability;
    } else {
      RecordMismatch("query_open refused: " + *opened + " for " + open_frame);
    }
    return;
  }
  auto cursor = open_env.value.Get("cursor");
  if (!cursor.ok() || !cursor->AsNumber().ok()) {
    RecordMismatch("query_open response without cursor: " + *opened);
    return;
  }
  const uint64_t cursor_id = static_cast<uint64_t>(*cursor->AsNumber());
  const uint64_t epoch = open_env.epoch;

  JsonArray rows;
  for (int pages = 0; pages < 100000; ++pages) {
    Result<std::string> next = conn.Call(
        "{\"op\":\"query_next\",\"cursor\":" + std::to_string(cursor_id) +
        "}");
    if (!next.ok()) {  // router connection died; session reaped by TTL
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.transport_errors;
      return;
    }
    ResponseEnvelope page = ParseEnvelope(*next);
    if (!page.parsed) {
      RecordMismatch("unparsable query_next response: " + *next);
      return;
    }
    if (!page.ok) {
      if (IsAvailabilityCode(page.code)) {  // failover ran out of options
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.availability;
      } else {
        RecordMismatch("query_next failed mid-drain: " + *next);
      }
      return;
    }
    if (page.epoch != epoch) {
      RecordMismatch("cursor " + std::to_string(cursor_id) +
                     " drifted from epoch " + std::to_string(epoch) + " to " +
                     std::to_string(page.epoch) + ": " + *next);
      return;
    }
    auto got = page.value.Get("rows");
    const JsonArray* page_rows = got.ok() ? got->AsArray() : nullptr;
    if (page_rows == nullptr) {
      RecordMismatch("query_next page without rows: " + *next);
      return;
    }
    rows.insert(rows.end(), page_rows->begin(), page_rows->end());
    auto done = page.value.Get("done");
    if (done.ok() && done->AsBool().ok() && *done->AsBool()) break;
  }

  Verdict verdict = Verdict::kUnchecked;
  std::shared_ptr<const dwarf::DwarfCube> model = ModelFor(epoch, &verdict);
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.cursor_drains;
  }
  if (model == nullptr) {
    if (verdict == Verdict::kUnchecked) {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.unchecked;
    }
    return;
  }
  auto request = server::ParseRequest(query_json);
  if (!request.ok()) {
    RecordMismatch("soak generated an unparsable rows query: " + query_json);
    return;
  }
  server::ExecResult direct = server::ExecuteRequest(*model, *request);
  auto direct_payload = json::ParseJson(direct.payload_json);
  auto direct_rows =
      direct_payload.ok() ? direct_payload->Get("rows") : direct_payload;
  if (!direct.ok || !direct_rows.ok()) {
    RecordMismatch("model refused rows query " + query_json + ": " +
                   direct.payload_json);
    return;
  }
  const std::string got_rows = json::SerializeJson(JsonValue(std::move(rows)));
  const std::string want_rows = json::SerializeJson(*direct_rows);
  if (got_rows != want_rows) {
    RecordMismatch("cursor drain of " + query_json + " at epoch " +
                   std::to_string(epoch) + "\n    got:  " + got_rows +
                   "\n    want: " + want_rows);
  }
}

// ----------------------------------------------------------- the churn loops

std::string Fleet::MakeRandomRequest(Rng& rng) const {
  double draw = rng.NextDouble();
  JsonObject request;
  if (draw < 0.3) {  // point: concrete keys and ALL wildcards mixed
    request.emplace_back("op", JsonValue("point"));
    JsonArray keys;
    std::vector<std::string> concrete = RandomKeys(rng);
    for (const std::string& key : concrete) {
      if (rng.NextBool(0.45)) {
        keys.push_back(JsonValue(key));
      } else {
        keys.push_back(JsonValue(nullptr));
      }
    }
    request.emplace_back("keys", JsonValue(std::move(keys)));
  } else if (draw < 0.5) {  // slice
    std::vector<std::string> keys = RandomKeys(rng);
    static const char* kDims[] = {"Date", "Day", "Station"};
    size_t dim = rng.NextBelow(3);
    request.emplace_back("op", JsonValue("slice"));
    request.emplace_back("dim", JsonValue(kDims[dim]));
    request.emplace_back("key", JsonValue(keys[dim]));
  } else if (draw < 0.75) {  // rollup, sometimes with a Date where-range
    request.emplace_back("op", JsonValue("rollup"));
    JsonArray dims;
    bool with_date = rng.NextBool(0.7);
    if (with_date) dims.push_back(JsonValue("Date"));
    dims.push_back(JsonValue(rng.NextBool(0.5) ? "Day" : "Station"));
    request.emplace_back("dims", JsonValue(std::move(dims)));
    if (with_date && rng.NextBool(0.6)) {
      auto [lo, hi] = RandomDateRange(rng);
      JsonObject filter;
      filter.emplace_back("dim", JsonValue("Date"));
      filter.emplace_back("lo", JsonValue(lo));
      filter.emplace_back("hi", JsonValue(hi));
      JsonArray where;
      where.push_back(JsonValue(std::move(filter)));
      request.emplace_back("where", JsonValue(std::move(where)));
    }
  } else {  // aggregate with a value-range on the ordered Date dimension
    request.emplace_back("op", JsonValue("aggregate"));
    JsonArray predicates;
    {
      JsonObject p;
      if (rng.NextBool(0.7)) {
        auto [lo, hi] = RandomDateRange(rng);
        p.emplace_back("kind", JsonValue("range"));
        p.emplace_back("lo", JsonValue(lo));
        p.emplace_back("hi", JsonValue(hi));
      } else {
        p.emplace_back("kind", JsonValue("all"));
      }
      predicates.push_back(JsonValue(std::move(p)));
    }
    {
      JsonObject p;
      if (rng.NextBool(0.5)) {
        p.emplace_back("kind", JsonValue("set"));
        JsonArray keys;
        size_t count = 1 + rng.NextBelow(3);
        for (size_t i = 0; i < count; ++i) {
          keys.push_back(JsonValue(Days()[rng.NextBelow(Days().size())]));
        }
        p.emplace_back("keys", JsonValue(std::move(keys)));
      } else {
        p.emplace_back("kind", JsonValue("all"));
      }
      predicates.push_back(JsonValue(std::move(p)));
    }
    {
      JsonObject p;
      if (rng.NextBool(0.3)) {
        p.emplace_back("kind", JsonValue("point"));
        p.emplace_back("key",
                       JsonValue(Stations()[rng.NextBelow(Stations().size())]));
      } else {
        p.emplace_back("kind", JsonValue("all"));
      }
      predicates.push_back(JsonValue(std::move(p)));
    }
    request.emplace_back("predicates", JsonValue(std::move(predicates)));
  }
  return json::SerializeJson(JsonValue(std::move(request)));
}

std::string Fleet::MakeRowsQuery(Rng& rng) const {
  JsonObject request;
  if (rng.NextBool(0.4)) {
    std::vector<std::string> keys = RandomKeys(rng);
    static const char* kDims[] = {"Date", "Day", "Station"};
    size_t dim = rng.NextBelow(3);
    request.emplace_back("op", JsonValue("slice"));
    request.emplace_back("dim", JsonValue(kDims[dim]));
    request.emplace_back("key", JsonValue(keys[dim]));
  } else {
    request.emplace_back("op", JsonValue("rollup"));
    JsonArray dims;
    dims.push_back(JsonValue("Date"));
    if (rng.NextBool(0.5)) dims.push_back(JsonValue("Station"));
    request.emplace_back("dims", JsonValue(std::move(dims)));
  }
  return json::SerializeJson(JsonValue(std::move(request)));
}

void Fleet::SessionLoop(int session_index) {
  client::Endpoint endpoint;
  endpoint.port = router_port_;
  client::ClientOptions client_options;
  client_options.io_timeout_ms = 10000;
  client::CubeClient conn(endpoint, client_options);
  Rng rng(options_.seed * 7919 + static_cast<uint64_t>(session_index) + 1);
  int since_drop = 0;
  while (!churn_stop_.load(std::memory_order_acquire)) {
    if (options_.drop_every > 0 && ++since_drop >= options_.drop_every) {
      conn.Close();  // injected connection drop; the next call reconnects
      since_drop = 0;
    }
    if (rng.NextBool(0.12)) {
      RunCursorDrain(conn, MakeRowsQuery(rng), 3 + rng.NextBelow(14));
      continue;
    }
    const std::string request = MakeRandomRequest(rng);
    Stopwatch watch;
    Result<std::string> response = conn.Call(request);
    const double elapsed_us = watch.ElapsedSeconds() * 1e6;
    if (!response.ok()) {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.transport_errors;
      continue;
    }
    latency_us_.Record(elapsed_us);
    switch (CheckOneShot(request, *response)) {
      case Verdict::kChecked: {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.requests;
        break;
      }
      case Verdict::kAvailability: {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.availability;
        break;
      }
      case Verdict::kTransport: {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.transport_errors;
        break;
      }
      case Verdict::kUnchecked: {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.unchecked;
        break;
      }
    }
  }
}

}  // namespace scdwarf::soak
