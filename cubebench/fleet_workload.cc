// Workload `fleet`: the deployed read path. The Month cube is spooled once
// with WriteCubeSnapshot and served by kReplicas scdwarf_replica processes
// with their default cache; an in-process Router behind TcpServer fronts
// them. kQueryConnections closed-loop CubeClient connections send one-shots
// drawn from a query space far larger than the replica caches, plus a share
// of cursor drains through the router's sticky sessions. No publishes.
// Router hop, client pool, tree traversal and JSON row relay all run here.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench_common.h"
#include "client/client.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "json/json_parser.h"
#include "replica/router.h"
#include "replica/snapshot.h"
#include "server/tcp_server.h"
#include "server/wire.h"

namespace cubebench {
namespace {

using namespace scdwarf;
namespace fs = std::filesystem;

constexpr int kReplicas = 2;
// Requests pre-generated per connection; a connection that runs out starts
// over (a run of the default length does not get there).
constexpr size_t kStreamLength = 60000;
// Share of stream items that are cursor drains: the fleet soak sessions'
// share (soak::Fleet::SessionLoop). The page size is the benchmark's own
// choice; the soak's 3-16 rows suit its small cube, not Month's slices.
constexpr double kDrainShare = 0.12;
constexpr size_t kDrainPageSize = 256;
// Answers kept for the model check per connection and phase: one-shots
// spread evenly over the phase, and every tenth drain; at most
// kMaxSamplesPerClient of each, so kept rows add little to rss_peak_mb.
constexpr size_t kMaxSamplesPerClient = 60;
constexpr size_t kDrainSampleEvery = 10;
// One-shots replayed through ExecuteRequest for server.exec_us_*.
constexpr size_t kExecReplay = 3000;

// One scdwarf_replica child process. Closing its stdin asks it to exit; the
// destructor waits for it (and kills it after two seconds).
class ReplicaProcess {
 public:
  ReplicaProcess() = default;
  ~ReplicaProcess() { Stop(); }
  ReplicaProcess(const ReplicaProcess&) = delete;
  ReplicaProcess& operator=(const ReplicaProcess&) = delete;

  Status Start(const std::string& binary, const std::string& spool) {
    int to_child[2];
    int from_child[2];
    if (pipe(to_child) != 0) return Status::IoError(std::strerror(errno));
    if (pipe(from_child) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      return Status::IoError(std::strerror(errno));
    }
    std::string spool_flag = "--snapshot-dir=" + spool;
    pid_ = fork();
    if (pid_ < 0) return Status::IoError(std::string("fork: ") + std::strerror(errno));
    if (pid_ == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      close(to_child[0]);
      close(to_child[1]);
      close(from_child[0]);
      close(from_child[1]);
      execl(binary.c_str(), binary.c_str(), spool_flag.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    stdin_fd_ = to_child[1];
    stdout_fd_ = from_child[0];
    // "replica serving on 127.0.0.1:PORT (...)"
    std::string banner;
    char c = 0;
    while (banner.find('\n') == std::string::npos && read(stdout_fd_, &c, 1) == 1) {
      banner.push_back(c);
    }
    size_t at = banner.find("127.0.0.1:");
    if (at == std::string::npos) {
      return Status::IoError("replica did not start: \"" + banner + "\"");
    }
    port_ = static_cast<uint16_t>(std::atoi(banner.c_str() + at + 10));
    return port_ == 0 ? Status::IoError("replica reported port 0") : Status::OK();
  }

  // Asks the replica to exit without waiting for it.
  void RequestStop() {
    if (stdin_fd_ >= 0) close(stdin_fd_);
    stdin_fd_ = -1;
  }

  void Stop() {
    RequestStop();
    if (pid_ > 0) {
      int status = 0;
      bool exited = false;
      for (int spin = 0; spin < 200 && !exited; ++spin) {
        exited = waitpid(pid_, &status, WNOHANG) == pid_;
        if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (!exited) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
      }
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) close(stdout_fd_);
    stdout_fd_ = -1;
  }

  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

// One request of a connection's stream: a one-shot, or a cursor drain of a
// rows query.
struct Item {
  bool drain = false;
  Query query;  ///< drain: query.json is the wrapped slice/rollup
};

struct Sample {
  bool drain = false;
  std::string request;
  std::string response;  ///< drain: the pages' rows, concatenated
};

struct ClientLog {
  std::vector<double> latency_us;
  std::vector<QueryClass> classes;
  std::vector<double> response_kb;
  std::vector<double> drain_ms;
  uint64_t pages = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Sample> samples;
};

// Counters and histograms of one {"metrics":[...]} response.
class MetricsView {
 public:
  static Result<MetricsView> Fetch(client::CubeClient& conn) {
    SCD_ASSIGN_OR_RETURN(std::string response, conn.Call("{\"op\":\"metrics\"}"));
    SCD_ASSIGN_OR_RETURN(json::JsonValue parsed, json::ParseJson(response));
    SCD_ASSIGN_OR_RETURN(json::JsonValue list, parsed.Get("metrics"));
    MetricsView view;
    if (const json::JsonArray* entries = list.AsArray()) view.entries_ = *entries;
    return view;
  }

  /// Field \p field of the first series named \p name whose labels contain
  /// \p label_value (any series when empty); 0 when absent.
  double Get(std::string_view name, std::string_view field,
             std::string_view label_value = "") const {
    for (const json::JsonValue& entry : entries_) {
      auto entry_name = entry.Get("name");
      if (!entry_name.ok() || entry_name->AsString().ValueOr("") != name) continue;
      if (!label_value.empty()) {
        auto labels = entry.Get("labels");
        if (!labels.ok() ||
            json::SerializeJson(*labels).find(label_value) == std::string::npos) {
          continue;
        }
      }
      auto value = entry.Get(field);
      return value.ok() ? value->AsNumber().ValueOr(0) : 0;
    }
    return 0;
  }

 private:
  json::JsonArray entries_;
};

class FleetWorkload : public Workload {
 public:
  // Connections close first; the replicas are asked to exit together and
  // then waited for.
  ~FleetWorkload() override {
    clients_.clear();
    replica_client_.reset();
    if (front_ != nullptr) front_->Stop();
    router_.reset();
    for (const auto& process : replicas_) process->RequestStop();
    replicas_.clear();
  }

  Status Setup(const RunOptions& options) override {
    options_ = options;
    SCD_ASSIGN_OR_RETURN(Feed feed, GenerateMonthFeed(options.seed));
    SCD_ASSIGN_OR_RETURN(dwarf::DwarfCube cube, BuildCube(feed));
    cube_ = std::make_unique<dwarf::DwarfCube>(std::move(cube));

    QueryGenerator generator(*cube_);
    for (int c = 0; c < kQueryConnections; ++c) {
      Rng rng(options.seed * 0x2545f4914f6cdd1dULL + static_cast<uint64_t>(c));
      std::vector<Item> stream;
      stream.reserve(kStreamLength);
      for (size_t i = 0; i < kStreamLength; ++i) {
        if (rng.NextBool(kDrainShare)) {
          stream.push_back({true, {generator.NextRowsQuery(rng), QueryClass::kRollup}});
        } else {
          stream.push_back({false, generator.Next(rng)});
        }
      }
      streams_.push_back(std::move(stream));
    }

    fs::path spool = fs::path(options.work_dir) / "spool";
    fs::remove_all(spool);
    fs::create_directories(spool);
    Stopwatch write_watch;
    {
      trace::ScopedSpan span("replica.write_snapshot");
      SCD_RETURN_IF_ERROR(replica::WriteCubeSnapshot(
          *cube_, 0, (spool / replica::SnapshotFileName(0)).string()));
    }
    snapshot_write_ms_ = write_watch.ElapsedMillis();
    snapshot_bytes_ = fs::file_size(spool / replica::SnapshotFileName(0));
    // The load a replica makes at start-up (its own metrics only meter later
    // load_snapshot publishes).
    Stopwatch load_watch;
    {
      trace::ScopedSpan span("replica.load_snapshot");
      SCD_RETURN_IF_ERROR(replica::LoadCubeSnapshot(
          (spool / replica::SnapshotFileName(0)).string()).status());
    }
    snapshot_load_ms_ = load_watch.ElapsedMillis();

    std::vector<client::Endpoint> endpoints;
    for (int r = 0; r < kReplicas; ++r) {
      replicas_.push_back(std::make_unique<ReplicaProcess>());
      trace::ScopedSpan span("replica.spawn");
      SCD_RETURN_IF_ERROR(replicas_.back()->Start(options.replica_bin, spool.string()));
      client::Endpoint endpoint;
      endpoint.port = replicas_.back()->port();
      endpoints.push_back(endpoint);
    }
    router_ = std::make_unique<replica::Router>(endpoints);
    if (router_->CheckReplicasOnce() != static_cast<size_t>(kReplicas)) {
      return Status::IoError("not every replica answered the router's ping");
    }
    front_ = std::make_unique<server::TcpServer>(router_.get());
    SCD_RETURN_IF_ERROR(front_->Start(0));
    router_endpoint_.port = static_cast<uint16_t>(front_->port());
    for (int c = 0; c < kQueryConnections; ++c) {
      clients_.push_back(std::make_unique<client::CubeClient>(router_endpoint_));
      SCD_RETURN_IF_ERROR(clients_.back()->Call("{\"op\":\"ping\"}").status());
    }
    replica_client_ = std::make_unique<client::CubeClient>(endpoints.front());
    return Status::OK();
  }

  Result<PhaseResult> Run(double seconds) override {
    std::vector<MetricsView> replicas_before;
    for (const auto& endpoint : ReplicaEndpoints()) {
      client::CubeClient conn(endpoint);
      SCD_ASSIGN_OR_RETURN(MetricsView view, MetricsView::Fetch(conn));
      replicas_before.push_back(std::move(view));
    }
    SCD_ASSIGN_OR_RETURN(MetricsView router_before, MetricsView::Fetch(*clients_.front()));

    std::vector<ClientLog> logs(kQueryConnections);
    std::atomic<bool> stop{false};
    Stopwatch phase_watch;
    std::vector<std::thread> threads;
    for (int c = 0; c < kQueryConnections; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = logs[c];
        client::CubeClient& conn = *clients_[c];
        const std::vector<Item>& stream = streams_[c];
        double next_sample_s = 0;
        size_t one_shot_samples = 0;
        size_t drain_samples = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const Item& item = stream[cursor_[c]++ % stream.size()];
          ++log.attempted;
          if (item.drain) {
            Stopwatch watch;
            trace::ScopedSpan span("client.drain");
            Result<std::string> rows = Drain(conn, item.query.json, &log.pages);
            if (!rows.ok()) {
              ++log.failed;
              continue;
            }
            log.drain_ms.push_back(watch.ElapsedMillis());
            if (log.drain_ms.size() % kDrainSampleEvery == 1 &&
                drain_samples < kMaxSamplesPerClient) {
              ++drain_samples;
              log.samples.push_back({true, item.query.json, std::move(*rows)});
            }
            continue;
          }
          Stopwatch watch;
          Result<std::string> response = [&] {
            trace::ScopedSpan span("client.call");
            return conn.Call(item.query.json);
          }();
          double us = watch.ElapsedMicros();
          if (!response.ok() || !ResponseOk(*response)) {
            ++log.failed;
            continue;
          }
          log.latency_us.push_back(us);
          log.classes.push_back(item.query.cls);
          log.response_kb.push_back(response->size() / 1024.0);
          if (phase_watch.ElapsedSeconds() >= next_sample_s && one_shot_samples <
              kMaxSamplesPerClient) {
            log.samples.push_back({false, item.query.json, std::move(*response)});
            next_sample_s += seconds / kMaxSamplesPerClient;
            ++one_shot_samples;
          }
        }
      });
    }
    while (phase_watch.ElapsedSeconds() < seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop = true;
    for (std::thread& thread : threads) thread.join();
    double elapsed = phase_watch.ElapsedSeconds();

    PhaseResult phase;
    std::vector<double> latency_us, response_kb, drain_ms;
    std::vector<QueryClass> classes;
    uint64_t pages = 0;
    for (ClientLog& log : logs) {
      phase.attempted += log.attempted;
      phase.failed += log.failed;
      latency_us.insert(latency_us.end(), log.latency_us.begin(), log.latency_us.end());
      classes.insert(classes.end(), log.classes.begin(), log.classes.end());
      response_kb.insert(response_kb.end(), log.response_kb.begin(), log.response_kb.end());
      drain_ms.insert(drain_ms.end(), log.drain_ms.begin(), log.drain_ms.end());
      pages += log.pages;
      for (Sample& sample : log.samples) samples_.push_back(std::move(sample));
    }
    double qps = static_cast<double>(latency_us.size()) / elapsed;
    phase.end_to_end["main_p50_ms"] = Median(latency_us) / 1000.0;
    phase.end_to_end["aux_p50_ms"] = Median(drain_ms);
    phase.end_to_end["bytes_per_tuple"] =
        static_cast<double>(snapshot_bytes_) /
        static_cast<double>(std::max<uint64_t>(1, cube_->stats().tuple_count));

    std::printf("fleet: %d connections via router to %d replicas, %.1f%% drains "
                "(page %zu), %.2f s\n",
                kQueryConnections, kReplicas, kDrainShare * 100, kDrainPageSize,
                elapsed);
    Report("query_qps", qps, "1/s");
    ReportLatency("query", latency_us, "us");
    ReportTailClasses(latency_us, classes);
    ReportLatency("drain", drain_ms, "ms");
    Report("snapshot_bytes_per_tuple", phase.end_to_end["bytes_per_tuple"], "B");

    // ----------------------------------------------------------- per layer
    auto& layers = phase.layers;
    std::vector<MetricsView> replicas_after;
    for (const auto& endpoint : ReplicaEndpoints()) {
      client::CubeClient conn(endpoint);
      SCD_ASSIGN_OR_RETURN(MetricsView view, MetricsView::Fetch(conn));
      replicas_after.push_back(std::move(view));
    }
    SCD_ASSIGN_OR_RETURN(MetricsView router_after, MetricsView::Fetch(*clients_.front()));
    double hits = 0, lookups = 0, handle_weighted = 0, handle_count = 0;
    double forwarded_total = 0, forwarded_max = 0;
    std::vector<client::Endpoint> endpoints = ReplicaEndpoints();
    for (size_t r = 0; r < replicas_after.size(); ++r) {
      const MetricsView& a = replicas_after[r];
      const MetricsView& b = replicas_before[r];
      double h = a.Get("server_cache_hits_total", "value") -
                 b.Get("server_cache_hits_total", "value");
      double m = a.Get("server_cache_misses_total", "value") -
                 b.Get("server_cache_misses_total", "value");
      hits += h;
      lookups += h + m;
      double count = a.Get("server_request_us", "count");
      handle_weighted += count * a.Get("server_request_us", "p50");
      handle_count += count;
      double forwarded =
          router_after.Get("router_forwarded_total", "value", endpoints[r].ToString()) -
          router_before.Get("router_forwarded_total", "value", endpoints[r].ToString());
      forwarded_total += forwarded;
      forwarded_max = std::max(forwarded_max, forwarded);
    }
    std::vector<double> exec_us = ReplayExecute();
    layers["server.exec_us_p50"] = Median(exec_us);
    layers["server.exec_us_p99"] = Quantile(exec_us, 0.99);
    layers["replica.response_kb_p50"] = Median(response_kb);
    layers["replica.response_kb_p99"] = Quantile(response_kb, 0.99);
    layers["dwarf.cursor_pages"] =
        drain_ms.empty() ? 0 : static_cast<double>(pages) / drain_ms.size();
    layers["replica.router_ping_us_p50"] = PingP50Micros(*clients_.front());
    layers["replica.replica_ping_us_p50"] = PingP50Micros(*replica_client_);
    // The metrics op gives quantiles, not buckets, so no phase delta can be
    // taken: this is each replica's p50 over its whole life, averaged with
    // the replicas' request counts as weights.
    layers["replica.handle_us_p50_mean"] =
        handle_count == 0 ? 0 : handle_weighted / handle_count;
    layers["replica.cache_hit_ratio"] = lookups == 0 ? 0 : hits / lookups;
    layers["replica.forward_share_max"] =
        forwarded_total == 0 ? 0 : forwarded_max / forwarded_total;
    layers["replica.retries"] = router_after.Get("router_retries_total", "value") -
                                router_before.Get("router_retries_total", "value");
    layers["replica.failovers"] = router_after.Get("router_failovers_total", "value") -
                                  router_before.Get("router_failovers_total", "value");
    layers["replica.snapshot_write_ms"] = snapshot_write_ms_;
    layers["replica.snapshot_load_ms"] = snapshot_load_ms_;
    return phase;
  }

  // Sampled one-shots must be byte-identical to the model's answer (the
  // in-memory cube the snapshot was written from); a drain's pages,
  // concatenated, must equal the one-shot rows of the same query.
  Status Check() override {
    size_t one_shots = 0, drains = 0;
    for (const Sample& sample : samples_) {
      if (sample.drain) {
        SCD_ASSIGN_OR_RETURN(std::string expected,
                             ExpectedResponse(*cube_, 0, false, sample.request));
        SCD_ASSIGN_OR_RETURN(std::string rows, RowsText(expected));
        if (rows != sample.response) {
          return Status::Internal("drained rows differ from the one-shot rows of " +
                                  sample.request);
        }
        ++drains;
        continue;
      }
      SCD_ASSIGN_OR_RETURN(Envelope envelope, ParseEnvelope(sample.response));
      SCD_ASSIGN_OR_RETURN(std::string expected,
                           ExpectedResponse(*cube_, envelope.epoch, envelope.cached,
                                            sample.request));
      if (envelope.epoch != 0 || expected != sample.response) {
        return Status::Internal("answer differs from the model for " + sample.request);
      }
      ++one_shots;
    }
    if (one_shots == 0 || drains == 0) {
      return Status::Internal("no one-shots or no drains sampled");
    }
    std::printf("fleet check: %zu one-shots and %zu drains match the model\n",
                one_shots, drains);
    return Status::OK();
  }

 private:
  std::vector<client::Endpoint> ReplicaEndpoints() const {
    std::vector<client::Endpoint> endpoints;
    for (const auto& process : replicas_) {
      client::Endpoint endpoint;
      endpoint.port = process->port();
      endpoints.push_back(endpoint);
    }
    return endpoints;
  }

  // query_open + query_next until done; returns the pages' rows joined.
  static Result<std::string> Drain(client::CubeClient& conn, const std::string& query,
                                   uint64_t* pages) {
    SCD_ASSIGN_OR_RETURN(std::string opened,
                         conn.Call("{\"op\":\"query_open\",\"query\":" + query +
                                   ",\"page_size\":" + std::to_string(kDrainPageSize) +
                                   "}"));
    if (!ResponseOk(opened)) return Status::Internal("query_open refused: " + opened);
    SCD_ASSIGN_OR_RETURN(std::string cursor, FieldText(opened, "cursor"));
    const std::string next = "{\"op\":\"query_next\",\"cursor\":" + cursor + "}";
    std::string rows;
    while (true) {
      SCD_ASSIGN_OR_RETURN(std::string page, conn.Call(next));
      if (!ResponseOk(page)) return Status::Internal("query_next refused: " + page);
      ++*pages;
      SCD_ASSIGN_OR_RETURN(std::string page_rows, RowsText(page));
      if (!page_rows.empty()) {
        if (!rows.empty()) rows += ',';
        rows += page_rows;
      }
      SCD_ASSIGN_OR_RETURN(std::string done, FieldText(page, "done"));
      if (done == "true") return rows;
    }
  }

  std::vector<double> ReplayExecute() const {
    std::vector<double> us;
    for (const Item& item : streams_.front()) {
      if (us.size() == kExecReplay) break;
      if (item.drain) continue;
      auto request = server::ParseRequest(item.query.json);
      if (!request.ok()) continue;
      Stopwatch watch;
      server::ExecResult result = server::ExecuteRequest(*cube_, *request);
      double elapsed = watch.ElapsedMicros();
      if (result.ok) us.push_back(elapsed);
    }
    return us;
  }

  RunOptions options_;
  std::unique_ptr<dwarf::DwarfCube> cube_;
  std::vector<std::vector<Item>> streams_;
  size_t cursor_[kQueryConnections] = {};
  double snapshot_write_ms_ = 0;
  double snapshot_load_ms_ = 0;
  uint64_t snapshot_bytes_ = 0;
  std::vector<std::unique_ptr<ReplicaProcess>> replicas_;
  std::unique_ptr<replica::Router> router_;
  std::unique_ptr<server::TcpServer> front_;
  client::Endpoint router_endpoint_;
  std::vector<std::unique_ptr<client::CubeClient>> clients_;
  std::unique_ptr<client::CubeClient> replica_client_;
  std::vector<Sample> samples_;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetWorkload() {
  return std::make_unique<FleetWorkload>();
}

}  // namespace cubebench
