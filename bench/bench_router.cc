// Replica fan-out load generator: spools the Month dataset cube as an epoch
// snapshot, forks N real scdwarf_replica processes over it (mmap'd,
// cache-disabled so every request costs real traversal work), fronts them
// with an in-process Router behind a TCP listener, and drives the router
// with concurrent client connections issuing a mixed one-shot workload.
// Sweeps replica counts {1, 2, 4} and reports QPS plus client-observed
// latency quantiles per count — the near-linear-scaling acceptance numbers
// (tools/check_router_scaling.sh gates on the 4-vs-1 ratio when the machine
// has enough cores to show it).
//
// Router rows are merged into BENCH_server.json next to bench_query_server's
// rows: prior router rows are replaced, all other rows are preserved.
//
// The replica binary is found via --replica-bin=PATH, SCDWARF_REPLICA_BIN,
// or (default) <dir of this binary>/../src/replica/scdwarf_replica.
// SCDWARF_ROUTER_CLIENTS / SCDWARF_ROUTER_REQUESTS / SCDWARF_ROUTER_DATASET
// override the load shape.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "client/client.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "dwarf/dwarf_cube.h"
#include "json/json_parser.h"
#include "replica/router.h"
#include "replica/snapshot.h"
#include "server/tcp_server.h"
#include "testing/soak.h"

namespace {

using namespace scdwarf;
namespace fs = std::filesystem;

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  int parsed = std::atoi(value);
  return parsed > 0 ? parsed : fallback;
}

std::string RandomKey(const dwarf::DwarfCube& cube, size_t dim, Rng& rng) {
  const dwarf::Dictionary& dictionary = cube.dictionary(dim);
  return dictionary.DecodeUnchecked(
      static_cast<dwarf::DimKey>(rng.NextBelow(dictionary.size())));
}

// Mixed one-shot pool (points, aggregates, slices, single-dim rollups).
// Replica caches are disabled, so every request is real traversal work and
// QPS scales with the number of replica processes doing it.
std::vector<std::string> MakeRequestPool(const dwarf::DwarfCube& cube,
                                         size_t pool_size, uint64_t seed) {
  Rng rng(seed);
  size_t dims = cube.num_dimensions();
  std::vector<std::string> pool;
  pool.reserve(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    double draw = rng.NextDouble();
    json::JsonObject request;
    if (draw < 0.6) {  // point query, a few fixed coordinates, rest ALL
      request.emplace_back("op", json::JsonValue("point"));
      json::JsonArray keys;
      for (size_t dim = 0; dim < dims; ++dim) {
        if (rng.NextBool(0.25)) {
          keys.push_back(json::JsonValue(RandomKey(cube, dim, rng)));
        } else {
          keys.push_back(json::JsonValue(nullptr));
        }
      }
      request.emplace_back("keys", json::JsonValue(std::move(keys)));
    } else if (draw < 0.85) {  // slice on a random dimension
      size_t dim = rng.NextBelow(dims);
      request.emplace_back("op", json::JsonValue("slice"));
      request.emplace_back(
          "dim", json::JsonValue(cube.schema().dimensions()[dim].name));
      request.emplace_back("key", json::JsonValue(RandomKey(cube, dim, rng)));
    } else {  // single-dimension rollup
      size_t dim = rng.NextBelow(dims);
      request.emplace_back("op", json::JsonValue("rollup"));
      json::JsonArray group;
      group.push_back(json::JsonValue(cube.schema().dimensions()[dim].name));
      request.emplace_back("dims", json::JsonValue(std::move(group)));
    }
    pool.push_back(json::SerializeJson(json::JsonValue(std::move(request))));
  }
  return pool;
}

// ----------------------------------------------------------------- the load

struct LoadResult {
  double seconds = 0;
  uint64_t requests = 0;
  uint64_t failures = 0;
  double p50_us = 0;
  double p99_us = 0;
};

LoadResult RunLoad(uint16_t router_port, const std::vector<std::string>& pool,
                   int clients, int requests_per_client) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<uint64_t> failures(clients, 0);
  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      client::Endpoint endpoint;
      endpoint.port = router_port;
      client::CubeClient conn(endpoint);
      Rng rng(0xbeef + static_cast<uint64_t>(c));
      size_t index = rng.NextBelow(pool.size());
      latencies[c].reserve(requests_per_client);
      for (int i = 0; i < requests_per_client; ++i) {
        Stopwatch request_watch;
        auto response = conn.Call(pool[index]);
        if (response.ok()) {
          latencies[c].push_back(request_watch.ElapsedSeconds() * 1e6);
        } else {
          ++failures[c];
        }
        index = (index + 1) % pool.size();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  LoadResult result;
  result.seconds = watch.ElapsedSeconds();
  std::vector<double> all;
  for (auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  for (uint64_t f : failures) result.failures += f;
  result.requests = all.size();
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    result.p50_us = all[all.size() / 2];
    result.p99_us = all[std::min(all.size() - 1,
                                 static_cast<size_t>(all.size() * 0.99))];
  }
  return result;
}

// Replaces prior router rows in BENCH_server.json while preserving every
// other row (bench_query_server owns those).
Status MergeIntoBenchJson(const std::string& path,
                          std::vector<benchutil::BenchJsonRow> router_rows) {
  std::vector<benchutil::BenchJsonRow> rows;
  std::string benchmark = "query_server";
  std::ifstream in(path);
  if (in) {
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    auto parsed = json::ParseJson(bytes);
    if (parsed.ok()) {
      if (auto name = parsed->Get("benchmark"); name.ok()) {
        if (auto text = name->AsString(); text.ok()) benchmark = *text;
      }
      if (auto results = parsed->Get("results"); results.ok()) {
        if (const json::JsonArray* array = results->AsArray()) {
          for (const json::JsonValue& row : *array) {
            if (row.Get("router_replicas").ok()) continue;  // replaced below
            if (const json::JsonObject* object = row.AsObject()) {
              rows.push_back(*object);
            }
          }
        }
      }
    }
  }
  for (auto& row : router_rows) rows.push_back(std::move(row));
  return benchutil::WriteBenchJson(path, benchmark, rows);
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::InstallObservabilityDumps(&argc, argv);
  std::string replica_bin;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--replica-bin=", 0) == 0) replica_bin = arg.substr(14);
  }
  if (replica_bin.empty() && std::getenv("SCDWARF_REPLICA_BIN") != nullptr) {
    replica_bin = std::getenv("SCDWARF_REPLICA_BIN");
  }
  if (replica_bin.empty()) {
    std::error_code ec;
    fs::path self = fs::read_symlink("/proc/self/exe", ec);
    if (!ec) {
      replica_bin = (self.parent_path() / ".." / "src" / "replica" /
                     "scdwarf_replica")
                        .lexically_normal()
                        .string();
    }
  }
  if (replica_bin.empty() || !fs::exists(replica_bin)) {
    std::fprintf(stderr,
                 "scdwarf_replica binary not found (looked at \"%s\"); pass "
                 "--replica-bin=PATH or set SCDWARF_REPLICA_BIN\n",
                 replica_bin.c_str());
    return 1;
  }

  const char* dataset_env = std::getenv("SCDWARF_ROUTER_DATASET");
  std::string dataset = dataset_env != nullptr ? dataset_env : "Month";
  int clients = EnvInt("SCDWARF_ROUTER_CLIENTS", 4);
  int requests_per_client = EnvInt("SCDWARF_ROUTER_REQUESTS", 400);
  int cores = static_cast<int>(std::thread::hardware_concurrency());

  auto cube = benchutil::GetDatasetCube(dataset);
  if (!cube.ok()) {
    std::fprintf(stderr, "%s: %s\n", dataset.c_str(),
                 cube.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> pool = MakeRequestPool(**cube, 256, 0xd1ce);

  // Spool the cube once; every replica process mmaps the same file.
  fs::path spool = fs::temp_directory_path() / "scdwarf_bench_router_spool";
  fs::remove_all(spool);
  fs::create_directories(spool);
  const std::string snapshot_path =
      (spool / replica::SnapshotFileName(0)).string();
  if (Status status = replica::WriteCubeSnapshot(**cube, 0, snapshot_path);
      !status.ok()) {
    std::fprintf(stderr, "snapshot spool failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  std::printf(
      "=== Router fan-out (%s dataset, %d clients x %d requests, %d cores, "
      "replica caches off) ===\n",
      dataset.c_str(), clients, requests_per_client, cores);
  std::printf("%-9s %10s %10s %10s %10s %10s\n", "replicas", "requests",
              "seconds", "qps", "p50_us", "p99_us");

  std::vector<benchutil::BenchJsonRow> rows;
  double qps_at_1 = 0;
  bool failed = false;
  for (int replica_count : {1, 2, 4}) {
    std::vector<soak::ReplicaProcess> processes;
    std::vector<client::Endpoint> endpoints;
    for (int i = 0; i < replica_count && !failed; ++i) {
      auto process = soak::SpawnReplica(
          replica_bin, {"--snapshot-dir=" + spool.string(), "--workers=1",
                        "--cache-capacity=0"});
      if (!process.ok()) {
        std::fprintf(stderr, "spawn replica: %s\n",
                     process.status().ToString().c_str());
        failed = true;
        break;
      }
      client::Endpoint endpoint;
      endpoint.port = process->port;
      endpoints.push_back(endpoint);
      processes.push_back(std::move(*process));
    }
    if (failed) {
      for (soak::ReplicaProcess& process : processes) {
        soak::StopReplica(process);
      }
      break;
    }

    replica::RouterOptions router_options;
    router_options.health_interval_ms = 0;  // fixed fleet, no kills here
    replica::Router router(endpoints, router_options);
    if (router.CheckReplicasOnce() != static_cast<size_t>(replica_count)) {
      std::fprintf(stderr, "not every replica answered its first ping\n");
      failed = true;
    }
    server::TcpServer front(&router);
    if (Status status = front.Start(0); !status.ok()) {
      std::fprintf(stderr, "router listener: %s\n",
                   status.ToString().c_str());
      failed = true;
    }

    LoadResult load;
    if (!failed) {
      load = RunLoad(static_cast<uint16_t>(front.port()), pool, clients,
                     requests_per_client);
      if (load.failures > 0) {
        std::fprintf(stderr,
                     "%llu of %llu requests failed at %d replicas\n",
                     static_cast<unsigned long long>(load.failures),
                     static_cast<unsigned long long>(load.failures +
                                                     load.requests),
                     replica_count);
        failed = true;
      }
    }
    front.Stop();
    for (soak::ReplicaProcess& process : processes) soak::StopReplica(process);
    if (failed) break;

    double qps = load.seconds > 0
                     ? static_cast<double>(load.requests) / load.seconds
                     : 0;
    if (replica_count == 1) qps_at_1 = qps;
    std::printf("%-9d %10llu %10.3f %10.0f %10.1f %10.1f\n", replica_count,
                static_cast<unsigned long long>(load.requests), load.seconds,
                qps, load.p50_us, load.p99_us);

    benchutil::BenchJsonRow row;
    row.emplace_back("dataset", json::JsonValue(dataset));
    row.emplace_back("router_replicas", json::JsonValue(replica_count));
    row.emplace_back("router_clients", json::JsonValue(clients));
    row.emplace_back("router_requests",
                     json::JsonValue(static_cast<int64_t>(load.requests)));
    row.emplace_back("router_seconds", json::JsonValue(load.seconds));
    row.emplace_back("router_qps", json::JsonValue(qps));
    row.emplace_back("router_p50_us", json::JsonValue(load.p50_us));
    row.emplace_back("router_p99_us", json::JsonValue(load.p99_us));
    row.emplace_back("router_cores", json::JsonValue(cores));
    rows.push_back(std::move(row));
  }
  fs::remove_all(spool);
  if (failed) return 1;

  if (qps_at_1 > 0 && !rows.empty()) {
    // The last row is the widest fan-out; report the headline ratio.
    double qps_at_max = 0;
    for (const auto& field : rows.back()) {
      if (field.first == "router_qps") {
        qps_at_max = *field.second.AsNumber();
      }
    }
    std::printf("scaling: %.2fx QPS at 4 replicas vs 1 (%d cores)\n",
                qps_at_max / qps_at_1, cores);
  }

  if (Status status = MergeIntoBenchJson("BENCH_server.json", rows);
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
