// Query-service load generator: serves each selected dataset's cube from a
// QueryServer and drives it with concurrent clients issuing a mixed
// point/aggregate/slice/rollup workload through the in-process ServerHandle
// (the same execution, admission and caching path as the TCP front-end).
// Reports QPS, latency quantiles from the server's histogram, and the cache
// hit rate, then measures the epoch-bump path: one small batch applied via
// the incremental delta merge (with its delta-build/merge split and node
// reuse), the identical batch applied via a full from-scratch rebuild, and
// a sustained burst of publishes. Results land machine-readably in
// BENCH_server.json.
//
// Defaults to the Day and Month datasets (the acceptance pair);
// SCDWARF_DATASETS overrides as usual. SCDWARF_SERVER_CLIENTS and
// SCDWARF_SERVER_REQUESTS override the client count / per-client requests.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "client/client.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "dwarf/dwarf_cube.h"
#include "dwarf/update.h"
#include "json/json_parser.h"
#include "server/query_server.h"
#include "server/tcp_server.h"
#include "server/wire.h"

namespace {

using namespace scdwarf;

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  int parsed = std::atoi(value);
  return parsed > 0 ? parsed : fallback;
}

// Draws a random decoded value of dimension `dim` from the cube dictionary.
std::string RandomKey(const dwarf::DwarfCube& cube, size_t dim, Rng& rng) {
  const dwarf::Dictionary& dictionary = cube.dictionary(dim);
  return dictionary.DecodeUnchecked(
      static_cast<dwarf::DimKey>(rng.NextBelow(dictionary.size())));
}

// Pre-generates a pool of request frames. Clients cycle through the pool
// from random offsets, so repeated queries exercise the result cache the
// way a real fleet of dashboards would.
std::vector<std::string> MakeRequestPool(const dwarf::DwarfCube& cube,
                                         size_t pool_size, uint64_t seed) {
  Rng rng(seed);
  size_t dims = cube.num_dimensions();
  std::vector<std::string> pool;
  pool.reserve(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    double draw = rng.NextDouble();
    json::JsonObject request;
    if (draw < 0.5) {  // point query, a few fixed coordinates, rest ALL
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
    } else if (draw < 0.7) {  // aggregate with one range + one set
      request.emplace_back("op", json::JsonValue("aggregate"));
      json::JsonArray predicates;
      size_t range_dim = rng.NextBelow(dims);
      size_t set_dim = (range_dim + 1) % dims;
      for (size_t dim = 0; dim < dims; ++dim) {
        json::JsonObject predicate;
        if (dim == range_dim && cube.dictionary(dim).size() > 1) {
          size_t size = cube.dictionary(dim).size();
          uint64_t lo = rng.NextBelow(size);
          uint64_t hi = lo + rng.NextBelow(size - lo);
          predicate.emplace_back("kind", json::JsonValue("range"));
          predicate.emplace_back("lo", json::JsonValue(static_cast<int64_t>(lo)));
          predicate.emplace_back("hi", json::JsonValue(static_cast<int64_t>(hi)));
        } else if (dim == set_dim) {
          predicate.emplace_back("kind", json::JsonValue("set"));
          json::JsonArray members;
          size_t count = 1 + rng.NextBelow(3);
          for (size_t k = 0; k < count; ++k) {
            members.push_back(json::JsonValue(RandomKey(cube, dim, rng)));
          }
          predicate.emplace_back("keys", json::JsonValue(std::move(members)));
        } else {
          predicate.emplace_back("kind", json::JsonValue("all"));
        }
        predicates.push_back(json::JsonValue(std::move(predicate)));
      }
      request.emplace_back("predicates", json::JsonValue(std::move(predicates)));
    } else if (draw < 0.9) {  // slice on a random dimension
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

struct RunResult {
  double seconds = 0;
  uint64_t requests = 0;
};

// ---------------------------------------------------------------- helpers
// for the session/revalidation phases: minimal envelope accessors (the
// bench tolerates malformed responses instead of crashing mid-run).

bool GetBool(const json::JsonValue& object, const char* key) {
  auto value = object.Get(key);
  if (!value.ok()) return false;
  auto flag = value->AsBool();
  return flag.ok() && *flag;
}

double GetNumber(const json::JsonValue& object, const char* key) {
  auto value = object.Get(key);
  if (!value.ok()) return 0;
  auto number = value->AsNumber();
  return number.ok() ? *number : 0;
}

std::string RowsJson(const json::JsonValue& envelope) {
  auto rows = envelope.Get("rows");
  if (!rows.ok()) return "";
  return json::SerializeJson(*rows);
}

// Drains a cursor session and compares the concatenated pages against the
// one-shot rows of the same query — the acceptance check of the session
// protocol, measured instead of asserted.
struct CursorRun {
  uint64_t pages = 0;
  uint64_t rows = 0;
  double seconds = 0;
  bool matches_oneshot = false;
};

CursorRun RunCursorDrain(server::QueryServer& server,
                         const std::string& query_json, size_t page_size) {
  CursorRun run;
  server::ServerHandle handle(&server);
  auto oneshot = json::ParseJson(handle.Call(query_json));
  if (!oneshot.ok()) return run;
  std::string want = RowsJson(*oneshot);

  Stopwatch watch;
  auto open = json::ParseJson(handle.QueryOpen(query_json, page_size));
  if (!open.ok() || !GetBool(*open, "ok")) return run;
  uint64_t cursor = static_cast<uint64_t>(GetNumber(*open, "cursor"));
  json::JsonArray drained;
  while (true) {
    auto page = json::ParseJson(handle.QueryNext(cursor));
    if (!page.ok() || !GetBool(*page, "ok")) return run;
    auto rows = page->Get("rows");
    if (!rows.ok()) return run;
    const json::JsonArray* array = rows->AsArray();
    if (array == nullptr) return run;
    run.rows += array->size();
    ++run.pages;
    for (const json::JsonValue& row : *array) drained.push_back(row);
    if (GetBool(*page, "done")) break;
  }
  run.seconds = watch.ElapsedSeconds();
  run.matches_oneshot =
      json::SerializeJson(json::JsonValue(std::move(drained))) == want;
  return run;
}

// Probes delta-epoch revalidation: warm a slice on dimension-0 key A, publish
// a batch touching only key B (the cached entry must carry over as a
// revalidated hit), then publish a batch touching key A (the entry must drop
// and recompute).
struct RevalidationProbe {
  bool ran = false;
  uint64_t revalidated_delta = 0;
  bool revalidated_hit = false;
  bool invalidated_recompute = false;
};

// Picks the dimension with the largest dictionary — low-cardinality leading
// dimensions (a single year, one city) cannot distinguish "touched" from
// "missed" prefixes.
size_t WidestDimension(const dwarf::DwarfCube& cube) {
  size_t best = 0;
  for (size_t dim = 1; dim < cube.num_dimensions(); ++dim) {
    if (cube.dictionary(dim).size() > cube.dictionary(best).size()) best = dim;
  }
  return best;
}

RevalidationProbe ProbeRevalidation(server::QueryServer& server,
                                    const dwarf::DwarfCube& cube, Rng& rng) {
  RevalidationProbe probe;
  size_t probe_dim = WidestDimension(cube);
  const dwarf::Dictionary& dict = cube.dictionary(probe_dim);
  if (dict.size() < 2) return probe;
  std::string key_a = dict.DecodeUnchecked(0);
  std::string key_b = dict.DecodeUnchecked(1);

  json::JsonObject request;
  request.emplace_back("op", json::JsonValue("slice"));
  request.emplace_back(
      "dim", json::JsonValue(cube.schema().dimensions()[probe_dim].name));
  request.emplace_back("key", json::JsonValue(key_a));
  std::string query = json::SerializeJson(json::JsonValue(std::move(request)));

  auto make_batch = [&](const std::string& probe_key) {
    std::vector<std::pair<std::vector<std::string>, dwarf::Measure>> batch;
    for (int i = 0; i < 4; ++i) {
      std::vector<std::string> keys;
      for (size_t dim = 0; dim < cube.num_dimensions(); ++dim) {
        keys.push_back(dim == probe_dim ? probe_key
                                        : RandomKey(cube, dim, rng));
      }
      batch.emplace_back(std::move(keys), 1);
    }
    return batch;
  };

  server::ServerHandle handle(&server);
  handle.Call(query);  // warm: compute and cache at the current epoch
  uint64_t revalidated_before = server.Stats().cache.revalidated;

  if (!server.ApplyUpdate(make_batch(key_b)).ok()) return probe;
  auto after_miss = json::ParseJson(handle.Call(query));
  probe.revalidated_delta =
      server.Stats().cache.revalidated - revalidated_before;
  probe.revalidated_hit = after_miss.ok() && GetBool(*after_miss, "cached");

  if (!server.ApplyUpdate(make_batch(key_a)).ok()) return probe;
  auto after_touch = json::ParseJson(handle.Call(query));
  probe.invalidated_recompute =
      after_touch.ok() && !GetBool(*after_touch, "cached");
  probe.ran = true;
  return probe;
}

// Range phase: the same value window answered two ways — as a value-form
// range predicate (resolved to a rank window) and as a set predicate
// enumerating every matching value — must give identical answers. Also
// probes range-aware revalidation: a cached value-range aggregate must
// survive a publish whose keys all fall outside the window.
struct RangeProbe {
  bool ran = false;
  std::string dim_name;
  bool answers_match = false;
  bool reval_hit = false;
};

// The ordered dimension with the largest dictionary (needs >= 3 values for
// a window with room outside it), or num_dimensions() when there is none.
size_t WidestOrderedDimension(const dwarf::DwarfCube& cube) {
  size_t best = cube.num_dimensions();
  for (size_t dim = 0; dim < cube.num_dimensions(); ++dim) {
    if (!cube.schema().dimensions()[dim].ordered) continue;
    if (cube.dictionary(dim).size() < 3) continue;
    if (best == cube.num_dimensions() ||
        cube.dictionary(dim).size() > cube.dictionary(best).size()) {
      best = dim;
    }
  }
  return best;
}

RangeProbe ProbeRangeQueries(server::QueryServer& server,
                             const dwarf::DwarfCube& base_cube, Rng& rng) {
  RangeProbe probe;
  size_t range_dim = WidestOrderedDimension(base_cube);
  if (range_dim == base_cube.num_dimensions()) return probe;
  probe.dim_name = base_cube.schema().dimensions()[range_dim].name;
  server::EpochCubeStore::Snapshot snapshot = server.store().snapshot();
  const dwarf::DwarfCube& cube = *snapshot.cube;
  const dwarf::Dictionary& dict = cube.dictionary(range_dim);
  // Middle third of the value order; rank 0 (where the miss-publish below
  // lives) stays outside the window.
  dwarf::DimKey lo_rank = static_cast<dwarf::DimKey>(dict.size() / 3);
  dwarf::DimKey hi_rank = static_cast<dwarf::DimKey>(2 * dict.size() / 3);
  std::string lo = dict.DecodeUnchecked(dict.IdAtRank(lo_rank));
  std::string hi = dict.DecodeUnchecked(dict.IdAtRank(hi_rank));

  auto request_with = [&](json::JsonObject range_predicate) {
    json::JsonObject request;
    request.emplace_back("op", json::JsonValue("aggregate"));
    json::JsonArray predicates;
    for (size_t dim = 0; dim < cube.num_dimensions(); ++dim) {
      if (dim == range_dim) {
        predicates.push_back(json::JsonValue(std::move(range_predicate)));
      } else {
        json::JsonObject all;
        all.emplace_back("kind", json::JsonValue("all"));
        predicates.push_back(json::JsonValue(std::move(all)));
      }
    }
    request.emplace_back("predicates", json::JsonValue(std::move(predicates)));
    return json::SerializeJson(json::JsonValue(std::move(request)));
  };

  json::JsonObject ranged;
  ranged.emplace_back("kind", json::JsonValue("range"));
  ranged.emplace_back("lo", json::JsonValue(lo));
  ranged.emplace_back("hi", json::JsonValue(hi));
  std::string ranged_json = request_with(std::move(ranged));

  json::JsonObject members;
  members.emplace_back("kind", json::JsonValue("set"));
  json::JsonArray values;
  for (dwarf::DimKey rank = lo_rank; rank <= hi_rank; ++rank) {
    values.push_back(
        json::JsonValue(dict.DecodeUnchecked(dict.IdAtRank(rank))));
  }
  members.emplace_back("keys", json::JsonValue(std::move(values)));
  std::string enumerated_json = request_with(std::move(members));

  auto ranged_request = server::ParseRequest(ranged_json);
  auto enumerated_request = server::ParseRequest(enumerated_json);
  if (!ranged_request.ok() || !enumerated_request.ok()) return probe;

  // Direct ExecuteRequest keeps the result cache out of the comparison.
  server::ExecResult ranged_result =
      server::ExecuteRequest(cube, *ranged_request);
  server::ExecResult enumerated_result =
      server::ExecuteRequest(cube, *enumerated_request);
  probe.answers_match =
      ranged_result.ok && enumerated_result.ok &&
      ranged_result.payload_json == enumerated_result.payload_json;

  // Revalidation: warm through the caching path, publish keys pinned to the
  // rank-0 value (outside the window), and the entry must carry over.
  server::ServerHandle handle(&server);
  handle.Call(ranged_json);
  std::string outside = dict.DecodeUnchecked(dict.IdAtRank(0));
  std::vector<std::pair<std::vector<std::string>, dwarf::Measure>> batch;
  for (int i = 0; i < 4; ++i) {
    std::vector<std::string> keys;
    for (size_t dim = 0; dim < cube.num_dimensions(); ++dim) {
      keys.push_back(dim == range_dim ? outside : RandomKey(cube, dim, rng));
    }
    batch.emplace_back(std::move(keys), 1);
  }
  if (!server.ApplyUpdate(batch).ok()) return probe;
  auto after = json::ParseJson(handle.Call(ranged_json));
  probe.reval_hit = after.ok() && GetBool(*after, "cached");
  probe.ran = true;
  return probe;
}

// Wire phase: the same cursor drain and one-shot mix over a real TCP
// connection through CubeClient::Call, so the socket, framing and client
// parse are what's measured on top of the in-process numbers.
struct WirePhase {
  bool ran = false;
  double json_drain_ms = 0;
  uint64_t rows = 0;  ///< rows one drain returned
  double json_oneshot_us = 0;
};

WirePhase RunWirePhase(server::QueryServer& server,
                       const std::string& cursor_query,
                       const std::vector<std::string>& pool) {
  WirePhase phase;
  server::TcpServer tcp(&server);
  if (!tcp.Start().ok()) return phase;
  client::Endpoint endpoint;
  endpoint.port = static_cast<uint16_t>(tcp.port());
  // The pool contains unfiltered slices over wide dimensions — multi-MB
  // responses on the bigger datasets — so raise the frame cap well past
  // the 1 MiB default.
  client::ClientOptions options;
  options.max_frame_bytes = 64u << 20;
  client::CubeClient conn(endpoint, options);
  constexpr size_t kPageSize = 64;

  // Timed drain: opens a cursor and pages it to exhaustion, parsing every
  // page. Returns the rows drained, or 0 on any failure.
  auto drain = [&](double* ms) -> uint64_t {
    auto opened = conn.Call("{\"op\":\"query_open\",\"query\":" +
                            cursor_query +
                            ",\"page_size\":" + std::to_string(kPageSize) +
                            "}");
    if (!opened.ok()) return 0;
    auto envelope = json::ParseJson(*opened);
    if (!envelope.ok() || !GetBool(*envelope, "ok")) return 0;
    const uint64_t cursor =
        static_cast<uint64_t>(GetNumber(*envelope, "cursor"));
    uint64_t drained = 0;
    Stopwatch watch;
    while (true) {
      auto raw = conn.Call("{\"op\":\"query_next\",\"cursor\":" +
                           std::to_string(cursor) + "}");
      if (!raw.ok()) return 0;
      auto page = json::ParseJson(*raw);
      if (!page.ok() || !GetBool(*page, "ok")) return 0;
      auto rows = page->Get("rows");
      if (!rows.ok() || rows->AsArray() == nullptr) return 0;
      drained += rows->AsArray()->size();
      if (GetBool(*page, "done")) break;
    }
    *ms = watch.ElapsedMillis();
    return drained;
  };

  // Sub-millisecond drains are noisy one at a time; report the mean of a
  // batch.
  constexpr int kDrainReps = 25;
  double total_ms = 0;
  for (int rep = 0; rep < kDrainReps; ++rep) {
    double ms = 0;
    phase.rows = drain(&ms);
    if (phase.rows == 0) return phase;
    total_ms += ms;
  }
  phase.json_drain_ms = total_ms / kDrainReps;

  // One-shot latency over the same request mix, cache fully warm (the load
  // phase already cycled the pool), so the wire is what's measured.
  constexpr int kOneShots = 2000;
  for (size_t i = 0; i < 32; ++i) (void)conn.Call(pool[i % pool.size()]);
  Stopwatch watch;
  for (int i = 0; i < kOneShots; ++i) {
    if (!conn.Call(pool[static_cast<size_t>(i) % pool.size()]).ok()) {
      return phase;
    }
  }
  phase.json_oneshot_us = watch.ElapsedMicros() / kOneShots;
  phase.ran = true;
  return phase;  // conn closes, then tcp stops, on scope exit
}

RunResult RunClients(server::QueryServer& server,
                     const std::vector<std::string>& pool, int clients,
                     int requests_per_client) {
  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int client = 0; client < clients; ++client) {
    threads.emplace_back([&server, &pool, client, requests_per_client] {
      server::ServerHandle handle(&server);
      Rng rng(0x5eed + static_cast<uint64_t>(client));
      size_t cursor = rng.NextBelow(pool.size());
      for (int i = 0; i < requests_per_client; ++i) {
        handle.Call(pool[cursor]);
        cursor = (cursor + 1) % pool.size();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  RunResult result;
  result.seconds = watch.ElapsedSeconds();
  result.requests =
      static_cast<uint64_t>(clients) * static_cast<uint64_t>(requests_per_client);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::InstallObservabilityDumps(&argc, argv);
  int clients = EnvInt("SCDWARF_SERVER_CLIENTS", 8);
  int requests_per_client = EnvInt("SCDWARF_SERVER_REQUESTS", 2000);
  std::vector<std::string> datasets =
      std::getenv("SCDWARF_DATASETS") != nullptr
          ? benchutil::SelectedDatasets()
          : std::vector<std::string>{"Day", "Month"};

  std::vector<benchutil::BenchJsonRow> rows;
  std::printf("=== Query server load (in-process handle, %d clients x %d requests) ===\n",
              clients, requests_per_client);
  std::printf("%-8s %10s %10s %10s %10s %10s %9s %9s %12s\n", "Dataset",
              "tuples", "qps", "p50_us", "p90_us", "p99_us", "hitrate",
              "rejected", "update_ms");
  for (const std::string& dataset : datasets) {
    auto cube = benchutil::GetDatasetCube(dataset);
    if (!cube.ok()) {
      std::fprintf(stderr, "%s: %s\n", dataset.c_str(),
                   cube.status().ToString().c_str());
      continue;
    }
    std::vector<std::string> pool = MakeRequestPool(**cube, 512, 0xcafe);
    server::ServerOptions options;
    options.max_queue_depth = 256;
    server::QueryServer server(dwarf::DwarfCube(**cube), options);

    RunResult run = RunClients(server, pool, clients, requests_per_client);
    server::ServerStats stats = server.Stats();
    double qps = run.seconds > 0
                     ? static_cast<double>(run.requests) / run.seconds
                     : 0;

    // Epoch-bump path: merge a small batch and let the cache invalidate.
    // The server publishes via the incremental delta merge; a from-scratch
    // CubeUpdater::Rebuild of the identical batch over the same base cube is
    // the O(history) baseline the merge is supposed to kill.
    std::vector<std::pair<std::vector<std::string>, dwarf::Measure>> batch;
    size_t dims = (*cube)->num_dimensions();
    Rng rng(0xfeed);
    for (int i = 0; i < 16; ++i) {
      std::vector<std::string> keys;
      for (size_t dim = 0; dim < dims; ++dim) {
        keys.push_back(RandomKey(**cube, dim, rng));
      }
      batch.emplace_back(std::move(keys), 1);
    }
    Stopwatch update_watch;
    auto epoch = server.ApplyUpdate(batch);
    double update_ms = update_watch.ElapsedMillis();
    if (!epoch.ok()) {
      std::fprintf(stderr, "update failed: %s\n",
                   epoch.status().ToString().c_str());
    }
    dwarf::UpdateProfile update_profile = server.Stats().last_update;

    double update_full_ms = 0;
    {
      Stopwatch full_watch;
      Result<dwarf::DwarfCube> rebuilt = [&]() -> Result<dwarf::DwarfCube> {
        dwarf::CubeUpdater updater{dwarf::DwarfCube(**cube)};
        for (const auto& [keys, measure] : batch) {
          SCD_RETURN_IF_ERROR(updater.AddTuple(keys, measure));
        }
        return std::move(updater).Rebuild();
      }();
      update_full_ms = full_watch.ElapsedMillis();
      if (!rebuilt.ok()) {
        std::fprintf(stderr, "full rebuild failed: %s\n",
                     rebuilt.status().ToString().c_str());
      }
    }
    double update_speedup = update_ms > 0 ? update_full_ms / update_ms : 0;

    // Sustained publish rate: back-to-back 4-tuple incremental publishes.
    constexpr int kPublishBursts = 20;
    Stopwatch publish_watch;
    for (int burst = 0; burst < kPublishBursts; ++burst) {
      std::vector<std::pair<std::vector<std::string>, dwarf::Measure>> small;
      for (int i = 0; i < 4; ++i) {
        std::vector<std::string> keys;
        for (size_t dim = 0; dim < dims; ++dim) {
          keys.push_back(RandomKey(**cube, dim, rng));
        }
        small.emplace_back(std::move(keys), 1);
      }
      if (!server.ApplyUpdate(small).ok()) break;
    }
    double publish_seconds = publish_watch.ElapsedSeconds();
    double publish_hz =
        publish_seconds > 0 ? kPublishBursts / publish_seconds : 0;

    // Cursor sessions: drain a leading-dimension rollup at the acceptance
    // page sizes and check each against the one-shot rows.
    json::JsonObject rollup;
    rollup.emplace_back("op", json::JsonValue("rollup"));
    json::JsonArray group;
    size_t wide_dim = WidestDimension(**cube);
    group.push_back(
        json::JsonValue((*cube)->schema().dimensions()[wide_dim].name));
    if (dims > 1) {
      group.push_back(json::JsonValue(
          (*cube)->schema().dimensions()[wide_dim == 0 ? 1 : 0].name));
    }
    rollup.emplace_back("dims", json::JsonValue(std::move(group)));
    std::string cursor_query =
        json::SerializeJson(json::JsonValue(std::move(rollup)));
    bool pagination_matches = true;
    CursorRun cursor_run;
    for (size_t page_size : {size_t{1}, size_t{7}, size_t{64}}) {
      CursorRun run = RunCursorDrain(server, cursor_query, page_size);
      pagination_matches = pagination_matches && run.matches_oneshot;
      if (page_size == 64) cursor_run = run;
    }

    RevalidationProbe probe = ProbeRevalidation(server, **cube, rng);
    RangeProbe range_probe = ProbeRangeQueries(server, **cube, rng);
    WirePhase wire = RunWirePhase(server, cursor_query, pool);
    stats = server.Stats();  // refresh: the probes moved the cache counters

    std::printf("%-8s %10llu %10.0f %10.1f %10.1f %10.1f %9.3f %9llu %12.1f\n",
                dataset.c_str(),
                static_cast<unsigned long long>((*cube)->stats().tuple_count),
                qps, stats.latency_p50_us, stats.latency_p90_us,
                stats.latency_p99_us, stats.cache_hit_rate,
                static_cast<unsigned long long>(stats.rejected_total),
                update_ms);
    std::printf(
        "  cursor(page=64): %llu rows in %llu pages, %.1f ms, "
        "matches_oneshot=%s | reval: delta=%llu hit=%s invalidate=%s\n",
        static_cast<unsigned long long>(cursor_run.rows),
        static_cast<unsigned long long>(cursor_run.pages),
        cursor_run.seconds * 1e3, pagination_matches ? "yes" : "NO",
        static_cast<unsigned long long>(probe.revalidated_delta),
        probe.revalidated_hit ? "yes" : "NO",
        probe.invalidated_recompute ? "yes" : "NO");
    std::printf(
        "  publish: incremental %.2f ms (delta %.2f + merge %.2f, "
        "%llu nodes reused) vs full rebuild %.2f ms -> %.1fx, "
        "sustained %.0f publishes/s\n",
        update_ms, update_profile.delta_build_ms, update_profile.merge_ms,
        static_cast<unsigned long long>(update_profile.nodes_reused),
        update_full_ms, update_speedup, publish_hz);
    if (range_probe.ran) {
      std::printf("  range(%s): match=%s reval_hit=%s\n",
                  range_probe.dim_name.c_str(),
                  range_probe.answers_match ? "yes" : "NO",
                  range_probe.reval_hit ? "yes" : "NO");
    } else {
      std::printf("  range: skipped (no ordered dimension with >= 3 values)\n");
    }
    if (wire.ran) {
      std::printf("  wire(tcp): drain %.2f ms (%llu rows), oneshot %.1f us\n",
                  wire.json_drain_ms,
                  static_cast<unsigned long long>(wire.rows),
                  wire.json_oneshot_us);
    } else {
      std::printf("  wire(tcp): skipped (drain or one-shot failed)\n");
    }

    benchutil::BenchJsonRow row;
    row.emplace_back("dataset", json::JsonValue(dataset));
    row.emplace_back("tuples", json::JsonValue(static_cast<int64_t>(
                                   (*cube)->stats().tuple_count)));
    row.emplace_back("clients", json::JsonValue(clients));
    row.emplace_back("requests", json::JsonValue(static_cast<int64_t>(run.requests)));
    row.emplace_back("seconds", json::JsonValue(run.seconds));
    row.emplace_back("qps", json::JsonValue(qps));
    row.emplace_back("p50_us", json::JsonValue(stats.latency_p50_us));
    row.emplace_back("p90_us", json::JsonValue(stats.latency_p90_us));
    row.emplace_back("p99_us", json::JsonValue(stats.latency_p99_us));
    row.emplace_back("cache_hit_rate", json::JsonValue(stats.cache_hit_rate));
    row.emplace_back("cache_hits", json::JsonValue(static_cast<int64_t>(stats.cache.hits)));
    row.emplace_back("cache_misses", json::JsonValue(static_cast<int64_t>(stats.cache.misses)));
    row.emplace_back("rejected", json::JsonValue(static_cast<int64_t>(stats.rejected_total)));
    row.emplace_back("workers", json::JsonValue(server.num_workers()));
    row.emplace_back("update_ms", json::JsonValue(update_ms));
    row.emplace_back("update_full_ms", json::JsonValue(update_full_ms));
    row.emplace_back("update_speedup", json::JsonValue(update_speedup));
    row.emplace_back("delta_build_ms",
                     json::JsonValue(update_profile.delta_build_ms));
    row.emplace_back("merge_ms", json::JsonValue(update_profile.merge_ms));
    row.emplace_back("nodes_reused", json::JsonValue(static_cast<int64_t>(
                                         update_profile.nodes_reused)));
    row.emplace_back("publish_hz", json::JsonValue(publish_hz));
    row.emplace_back("epoch_after_update",
                     json::JsonValue(static_cast<int64_t>(server.epoch())));
    row.emplace_back("cursor_pages",
                     json::JsonValue(static_cast<int64_t>(cursor_run.pages)));
    row.emplace_back("cursor_rows",
                     json::JsonValue(static_cast<int64_t>(cursor_run.rows)));
    row.emplace_back("cursor_seconds", json::JsonValue(cursor_run.seconds));
    row.emplace_back("pagination_matches_oneshot",
                     json::JsonValue(pagination_matches));
    row.emplace_back("cache_revalidated", json::JsonValue(static_cast<int64_t>(
                                              stats.cache.revalidated)));
    row.emplace_back("revalidated_delta", json::JsonValue(static_cast<int64_t>(
                                              probe.revalidated_delta)));
    row.emplace_back("revalidated_hit", json::JsonValue(probe.revalidated_hit));
    row.emplace_back("invalidated_recompute",
                     json::JsonValue(probe.invalidated_recompute));
    row.emplace_back("range_dim", json::JsonValue(range_probe.dim_name));
    row.emplace_back("range_answers_match",
                     json::JsonValue(range_probe.answers_match));
    row.emplace_back("range_reval_hit",
                     json::JsonValue(range_probe.reval_hit));
    row.emplace_back("wire_json_drain_ms", json::JsonValue(wire.json_drain_ms));
    row.emplace_back("wire_drain_rows",
                     json::JsonValue(static_cast<int64_t>(wire.rows)));
    row.emplace_back("wire_json_oneshot_us",
                     json::JsonValue(wire.json_oneshot_us));
    rows.push_back(std::move(row));

    benchutil::EvictDatasetCube(dataset);
  }
  if (Status status =
          benchutil::WriteBenchJson("BENCH_server.json", "query_server", rows);
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
