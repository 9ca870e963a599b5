// Tests of the concurrent cube query service (src/server): wire parsing and
// error mapping, epoch-snapshot consistency under a live updater, result-cache
// hits/invalidation, deterministic overload rejection, worker-pool sizing and
// the TCP front-end. The concurrency tests are the reason this binary carries
// the `server` ctest label: run them from a -DSCDWARF_TSAN=ON build to check
// the locking.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "dwarf/builder.h"
#include "dwarf/query.h"
#include "dwarf/update.h"
#include "json/json_parser.h"
#include "server/query_server.h"
#include "server/tcp_server.h"
#include "server/wire.h"

namespace scdwarf::server {
namespace {

using dwarf::DwarfCube;
using dwarf::Measure;

dwarf::CubeSchema BikesSchema() {
  return dwarf::CubeSchema(
      "bikes",
      {dwarf::DimensionSpec("Day"), dwarf::DimensionSpec("Station"),
       dwarf::DimensionSpec("Area")},
      "bikes", dwarf::AggFn::kSum);
}

using Tuple = std::pair<std::vector<std::string>, Measure>;

const std::vector<Tuple>& SeedTuples() {
  static const auto* tuples = new std::vector<Tuple>{
      {{"Mon", "Fenian St", "D2"}, 3},  {{"Mon", "Pearse St", "D2"}, 5},
      {{"Tue", "Fenian St", "D2"}, 4},  {{"Tue", "Custom House", "D1"}, 7},
      {{"Wed", "Pearse St", "D2"}, 2},  {{"Wed", "Custom House", "D1"}, 1},
      {{"Thu", "Fenian St", "D2"}, 6},  {{"Fri", "Heuston", "D8"}, 9},
  };
  return *tuples;
}

DwarfCube BuildSeedCube() {
  dwarf::DwarfBuilder builder(BikesSchema());
  for (const auto& [keys, measure] : SeedTuples()) {
    EXPECT_TRUE(builder.AddTuple(keys, measure).ok());
  }
  return std::move(builder).Build().ValueOrDie();
}

// Parses a response payload and returns (ok, epoch, cached) plus the value.
struct ParsedResponse {
  bool ok = false;
  uint64_t epoch = 0;
  bool cached = false;
  json::JsonValue value;
};

ParsedResponse ParseResponse(const std::string& payload) {
  ParsedResponse parsed;
  auto value = json::ParseJson(payload);
  EXPECT_TRUE(value.ok()) << payload;
  if (!value.ok()) return parsed;
  parsed.value = *value;
  parsed.ok = value->Get("ok").ValueOrDie().AsBool().ValueOrDie();
  parsed.epoch = static_cast<uint64_t>(
      value->Get("epoch").ValueOrDie().AsNumber().ValueOrDie());
  parsed.cached = value->Get("cached").ValueOrDie().AsBool().ValueOrDie();
  return parsed;
}

std::string ErrorCode(const ParsedResponse& parsed) {
  auto code = parsed.value.Get("code");
  return code.ok() ? code->AsString().ValueOrDie() : std::string();
}

TEST(WireTest, RejectsMalformedRequests) {
  QueryServer server{BuildSeedCube()};
  ServerHandle handle(&server);

  struct Case {
    const char* request;
    const char* want_code;
  };
  const Case cases[] = {
      {"{not json", "parse_error"},
      {"[1,2,3]", "invalid_argument"},
      {R"({"op":"transmogrify"})", "invalid_argument"},
      {R"({"op":"point"})", "invalid_argument"},
      {R"({"op":"point","keys":["Mon"]})", "invalid_argument"},  // arity 1 != 3
      {R"({"op":"slice","dim":"NoSuchDim","key":"x"})", "not_found"},
      {R"({"op":"rollup","dims":["Day","NoSuchDim"]})", "not_found"},
      {R"({"op":"aggregate","predicates":[{"kind":"all"}]})",
       "invalid_argument"},  // predicate arity 1 != 3
      // JSON is the only payload format: a format offer is an unknown op,
      // and bytes that are not JSON are a parse error.
      {R"({"op":"hello","formats":["json"]})", "invalid_argument"},
      {"\xB1\x01\x03\x01", "parse_error"},
  };
  for (const Case& c : cases) {
    ParsedResponse parsed = ParseResponse(handle.Call(c.request));
    EXPECT_FALSE(parsed.ok) << c.request;
    EXPECT_EQ(ErrorCode(parsed), c.want_code) << c.request;
  }
}

TEST(WireTest, ReadEnvelopeRejectsMalformedHeaders) {
  const std::vector<dwarf::SliceRow> rows = {{{"Mon", "D2"}, 3},
                                             {{"Tue", "D1"}, 7}};
  const std::string valid[] = {
      MakeResponse(false, 7, false,
                   MakeErrorPayload(Status::NotFound("no such cursor"))),
      MakeResponse(true, 7, true, R"({"measure":42})"),
      MakeResponse(true, 7, false, R"({"cursor":12,"epoch":7,"page_size":4})"),
      MakeResponse(true, 7, false, MakeCursorPagePayload(12, rows, false)),
      MakeResponse(true, 7, false, MakeCursorPagePayload(12, {}, true)),
      MakeResponse(true, 7, false, "{}"),
  };
  for (const std::string& response : valid) {
    Result<Envelope> env = ReadEnvelope(response);
    ASSERT_TRUE(env.ok()) << response << ": " << env.status();
    EXPECT_EQ(env->epoch, 7u) << response;
    // A header truncated at any byte is an error, not a shorter header.
    for (size_t size = 0; size < response.size(); ++size) {
      EXPECT_FALSE(ReadEnvelope(response.substr(0, size)).ok())
          << response.substr(0, size);
    }
  }

  const char* malformed[] = {
      // Whitespace anywhere in the fixed positions.
      R"({ "ok":true,"epoch":7,"cached":false})",
      R"({"ok" :true,"epoch":7,"cached":false})",
      R"({"ok": true,"epoch":7,"cached":false})",
      R"({"ok":true, "epoch":7,"cached":false})",
      R"({"ok":true,"epoch": 7,"cached":false})",
      R"({"ok":true,"epoch":7 ,"cached":false})",
      R"({"ok":true,"epoch":7,"cached":false })",
      R"({"ok":false,"epoch":7,"cached":false, "code":"not_found"})",
      R"({"ok":false,"epoch":7,"cached":false,"code": "not_found"})",
      R"({"ok":false,"epoch":7,"cached":false,"code":"not_found" })",
      R"({"ok":true,"epoch":7,"cached":false,"cursor": 12,"epoch":7})",
      R"({"ok":true,"epoch":7,"cached":false,"cursor":12, "rows":[],"done":true})",
      R"({"ok":true,"epoch":7,"cached":false,"cursor":12,"rows":[], "done":true})",
      R"({"ok":true,"epoch":7,"cached":false,"cursor":12,"rows":[],"done":true })",
      // Epochs and cursors that are not exact uint64_t values: 21 digits,
      // 2^64, a sign, a leading zero, a fraction, an exponent.
      R"({"ok":true,"epoch":100000000000000000000,"cached":false})",
      R"({"ok":true,"epoch":18446744073709551616,"cached":false})",
      R"({"ok":true,"epoch":-7,"cached":false})",
      R"({"ok":true,"epoch":07,"cached":false})",
      R"({"ok":true,"epoch":7.0,"cached":false})",
      R"({"ok":true,"epoch":7e0,"cached":false})",
      R"({"ok":true,"epoch":7,"cached":false,"cursor":18446744073709551616,"epoch":7})",
      R"({"ok":true,"epoch":7,"cached":false,"cursor":1.5,"epoch":7})",
      // Booleans that are not true or false.
      R"({"ok":yes,"epoch":7,"cached":false})",
      R"({"ok":True,"epoch":7,"cached":false})",
      R"({"ok":true,"epoch":7,"cached":1})",
      // Codes are slugs: an escape, a capital or an empty code is an error.
      R"({"ok":false,"epoch":7,"cached":false,"code":"not\u005ffound","error":"x"})",
      R"({"ok":false,"epoch":7,"cached":false,"code":"not\"found","error":"x"})",
      R"({"ok":false,"epoch":7,"cached":false,"code":"Not_Found","error":"x"})",
      R"({"ok":false,"epoch":7,"cached":false,"code":"","error":"x"})",
      R"({"ok":false,"epoch":7,"cached":false,"code":7,"error":"x"})",
      // Fields out of order or missing, and pages without their trailer.
      R"({"epoch":7,"ok":true,"cached":false})",
      R"({"ok":true,"cached":false,"epoch":7})",
      R"({"ok":true,"epoch":7})",
      R"({"ok":true,"epoch":7,"cached":false,"cursor":12,"rows":null,"done":true})",
      R"({"ok":true,"epoch":7,"cached":false,"cursor":12,"rows":[],"done":1})",
      R"({"ok":true,"epoch":7,"cached":false,"cursor":12,"rows":[]})",
      R"({"ok":true,"epoch":7,"cached":false}{"ok":true})",
      R"({"ok":true,"epoch":7,"cached":false}})",
      "",
      "{",
  };
  for (const char* response : malformed) {
    EXPECT_TRUE(ReadEnvelope(response).status().IsParseError()) << response;
  }
}

TEST(WireTest, HandBuiltPayloadsMatchTheJsonModel) {
  // Error payloads, with a message that needs escapes.
  for (const char* message : {"plain", "quote \" slash \\ newline \n \x01"}) {
    json::JsonObject model;
    model.emplace_back("code", json::JsonValue("epoch_gone"));
    model.emplace_back("error", json::JsonValue(message));
    EXPECT_EQ(MakeErrorPayload("epoch_gone", message),
              json::SerializeJson(json::JsonValue(std::move(model))));
  }
  // query_open answers, including values the model renders with %.17g.
  const uint64_t values[] = {0, 7, 999999999999999, 1000000000000000,
                             (uint64_t{1} << 53) + 1};
  for (uint64_t value : values) {
    json::JsonObject model;
    model.emplace_back("cursor", json::JsonValue(static_cast<int64_t>(value)));
    model.emplace_back("epoch", json::JsonValue(static_cast<int64_t>(value)));
    model.emplace_back("page_size", json::JsonValue(int64_t{64}));
    EXPECT_EQ(MakeCursorOpenPayload(value, value, 64),
              json::SerializeJson(json::JsonValue(std::move(model))))
        << value;
  }
}

TEST(WireTest, UnknownKeysReportNotFound) {
  QueryServer server{BuildSeedCube()};
  ServerHandle handle(&server);
  ParsedResponse parsed = ParseResponse(
      handle.Call(R"({"op":"point","keys":["Mon","No Such Station",null]})"));
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(ErrorCode(parsed), "not_found");
}

TEST(WireTest, PointQueryMatchesDirectQuery) {
  DwarfCube cube = BuildSeedCube();
  QueryServer server{DwarfCube(cube)};
  ServerHandle handle(&server);

  ParsedResponse parsed = ParseResponse(
      handle.Call(R"({"op":"point","keys":["Mon",null,"D2"]})"));
  ASSERT_TRUE(parsed.ok);
  auto direct = dwarf::PointQueryByName(cube, {"Mon", std::nullopt, "D2"});
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(parsed.value.Get("measure").ValueOrDie().AsNumber().ValueOrDie(),
            static_cast<double>(*direct));
  EXPECT_EQ(parsed.epoch, 0u);
}

// Focused (non-differential) check of the ranged wire surface: the column
// order of out-of-order roll-up dims, a "where" window, and a value-form
// aggregate, all against hand-computed answers. "Fri" < "Mon" < "Thu" <
// "Tue" < "Wed" lexicographically, so ["Mon","Thu"] covers {Mon, Thu} only.
TEST(WireTest, OrderedRollupAndValueRangesMatchHandComputedRows) {
  dwarf::CubeSchema schema(
      "bikes",
      {dwarf::DimensionSpec("Day", "", /*ordered_in=*/true),
       dwarf::DimensionSpec("Station"), dwarf::DimensionSpec("Area")},
      "bikes", dwarf::AggFn::kSum);
  dwarf::DwarfBuilder builder(std::move(schema));
  for (const auto& [keys, measure] : SeedTuples()) {
    ASSERT_TRUE(builder.AddTuple(keys, measure).ok());
  }
  QueryServer server{std::move(builder).Build().ValueOrDie()};
  ServerHandle handle(&server);

  // dims out of schema order + a Day window: keys[0] must be the Area.
  ParsedResponse rollup = ParseResponse(handle.Call(
      R"({"op":"rollup","dims":["Area","Day"],)"
      R"("where":[{"dim":"Day","lo":"Mon","hi":"Thu"}]})"));
  ASSERT_TRUE(rollup.ok);
  EXPECT_EQ(json::SerializeJson(rollup.value.Get("rows").ValueOrDie()),
            R"([{"keys":["D2","Mon"],"measure":8},)"
            R"({"keys":["D2","Thu"],"measure":6}])");

  // Value-form aggregate over the same window: Mon (3+5) + Thu (6).
  ParsedResponse aggregate = ParseResponse(handle.Call(
      R"({"op":"aggregate","predicates":[)"
      R"({"kind":"range","lo":"Mon","hi":"Thu"},)"
      R"({"kind":"all"},{"kind":"all"}]})"));
  ASSERT_TRUE(aggregate.ok);
  EXPECT_EQ(
      aggregate.value.Get("measure").ValueOrDie().AsNumber().ValueOrDie(),
      14.0);

  // A value range on an unordered dim is an invalid_argument, and a window
  // covering no stored value is not_found.
  ParsedResponse unordered = ParseResponse(handle.Call(
      R"({"op":"aggregate","predicates":[{"kind":"all"},)"
      R"({"kind":"range","lo":"A","hi":"Z"},{"kind":"all"}]})"));
  EXPECT_FALSE(unordered.ok);
  EXPECT_EQ(ErrorCode(unordered), "invalid_argument");
  ParsedResponse gap = ParseResponse(handle.Call(
      R"({"op":"aggregate","predicates":[)"
      R"({"kind":"range","lo":"Sat","hi":"Sun"},)"
      R"({"kind":"all"},{"kind":"all"}]})"));
  EXPECT_FALSE(gap.ok);
  EXPECT_EQ(ErrorCode(gap), "not_found");
}

TEST(WireTest, NormalizedCacheKeyIgnoresSpellingDifferences) {
  auto a = ParseRequest(R"({"op":"aggregate","predicates":[
      {"kind":"all"},{"kind":"set","keys":["b","a","b"]},
      {"kind":"range","lo":1,"hi":4}]})");
  auto b = ParseRequest(R"({ "predicates":[{"kind":"all"},
      {"keys":["a","b"],"kind":"set"},{"kind":"range","hi":4,"lo":1}],
      "op":"aggregate" })");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(NormalizedCacheKey(*a), NormalizedCacheKey(*b));
}

// Mixed read workload used by the concurrency tests: every entry is a
// (request payload) whose expected result is recomputed per epoch.
std::vector<std::string> MixedRequests() {
  return {
      R"({"op":"point","keys":["Mon",null,"D2"]})",
      R"({"op":"point","keys":[null,null,null]})",
      R"({"op":"point","keys":["Tue","Fenian St","D2"]})",
      R"({"op":"aggregate","predicates":[{"kind":"set","keys":["Mon","Tue"]},{"kind":"all"},{"kind":"point","key":"D2"}]})",
      R"({"op":"aggregate","predicates":[{"kind":"range","lo":0,"hi":2},{"kind":"all"},{"kind":"all"}]})",
      R"({"op":"slice","dim":"Area","key":"D2"})",
      R"({"op":"slice","dim":"Day","key":"Fri"})",
      R"({"op":"rollup","dims":["Area"]})",
      R"({"op":"rollup","dims":["Day","Area"]})",
  };
}

// The tentpole concurrency contract: >= 8 clients issue mixed queries while
// an updater thread repeatedly merges new tuples. Every response must
// byte-match a direct execution against the cube snapshot of the epoch the
// response reports — i.e. each request saw one consistent cube, never a
// half-published one.
TEST(QueryServerConcurrencyTest, EpochSnapshotsStayConsistentUnderUpdates) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 200;
  constexpr int kUpdates = 6;

  DwarfCube seed = BuildSeedCube();
  ServerOptions options;
  options.cache_capacity = 256;
  QueryServer server(DwarfCube(seed), options);

  // Epoch -> cube snapshot, recorded by the (single) updater thread.
  std::mutex epochs_mu;
  std::map<uint64_t, std::shared_ptr<const DwarfCube>> cubes_by_epoch;
  cubes_by_epoch[0] = std::make_shared<const DwarfCube>(std::move(seed));

  std::atomic<bool> updater_done{false};
  std::thread updater([&] {
    for (int i = 0; i < kUpdates; ++i) {
      std::vector<Tuple> batch = {
          {{"Sat", "Fenian St", "D2"}, 10 + i},
          {{"Mon", "Pearse St", "D2"}, 1},
          {{"Sun", "Heuston", "D8"}, 2 * i + 1},
      };
      auto epoch = server.ApplyUpdate(batch);
      ASSERT_TRUE(epoch.ok()) << epoch.status();
      EpochCubeStore::Snapshot snapshot = server.store().snapshot();
      ASSERT_EQ(snapshot.epoch, *epoch);  // single updater: no later publish
      std::lock_guard<std::mutex> lock(epochs_mu);
      cubes_by_epoch[snapshot.epoch] = snapshot.cube;
    }
    updater_done.store(true);
  });

  struct Observation {
    std::string request;
    std::string response;
  };
  std::vector<std::vector<Observation>> observations(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  const std::vector<std::string> pool = MixedRequests();
  for (int client = 0; client < kClients; ++client) {
    clients.emplace_back([&, client] {
      ServerHandle handle(&server);
      observations[client].reserve(kRequestsPerClient);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const std::string& request = pool[(client + i) % pool.size()];
        observations[client].push_back({request, handle.Call(request)});
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  updater.join();
  EXPECT_TRUE(updater_done.load());
  EXPECT_EQ(server.epoch(), static_cast<uint64_t>(kUpdates));

  // Post-hoc verification against the recorded epoch snapshots.
  uint64_t verified = 0;
  for (const std::vector<Observation>& per_client : observations) {
    for (const Observation& observation : per_client) {
      ParsedResponse parsed = ParseResponse(observation.response);
      auto it = cubes_by_epoch.find(parsed.epoch);
      ASSERT_NE(it, cubes_by_epoch.end())
          << "response reported unknown epoch " << parsed.epoch;
      auto request = ParseRequest(observation.request);
      ASSERT_TRUE(request.ok());
      ExecResult expected = ExecuteRequest(*it->second, *request);
      EXPECT_EQ(observation.response,
                MakeResponse(expected.ok, parsed.epoch, parsed.cached,
                             expected.payload_json))
          << "request " << observation.request << " diverged at epoch "
          << parsed.epoch;
      ++verified;
    }
  }
  EXPECT_EQ(verified, static_cast<uint64_t>(kClients) * kRequestsPerClient);

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.queries_total,
            static_cast<uint64_t>(kClients) * kRequestsPerClient);
  EXPECT_EQ(stats.rejected_total, 0u);
  EXPECT_EQ(stats.updates_applied, static_cast<uint64_t>(kUpdates));
  EXPECT_GT(stats.cache.hits + stats.cache.misses, 0u);
}

TEST(QueryServerTest, CacheHitsThenInvalidatesOnUpdate) {
  ServerOptions options;
  options.num_workers = 1;
  QueryServer server(BuildSeedCube(), options);
  ServerHandle handle(&server);
  const std::string request = R"({"op":"point","keys":["Mon",null,"D2"]})";

  ParsedResponse first = ParseResponse(handle.Call(request));
  EXPECT_FALSE(first.cached);
  ParsedResponse second = ParseResponse(handle.Call(request));
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(server.cache().stats().hits, 1u);
  EXPECT_EQ(second.epoch, 0u);

  ASSERT_TRUE(server.ApplyUpdate({{{"Mon", "Fenian St", "D2"}, 100}}).ok());
  EXPECT_GT(server.cache().stats().invalidations, 0u);
  EXPECT_EQ(server.cache().stats().entries, 0u);

  ParsedResponse third = ParseResponse(handle.Call(request));
  EXPECT_FALSE(third.cached);  // new epoch, fresh execution
  EXPECT_EQ(third.epoch, 1u);
  EXPECT_EQ(third.value.Get("measure").ValueOrDie().AsNumber().ValueOrDie(),
            first.value.Get("measure").ValueOrDie().AsNumber().ValueOrDie() +
                100);
}

TEST(QueryServerTest, CachedResponseBytesMatchUncached) {
  QueryServer server{BuildSeedCube()};
  ServerHandle handle(&server);
  const std::string request = R"({"op":"rollup","dims":["Area"]})";
  std::string first = handle.Call(request);
  std::string second = handle.Call(request);
  // Only the "cached" flag may differ between the two responses.
  EXPECT_FALSE(ParseResponse(first).cached);
  EXPECT_TRUE(ParseResponse(second).cached);
  size_t flag = first.find("\"cached\":false");
  ASSERT_NE(flag, std::string::npos);
  std::string expected = first;
  expected.replace(flag, 14, "\"cached\":true");
  EXPECT_EQ(second, expected);
}

// Deterministic overload: one inline worker parks inside the pre-execute
// hook, so a second concurrent request exceeds max_queue_depth=1 and must be
// rejected immediately with code "overloaded".
TEST(QueryServerTest, RejectsWhenQueueDepthExceeded) {
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool release = false;

  ServerOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  options.pre_execute_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  QueryServer server(BuildSeedCube(), options);

  std::thread blocker([&] {
    ServerHandle handle(&server);
    ParsedResponse parsed = ParseResponse(
        handle.Call(R"({"op":"point","keys":["Mon",null,"D2"]})"));
    EXPECT_TRUE(parsed.ok);  // the parked request still completes
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked; });
  }

  ServerHandle handle(&server);
  ParsedResponse rejected = ParseResponse(
      handle.Call(R"({"op":"point","keys":["Tue",null,null]})"));
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(ErrorCode(rejected), "overloaded");
  EXPECT_EQ(server.Stats().rejected_total, 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  blocker.join();
  EXPECT_EQ(server.Stats().queries_total, 1u);  // rejection didn't execute
}

TEST(QueryServerTest, WorkerCountHonorsThreadPolicy) {
  // Explicit worker count wins.
  ServerOptions explicit_options;
  explicit_options.num_workers = 2;
  QueryServer explicit_server(BuildSeedCube(), explicit_options);
  EXPECT_EQ(explicit_server.num_workers(), 2);

  // num_workers=0 resolves through SCDWARF_THREADS, same as the pipeline.
  ASSERT_EQ(setenv("SCDWARF_THREADS", "3", /*overwrite=*/1), 0);
  QueryServer env_server{BuildSeedCube()};
  EXPECT_EQ(env_server.num_workers(), 3);
  ASSERT_EQ(unsetenv("SCDWARF_THREADS"), 0);
}

TEST(QueryServerTest, StatsEndpointReportsCounters) {
  ServerOptions options;
  options.num_workers = 1;
  QueryServer server(BuildSeedCube(), options);
  ServerHandle handle(&server);
  handle.Call(R"({"op":"point","keys":["Mon",null,"D2"]})");
  handle.Call(R"({"op":"point","keys":["Mon",null,"D2"]})");
  ASSERT_TRUE(server.ApplyUpdate({{{"Sat", "Heuston", "D8"}, 4}}).ok());

  ParsedResponse parsed = ParseResponse(handle.Call(R"({"op":"stats"})"));
  ASSERT_TRUE(parsed.ok);
  const json::JsonValue& value = parsed.value;
  EXPECT_EQ(value.GetPath("stats.epoch").ValueOrDie().AsNumber().ValueOrDie(),
            1.0);
  EXPECT_EQ(value.GetPath("stats.queries_total")
                .ValueOrDie()
                .AsNumber()
                .ValueOrDie(),
            2.0);
  EXPECT_EQ(value.GetPath("stats.cache.hits")
                .ValueOrDie()
                .AsNumber()
                .ValueOrDie(),
            1.0);
  EXPECT_GT(value.GetPath("stats.latency.count")
                .ValueOrDie()
                .AsNumber()
                .ValueOrDie(),
            0.0);
  EXPECT_GT(value.GetPath("stats.last_update.base_tuples")
                .ValueOrDie()
                .AsNumber()
                .ValueOrDie(),
            0.0);
  EXPECT_EQ(value.GetPath("stats.num_workers").ValueOrDie()
                .AsNumber().ValueOrDie(),
            1.0);
}

// --- Cursor sessions -----------------------------------------------------

// Serialized "rows" array of a response payload ("[]" when absent).
std::string RowsJson(const ParsedResponse& parsed) {
  auto rows = parsed.value.Get("rows");
  if (!rows.ok()) return "[]";
  return json::SerializeJson(*rows);
}

uint64_t CursorId(const ParsedResponse& parsed) {
  return static_cast<uint64_t>(
      parsed.value.Get("cursor").ValueOrDie().AsNumber().ValueOrDie());
}

// Drains a cursor to exhaustion, concatenating the row arrays of its pages.
struct DrainedCursor {
  json::JsonArray rows;
  size_t pages = 0;
  std::vector<size_t> page_sizes;
  std::vector<uint64_t> page_epochs;
};

DrainedCursor DrainCursor(ServerHandle& handle, uint64_t cursor) {
  DrainedCursor drained;
  for (;;) {
    ParsedResponse page = ParseResponse(handle.QueryNext(cursor));
    EXPECT_TRUE(page.ok) << json::SerializeJson(page.value);
    if (!page.ok) break;
    json::JsonValue rows_value = page.value.Get("rows").ValueOrDie();
    const json::JsonArray* rows = rows_value.AsArray();
    EXPECT_NE(rows, nullptr);
    if (rows == nullptr) break;
    drained.rows.insert(drained.rows.end(), rows->begin(), rows->end());
    drained.page_sizes.push_back(rows->size());
    drained.page_epochs.push_back(page.epoch);
    ++drained.pages;
    if (page.value.Get("done").ValueOrDie().AsBool().ValueOrDie()) break;
  }
  return drained;
}

// Acceptance gate: for page_size 1, 7 and 64 the concatenated pages of a
// cursor session must be byte-identical to the one-shot "rows" array.
TEST(CursorSessionTest, PaginationIsByteIdenticalToOneShot) {
  const std::string queries[] = {
      R"({"op":"rollup","dims":["Day","Station"]})",
      R"({"op":"rollup","dims":["Station"]})",
      R"({"op":"slice","dim":"Area","key":"D2"})",
  };
  for (const std::string& query : queries) {
    QueryServer server{BuildSeedCube()};
    ServerHandle handle(&server);
    ParsedResponse one_shot = ParseResponse(handle.Call(query));
    ASSERT_TRUE(one_shot.ok) << query;
    const std::string want_rows = RowsJson(one_shot);

    for (size_t page_size : {size_t{1}, size_t{7}, size_t{64}}) {
      ParsedResponse opened = ParseResponse(handle.QueryOpen(query, page_size));
      ASSERT_TRUE(opened.ok) << query;
      EXPECT_EQ(opened.value.Get("page_size").ValueOrDie()
                    .AsNumber().ValueOrDie(),
                static_cast<double>(page_size));
      DrainedCursor drained = DrainCursor(handle, CursorId(opened));
      EXPECT_EQ(json::SerializeJson(json::JsonValue(drained.rows)), want_rows)
          << query << " page_size=" << page_size;
      // Every page but the last must be exactly page_size rows.
      for (size_t i = 0; i + 1 < drained.page_sizes.size(); ++i) {
        EXPECT_EQ(drained.page_sizes[i], page_size);
      }
      if (!drained.page_sizes.empty()) {
        EXPECT_LE(drained.page_sizes.back(), page_size);
      }
    }
    EXPECT_EQ(server.open_sessions(), 0u);  // drained cursors are reclaimed
  }
}

// A publish between pages must not change what the open cursor sees: the
// session serves its pinned snapshot (and reports that pinned epoch) even
// though one-shot queries already see the new epoch.
TEST(CursorSessionTest, MidPaginationPublishKeepsSnapshotPinned) {
  const std::string query = R"({"op":"rollup","dims":["Day","Station"]})";
  ServerOptions options;
  options.num_workers = 1;
  QueryServer server(BuildSeedCube(), options);
  ServerHandle handle(&server);
  const std::string rows_before = RowsJson(ParseResponse(handle.Call(query)));

  ParsedResponse opened = ParseResponse(handle.QueryOpen(query, 1));
  ASSERT_TRUE(opened.ok);
  EXPECT_EQ(opened.epoch, 0u);
  uint64_t cursor = CursorId(opened);

  // Two pages at the pinned epoch, then a publish that both changes an
  // existing row and adds a brand-new one.
  json::JsonArray rows;
  for (int i = 0; i < 2; ++i) {
    ParsedResponse page = ParseResponse(handle.QueryNext(cursor));
    ASSERT_TRUE(page.ok);
    EXPECT_EQ(page.epoch, 0u);
    const json::JsonArray* got = page.value.Get("rows").ValueOrDie().AsArray();
    ASSERT_NE(got, nullptr);
    rows.insert(rows.end(), got->begin(), got->end());
  }
  ASSERT_TRUE(server.ApplyUpdate({{{"Mon", "Fenian St", "D2"}, 100},
                                  {{"Sat", "Heuston", "D8"}, 4}})
                  .ok());
  ParsedResponse after = ParseResponse(handle.Call(query));
  EXPECT_EQ(after.epoch, 1u);
  EXPECT_NE(RowsJson(after), rows_before);  // the one-shot view moved on

  for (;;) {
    ParsedResponse page = ParseResponse(handle.QueryNext(cursor));
    ASSERT_TRUE(page.ok);
    EXPECT_EQ(page.epoch, 0u) << "cursor must keep its pinned epoch";
    const json::JsonArray* got = page.value.Get("rows").ValueOrDie().AsArray();
    ASSERT_NE(got, nullptr);
    rows.insert(rows.end(), got->begin(), got->end());
    if (page.value.Get("done").ValueOrDie().AsBool().ValueOrDie()) break;
  }
  EXPECT_EQ(json::SerializeJson(json::JsonValue(rows)), rows_before);
}

TEST(CursorSessionTest, SessionCapCloseAndUnknownCursor) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_sessions = 2;
  QueryServer server(BuildSeedCube(), options);
  ServerHandle handle(&server);
  const std::string query = R"({"op":"rollup","dims":["Day"]})";

  ParsedResponse first = ParseResponse(handle.QueryOpen(query, 4));
  ParsedResponse second = ParseResponse(handle.QueryOpen(query, 4));
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(server.open_sessions(), 2u);

  ParsedResponse third = ParseResponse(handle.QueryOpen(query, 4));
  EXPECT_FALSE(third.ok);
  EXPECT_EQ(ErrorCode(third), "too_many_sessions");
  EXPECT_EQ(server.Stats().sessions_rejected, 1u);

  ParsedResponse closed = ParseResponse(handle.QueryClose(CursorId(first)));
  ASSERT_TRUE(closed.ok);
  EXPECT_TRUE(closed.value.Get("closed").ValueOrDie().AsBool().ValueOrDie());
  EXPECT_TRUE(ParseResponse(handle.QueryOpen(query, 4)).ok);

  // A closed cursor is gone: next fails, a second close reports closed=false.
  ParsedResponse next = ParseResponse(handle.QueryNext(CursorId(first)));
  EXPECT_FALSE(next.ok);
  EXPECT_EQ(ErrorCode(next), "not_found");
  ParsedResponse again = ParseResponse(handle.QueryClose(CursorId(first)));
  ASSERT_TRUE(again.ok);
  EXPECT_FALSE(again.value.Get("closed").ValueOrDie().AsBool().ValueOrDie());
}

TEST(CursorSessionTest, IdleSessionsAreReapedByTtl) {
  ServerOptions options;
  options.num_workers = 1;
  options.session_ttl_seconds = 0;  // anything idle is expired
  QueryServer server(BuildSeedCube(), options);
  ServerHandle handle(&server);

  ParsedResponse opened =
      ParseResponse(handle.QueryOpen(R"({"op":"rollup","dims":["Day"]})", 4));
  ASSERT_TRUE(opened.ok);
  EXPECT_EQ(server.open_sessions(), 1u);
  EXPECT_GE(server.ReapIdleSessions(), 1u);
  EXPECT_EQ(server.open_sessions(), 0u);
  EXPECT_EQ(server.Stats().sessions_expired, 1u);

  ParsedResponse next = ParseResponse(handle.QueryNext(CursorId(opened)));
  EXPECT_FALSE(next.ok);
  EXPECT_EQ(ErrorCode(next), "not_found");
}

TEST(CursorSessionTest, RejectsMalformedSessionRequests) {
  QueryServer server{BuildSeedCube()};
  ServerHandle handle(&server);
  struct Case {
    const char* request;
    const char* want_code;
  };
  const Case cases[] = {
      // Only row-producing queries can be paged.
      {R"({"op":"query_open","query":{"op":"point","keys":["Mon",null,"D2"]},"page_size":4})",
       "invalid_argument"},
      {R"({"op":"query_open","query":{"op":"stats"},"page_size":4})",
       "invalid_argument"},
      {R"({"op":"query_open","page_size":4})", "invalid_argument"},
      {R"({"op":"query_open","query":{"op":"rollup","dims":["Day"]}})",
       "invalid_argument"},  // missing page_size
      {R"({"op":"query_open","query":{"op":"rollup","dims":["Day"]},"page_size":0})",
       "invalid_argument"},
      {R"({"op":"query_open","query":{"op":"rollup","dims":["Day"]},"page_size":100000000})",
       "invalid_argument"},
      {R"({"op":"query_next"})", "invalid_argument"},
      {R"({"op":"query_next","cursor":-3})", "invalid_argument"},
      {R"({"op":"query_close"})", "invalid_argument"},
      // Unknown dimension surfaces at open, not at first next.
      {R"({"op":"query_open","query":{"op":"rollup","dims":["NoSuchDim"]},"page_size":4})",
       "not_found"},
  };
  for (const Case& c : cases) {
    ParsedResponse parsed = ParseResponse(handle.Call(c.request));
    EXPECT_FALSE(parsed.ok) << c.request;
    EXPECT_EQ(ErrorCode(parsed), c.want_code) << c.request;
  }
  EXPECT_EQ(server.open_sessions(), 0u);
}

TEST(CursorSessionTest, UnknownSliceKeyYieldsEmptyDrainedCursor) {
  QueryServer server{BuildSeedCube()};
  ServerHandle handle(&server);
  ParsedResponse opened = ParseResponse(
      handle.QueryOpen(R"({"op":"slice","dim":"Area","key":"NoSuchArea"})", 8));
  ASSERT_TRUE(opened.ok);
  ParsedResponse page = ParseResponse(handle.QueryNext(CursorId(opened)));
  ASSERT_TRUE(page.ok);
  EXPECT_EQ(RowsJson(page), "[]");
  EXPECT_TRUE(page.value.Get("done").ValueOrDie().AsBool().ValueOrDie());
  EXPECT_EQ(server.open_sessions(), 0u);
}

// --- Delta-epoch cache revalidation --------------------------------------

TEST(QueryServerTest, CacheRevalidatesEntriesThatMissTheChangedPrefixes) {
  ServerOptions options;
  options.num_workers = 1;
  QueryServer server(BuildSeedCube(), options);
  ServerHandle handle(&server);
  const std::string mon_point = R"({"op":"point","keys":["Mon",null,"D2"]})";
  const std::string d1_slice = R"({"op":"slice","dim":"Area","key":"D1"})";
  const std::string day_rollup = R"({"op":"rollup","dims":["Day"]})";

  // Warm the cache at epoch 0.
  ParsedResponse mon_first = ParseResponse(handle.Call(mon_point));
  handle.Call(d1_slice);
  handle.Call(day_rollup);
  EXPECT_EQ(server.cache().stats().entries, 3u);

  // The publish touches only ("Sat","Heuston","D8"): the Mon point and the
  // D1 slice provably miss it and must carry over; the roll-up cannot (every
  // new tuple lands in some group) and must drop.
  ASSERT_TRUE(server.ApplyUpdate({{{"Sat", "Heuston", "D8"}, 4}}).ok());
  ResultCacheStats after_miss = server.cache().stats();
  EXPECT_EQ(after_miss.revalidated, 2u);
  EXPECT_EQ(after_miss.invalidations, 1u);
  EXPECT_EQ(after_miss.entries, 2u);

  // A revalidated entry serves a *cached* hit at the new epoch, byte-equal
  // to the epoch-0 result.
  ParsedResponse mon_second = ParseResponse(handle.Call(mon_point));
  EXPECT_TRUE(mon_second.cached);
  EXPECT_EQ(mon_second.epoch, 1u);
  EXPECT_EQ(json::SerializeJson(
                mon_second.value.Get("measure").ValueOrDie()),
            json::SerializeJson(mon_first.value.Get("measure").ValueOrDie()));

  // A publish that *does* touch the Mon prefix invalidates it again.
  ASSERT_TRUE(server.ApplyUpdate({{{"Mon", "Fenian St", "D2"}, 100}}).ok());
  ParsedResponse mon_third = ParseResponse(handle.Call(mon_point));
  EXPECT_FALSE(mon_third.cached);
  EXPECT_EQ(mon_third.epoch, 2u);
  EXPECT_EQ(mon_third.value.Get("measure").ValueOrDie()
                .AsNumber().ValueOrDie(),
            mon_first.value.Get("measure").ValueOrDie()
                    .AsNumber().ValueOrDie() +
                100);
}

// Each incremental publish appends one arena chunk to the served cube, so the
// publish that starts at kCompactionChunkLimit chunks is the one compaction
// rebuild in 70 publishes. After every publish the served answers must equal
// a from-scratch CubeUpdater::Rebuild of the same history, and the Day=Fri
// slice, which no batch touches, must stay cached across every publish —
// the compaction one included.
TEST(QueryServerTest, PublishesAcrossTheCompactionBoundary) {
  constexpr int kPublishes = 70;
  const DwarfCube seed = BuildSeedCube();
  ServerOptions options;
  options.num_workers = 1;
  QueryServer server(DwarfCube(seed), options);
  ServerHandle handle(&server);
  const std::string untouched = R"({"op":"slice","dim":"Day","key":"Fri"})";
  handle.Call(untouched);

  const std::vector<std::string> days = {"Mon", "Tue", "Wed", "Sat"};
  const std::vector<std::string> stations = {"Fenian St", "Pearse St",
                                             "Heuston", "Custom House"};
  std::vector<Tuple> history;
  std::vector<int> compactions;
  for (int publish = 1; publish <= kPublishes; ++publish) {
    // One tuple over existing values, one that grows two dictionaries.
    std::vector<Tuple> batch = {
        {{days[publish % days.size()], stations[publish % stations.size()],
          "D" + std::to_string(publish % 3)},
         publish},
        {{"Sun", "Station" + std::to_string(publish), "D9"}, 1},
    };
    history.insert(history.end(), batch.begin(), batch.end());
    const size_t chunks = server.store().snapshot().cube->arena_chunks();
    ASSERT_TRUE(server.ApplyUpdate(batch).ok()) << "publish " << publish;
    const bool incremental = server.Stats().last_update.incremental;
    EXPECT_EQ(incremental, chunks < QueryServer::kCompactionChunkLimit)
        << "publish " << publish << " started at " << chunks << " chunks";
    if (!incremental) {
      compactions.push_back(publish);
      EXPECT_EQ(server.store().snapshot().cube->arena_chunks(), 1u);
    }

    ParsedResponse carried = ParseResponse(handle.Call(untouched));
    EXPECT_TRUE(carried.cached) << "publish " << publish;
    EXPECT_EQ(carried.epoch, static_cast<uint64_t>(publish));

    dwarf::CubeUpdater updater{DwarfCube(seed)};
    for (const auto& [keys, measure] : history) {
      ASSERT_TRUE(updater.AddTuple(keys, measure).ok());
    }
    Result<DwarfCube> reference = std::move(updater).Rebuild();
    ASSERT_TRUE(reference.ok()) << reference.status();
    for (const std::string& request_json : MixedRequests()) {
      const std::string response = handle.Call(request_json);
      ParsedResponse parsed = ParseResponse(response);
      EXPECT_EQ(parsed.epoch, static_cast<uint64_t>(publish));
      ExecResult expected =
          ExecuteRequest(*reference, ParseRequest(request_json).ValueOrDie());
      EXPECT_EQ(response, MakeResponse(expected.ok, parsed.epoch,
                                       parsed.cached, expected.payload_json))
          << request_json << " at publish " << publish;
    }
  }
  EXPECT_EQ(compactions, std::vector<int>{static_cast<int>(
                             QueryServer::kCompactionChunkLimit)});
  EXPECT_EQ(server.Stats().updates_applied,
            static_cast<uint64_t>(kPublishes));
}

TEST(QueryServerTest, StatsEndpointReportsSessionAndRevalidationCounters) {
  ServerOptions options;
  options.num_workers = 1;
  QueryServer server(BuildSeedCube(), options);
  ServerHandle handle(&server);
  handle.Call(R"({"op":"point","keys":["Mon",null,"D2"]})");
  ASSERT_TRUE(server.ApplyUpdate({{{"Sat", "Heuston", "D8"}, 4}}).ok());
  ParsedResponse opened =
      ParseResponse(handle.QueryOpen(R"({"op":"rollup","dims":["Day"]})", 4));
  ASSERT_TRUE(opened.ok);

  ParsedResponse parsed = ParseResponse(handle.Call(R"({"op":"stats"})"));
  ASSERT_TRUE(parsed.ok);
  const json::JsonValue& value = parsed.value;
  EXPECT_EQ(value.GetPath("stats.cache.revalidated").ValueOrDie()
                .AsNumber().ValueOrDie(),
            1.0);
  EXPECT_EQ(value.GetPath("stats.sessions.open").ValueOrDie()
                .AsNumber().ValueOrDie(),
            1.0);
  EXPECT_EQ(value.GetPath("stats.sessions.opened").ValueOrDie()
                .AsNumber().ValueOrDie(),
            1.0);
  EXPECT_EQ(value.GetPath("stats.sessions.max_sessions").ValueOrDie()
                .AsNumber().ValueOrDie(),
            64.0);
}

// Flattens a "metrics" op payload into "name{k=v,...}" -> numeric value
// (counter/gauge "value", histogram "count").
std::map<std::string, double> FlattenMetrics(const json::JsonValue& value) {
  std::map<std::string, double> out;
  const json::JsonArray* entries =
      value.Get("metrics").ValueOrDie().AsArray();
  EXPECT_NE(entries, nullptr);
  if (entries == nullptr) return out;
  for (const json::JsonValue& entry : *entries) {
    std::string key = entry.Get("name").ValueOrDie().AsString().ValueOrDie();
    const json::JsonObject* labels =
        entry.Get("labels").ValueOrDie().AsObject();
    if (labels != nullptr && !labels->empty()) {
      key.push_back('{');
      for (const auto& [k, v] : *labels) {
        if (key.back() != '{') key.push_back(',');
        key += k + "=" + v.AsString().ValueOrDie();
      }
      key.push_back('}');
    }
    auto number = entry.Get("value");
    if (!number.ok()) number = entry.Get("count");
    out[key] = number.ValueOrDie().AsNumber().ValueOrDie();
  }
  return out;
}

TEST(QueryServerTest, MetricsEndpointExposesMovingCacheAndSessionCounters) {
  ServerOptions options;
  options.num_workers = 1;
  QueryServer server(BuildSeedCube(), options);
  ServerHandle handle(&server);

  ParsedResponse before = ParseResponse(handle.Call(R"({"op":"metrics"})"));
  ASSERT_TRUE(before.ok);
  std::map<std::string, double> baseline = FlattenMetrics(before.value);
  // Every registered serving series is present from the start.
  for (const char* name :
       {"server_requests_total", "server_rejected_total",
        "server_updates_applied_total", "server_request_us",
        "server_cache_hits_total", "server_cache_misses_total",
        "server_cache_evictions_total", "server_cache_invalidations_total",
        "server_cache_revalidated_total", "server_sessions_opened_total",
        "server_sessions_expired_total", "server_sessions_rejected_total",
        "server_sessions_open"}) {
    EXPECT_TRUE(baseline.count(name)) << "missing metric " << name;
  }
  EXPECT_TRUE(baseline.count("server_op_us{op=point}"));
  EXPECT_TRUE(baseline.count("server_op_us{op=metrics}"));

  // Traffic: a cache miss, a cache hit, and an open cursor session.
  handle.Call(R"({"op":"point","keys":["Mon",null,"D2"]})");
  handle.Call(R"({"op":"point","keys":["Mon",null,"D2"]})");
  ParsedResponse opened =
      ParseResponse(handle.QueryOpen(R"({"op":"rollup","dims":["Day"]})", 4));
  ASSERT_TRUE(opened.ok);

  ParsedResponse after = ParseResponse(handle.Call(R"({"op":"metrics"})"));
  ASSERT_TRUE(after.ok);
  std::map<std::string, double> moved = FlattenMetrics(after.value);
  EXPECT_EQ(moved["server_cache_misses_total"],
            baseline["server_cache_misses_total"] + 1);
  EXPECT_EQ(moved["server_cache_hits_total"],
            baseline["server_cache_hits_total"] + 1);
  EXPECT_EQ(moved["server_sessions_opened_total"],
            baseline["server_sessions_opened_total"] + 1);
  EXPECT_EQ(moved["server_sessions_open"], 1.0);
  // The first metrics call itself completed, so requests moved by >= 4.
  EXPECT_GE(moved["server_requests_total"],
            baseline["server_requests_total"] + 4);
  EXPECT_GE(moved["server_op_us{op=point}"], 2.0);
}

TEST(QueryServerTest, MetricsAreScopedPerServerInstance) {
  ServerOptions options;
  options.num_workers = 1;
  QueryServer busy(BuildSeedCube(), options);
  QueryServer idle(BuildSeedCube(), options);
  ServerHandle busy_handle(&busy);
  ServerHandle idle_handle(&idle);
  busy_handle.Call(R"({"op":"point","keys":["Mon",null,"D2"]})");
  busy_handle.Call(R"({"op":"point","keys":["Mon",null,"D2"]})");

  std::map<std::string, double> busy_metrics = FlattenMetrics(
      ParseResponse(busy_handle.Call(R"({"op":"metrics"})")).value);
  std::map<std::string, double> idle_metrics = FlattenMetrics(
      ParseResponse(idle_handle.Call(R"({"op":"metrics"})")).value);
  EXPECT_GE(busy_metrics["server_requests_total"], 2.0);
  // The idle server saw only its own metrics request — the busy server's
  // traffic never bled into it.
  EXPECT_EQ(idle_metrics["server_cache_misses_total"], 0.0);
  EXPECT_EQ(idle_metrics["server_sessions_opened_total"], 0.0);
}

// --- TCP front-end -------------------------------------------------------

int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

TEST(TcpServerTest, RoundTripsFramesIdenticallyToInProcessHandle) {
  QueryServer server{BuildSeedCube()};
  TcpServer tcp(&server);
  ASSERT_TRUE(tcp.Start().ok());
  ASSERT_GT(tcp.port(), 0);

  int fd = ConnectLoopback(tcp.port());
  ServerHandle handle(&server);
  for (const std::string& request : MixedRequests()) {
    ASSERT_TRUE(WriteFrame(fd, request).ok());
    auto response = ReadFrame(fd, 1 << 20);
    ASSERT_TRUE(response.ok()) << response.status();
    // The TCP response must match the in-process path modulo the cached
    // flag (the TCP request may have warmed the cache).
    ParsedResponse over_tcp = ParseResponse(*response);
    ParsedResponse in_process = ParseResponse(handle.Call(request));
    EXPECT_EQ(over_tcp.ok, in_process.ok) << request;
    EXPECT_EQ(json::SerializeJson(over_tcp.value.Get("epoch").ValueOrDie()),
              json::SerializeJson(in_process.value.Get("epoch").ValueOrDie()));
    auto request_parsed = ParseRequest(request);
    ASSERT_TRUE(request_parsed.ok());
    ExecResult direct = ExecuteRequest(*server.store().snapshot().cube,
                                       *request_parsed);
    EXPECT_EQ(*response, MakeResponse(direct.ok, over_tcp.epoch,
                                      over_tcp.cached, direct.payload_json))
        << request;
  }
  ::close(fd);
  tcp.Stop();
}

TEST(TcpServerTest, ManyConnectionsServeConcurrently) {
  constexpr int kConnections = 8;
  constexpr int kRequestsEach = 25;
  QueryServer server{BuildSeedCube()};
  TcpServer tcp(&server);
  ASSERT_TRUE(tcp.Start().ok());

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  const std::vector<std::string> pool = MixedRequests();
  threads.reserve(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    threads.emplace_back([&, i] {
      int fd = ConnectLoopback(tcp.port());
      for (int r = 0; r < kRequestsEach; ++r) {
        const std::string& request = pool[(i + r) % pool.size()];
        if (!WriteFrame(fd, request).ok()) { ++failures; break; }
        auto response = ReadFrame(fd, 1 << 20);
        if (!response.ok()) { ++failures; break; }
        ParsedResponse parsed = ParseResponse(*response);
        if (!parsed.ok) ++failures;
      }
      ::close(fd);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.Stats().queries_total,
            static_cast<uint64_t>(kConnections) * kRequestsEach);
  tcp.Stop();
}

TEST(TcpServerTest, ReapsFinishedConnectionThreads) {
  QueryServer server{BuildSeedCube()};
  TcpServer tcp(&server);
  ASSERT_TRUE(tcp.Start().ok());

  // Many short-lived connections, each fully served then closed client-side.
  constexpr int kRounds = 12;
  for (int i = 0; i < kRounds; ++i) {
    int fd = ConnectLoopback(tcp.port());
    ASSERT_TRUE(WriteFrame(fd, R"({"op":"stats"})").ok());
    auto response = ReadFrame(fd, 1 << 20);
    ASSERT_TRUE(response.ok()) << response.status();
    ::close(fd);
  }

  // Each serving thread self-registers as finished once it observes the
  // close; a sweep must then join and forget every one of them instead of
  // accumulating kRounds dead threads until Stop().
  size_t live = tcp.ReapFinishedConnections();
  for (int spin = 0; spin < 500 && live != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    live = tcp.ReapFinishedConnections();
  }
  EXPECT_EQ(live, 0u);
  tcp.Stop();
}

TEST(TcpServerTest, DisconnectReclaimsClientCursorSessions) {
  QueryServer server{BuildSeedCube()};
  TcpServer tcp(&server);
  ASSERT_TRUE(tcp.Start().ok());

  int fd = ConnectLoopback(tcp.port());
  ASSERT_TRUE(
      WriteFrame(
          fd,
          R"({"op":"query_open","query":{"op":"rollup","dims":["Day"]},"page_size":1})")
          .ok());
  auto response = ReadFrame(fd, 1 << 20);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(ParseResponse(*response).ok);
  EXPECT_EQ(server.open_sessions(), 1u);

  // Dropping the connection mid-pagination must reclaim the cursor without
  // waiting for the idle TTL.
  ::close(fd);
  size_t open = server.open_sessions();
  for (int spin = 0; spin < 500 && open != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    open = server.open_sessions();
  }
  EXPECT_EQ(open, 0u);
  tcp.Stop();
}

std::atomic<int> g_usr1_seen{0};
void OnUsr1(int) { g_usr1_seen.fetch_add(1); }

TEST(WireTest, ReadFullRetriesAcrossSignalInterruption) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  // Deliberately no SA_RESTART: a blocked read() must surface EINTR, which
  // ReadFull/ReadFrame have to retry rather than fail the connection.
  struct sigaction action {};
  struct sigaction old_action {};
  action.sa_handler = OnUsr1;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ASSERT_EQ(sigaction(SIGUSR1, &action, &old_action), 0);

  std::atomic<bool> started{false};
  std::string payload;
  Status read_status = Status::OK();
  std::thread reader([&] {
    started.store(true);
    auto result = ReadFrame(fds[0], 1 << 20);
    if (result.ok()) {
      payload = *result;
    } else {
      read_status = result.status();
    }
  });

  while (!started.load()) std::this_thread::yield();
  for (int i = 0; i < 5; ++i) {
    // Let the reader block in read(), then interrupt it.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    pthread_kill(reader.native_handle(), SIGUSR1);
  }
  const std::string request = R"({"op":"stats"})";
  ASSERT_TRUE(WriteFrame(fds[1], request).ok());
  reader.join();
  sigaction(SIGUSR1, &old_action, nullptr);

  EXPECT_TRUE(read_status.ok()) << read_status;
  EXPECT_EQ(payload, request);
  EXPECT_GT(g_usr1_seen.load(), 0);
  ::close(fds[0]);
  ::close(fds[1]);
}

// Stop() shuts down every live socket; a connection thread still executing
// its request then writes the response to a shut-down socket. That write
// must fail as an IoError, not raise SIGPIPE and kill the process.
TEST(TcpServerTest, StopDuringAnExecutingRequestRaisesNoSigpipe) {
  ServerOptions options;
  options.pre_execute_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  };
  QueryServer server(BuildSeedCube(), options);
  TcpServer tcp(&server);
  ASSERT_TRUE(tcp.Start().ok());
  int fd = ConnectLoopback(tcp.port());
  ASSERT_TRUE(WriteFrame(fd, R"({"op":"ping"})").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  tcp.Stop();  // joins the connection thread after its write
  EXPECT_FALSE(ReadFrame(fd, 1 << 20).ok());  // no response reached us
  ::close(fd);
}

TEST(TcpServerTest, OversizedFrameClosesConnection) {
  QueryServer server{BuildSeedCube()};
  TcpServer tcp(&server, /*max_frame_bytes=*/64);
  ASSERT_TRUE(tcp.Start().ok());
  int fd = ConnectLoopback(tcp.port());
  std::string big(1000, 'x');
  ASSERT_TRUE(WriteFrame(fd, big).ok());
  auto response = ReadFrame(fd, 1 << 20);
  EXPECT_FALSE(response.ok());  // server hung up instead of serving it
  ::close(fd);
  tcp.Stop();
}

}  // namespace
}  // namespace scdwarf::server
