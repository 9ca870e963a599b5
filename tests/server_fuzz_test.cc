// Differential fuzz of the cube query service (src/server): ~500
// seeded-random point / aggregate / slice / rollup requests are sent through
// every server path — uncached, cached, and cursor-session pagination — and
// each response must be byte-identical to executing the same request
// directly against the served snapshot with wire::ExecuteRequest. The sweep
// crosses two epoch publishes, so cache revalidation, invalidation and
// snapshot pinning are all on the differential path. Deterministic: one
// xoshiro seed drives the cube, the updates and every request.
//
// The epoch-storm mode (EpochStormMatchesFromScratchRebuilds) hammers the
// incremental delta-merge publish path: 24 interleaved publishes with
// cursors draining across them, each epoch differentially checked against a
// from-scratch rebuild over the full tuple history — including byte-level
// comparison of the durable `.cf` segments both cubes store.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/client.h"
#include "common/rng.h"
#include "dwarf/builder.h"
#include "json/json_parser.h"
#include "json/json_value.h"
#include "mapper/nosql_dwarf_mapper.h"
#include "nosql/database.h"
#include "replica/router.h"
#include "replica/snapshot.h"
#include "server/query_server.h"
#include "server/tcp_server.h"
#include "server/wire.h"

namespace scdwarf::server {
namespace {

using dwarf::Measure;
using json::JsonArray;
using json::JsonObject;
using json::JsonValue;

constexpr uint64_t kSeed = 0x5ca1ab1e;
constexpr int kQueries = 500;

const std::vector<std::string>& Days() {
  static const auto* v = new std::vector<std::string>{
      "Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"};
  return *v;
}

std::vector<std::string> MakeVocab(const std::string& prefix, int count) {
  std::vector<std::string> vocab;
  vocab.reserve(count);
  for (int i = 0; i < count; ++i) {
    vocab.push_back(prefix + std::to_string(i));
  }
  return vocab;
}

struct FuzzWorld {
  std::vector<std::string> dims = {"Day", "Station", "Area"};
  std::vector<std::vector<std::string>> vocab = {
      Days(), MakeVocab("Station", 12), MakeVocab("Area", 5)};
  // Day and Station are ordered, so value-form ranges and roll-up "where"
  // filters are legal on them (Area stays unordered to keep the rejection
  // paths on the differential path too).
  std::vector<bool> ordered = {true, true, false};
};

dwarf::CubeSchema FuzzSchema(const FuzzWorld& world) {
  std::vector<dwarf::DimensionSpec> specs;
  for (size_t dim = 0; dim < world.dims.size(); ++dim) {
    specs.emplace_back(world.dims[dim], "", world.ordered[dim]);
  }
  return dwarf::CubeSchema("fuzz", std::move(specs), "bikes",
                           dwarf::AggFn::kSum);
}

std::vector<std::string> RandomKeyPath(const FuzzWorld& world, Rng& rng) {
  std::vector<std::string> keys;
  keys.reserve(world.dims.size());
  for (const auto& vocab : world.vocab) {
    keys.push_back(vocab[rng.NextBelow(vocab.size())]);
  }
  return keys;
}

dwarf::DwarfCube BuildFuzzCube(const FuzzWorld& world, Rng& rng,
                               int tuple_count) {
  dwarf::DwarfBuilder builder(FuzzSchema(world));
  for (int i = 0; i < tuple_count; ++i) {
    EXPECT_TRUE(builder
                    .AddTuple(RandomKeyPath(world, rng),
                              static_cast<Measure>(rng.NextInRange(1, 50)))
                    .ok());
  }
  return std::move(builder).Build().ValueOrDie();
}

// A dimension value drawn mostly from the vocabulary, sometimes unknown —
// the miss paths (NotFound, empty slices) must differ identically too.
std::string RandomValue(const std::vector<std::string>& vocab, Rng& rng) {
  if (rng.NextBool(0.12)) return "NoSuch" + std::to_string(rng.NextBelow(4));
  return vocab[rng.NextBelow(vocab.size())];
}

std::string RandomRequestJson(const FuzzWorld& world, Rng& rng) {
  JsonObject root;
  switch (rng.NextBelow(4)) {
    case 0: {  // point, each dim null / known / unknown
      root.emplace_back("op", JsonValue("point"));
      JsonArray keys;
      for (const auto& vocab : world.vocab) {
        if (rng.NextBool(0.3)) {
          keys.push_back(JsonValue(nullptr));
        } else {
          keys.push_back(JsonValue(RandomValue(vocab, rng)));
        }
      }
      root.emplace_back("keys", JsonValue(std::move(keys)));
      break;
    }
    case 1: {  // aggregate with a mixed predicate per dimension
      root.emplace_back("op", JsonValue("aggregate"));
      JsonArray predicates;
      for (size_t dim = 0; dim < world.vocab.size(); ++dim) {
        const auto& vocab = world.vocab[dim];
        JsonObject predicate;
        switch (rng.NextBelow(4)) {
          case 0:
            predicate.emplace_back("kind", JsonValue("all"));
            break;
          case 1:
            predicate.emplace_back("kind", JsonValue("point"));
            predicate.emplace_back("key", JsonValue(RandomValue(vocab, rng)));
            break;
          case 2: {
            predicate.emplace_back("kind", JsonValue("set"));
            JsonArray members;
            size_t count = 1 + rng.NextBelow(3);
            for (size_t i = 0; i < count; ++i) {
              members.push_back(JsonValue(RandomValue(vocab, rng)));
            }
            predicate.emplace_back("keys", JsonValue(std::move(members)));
            break;
          }
          default: {
            predicate.emplace_back("kind", JsonValue("range"));
            if (world.ordered[dim] && rng.NextBool(0.5)) {
              // Value form: bounds are dimension values resolved through the
              // rank view (sometimes unknown values — the resolver clamps).
              std::string a = RandomValue(vocab, rng);
              std::string b = RandomValue(vocab, rng);
              if (b < a) std::swap(a, b);
              predicate.emplace_back("lo", JsonValue(std::move(a)));
              predicate.emplace_back("hi", JsonValue(std::move(b)));
            } else {
              int64_t lo =
                  rng.NextInRange(0, static_cast<int64_t>(vocab.size()));
              int64_t hi =
                  rng.NextInRange(lo, static_cast<int64_t>(vocab.size()));
              predicate.emplace_back("lo", JsonValue(lo));
              predicate.emplace_back("hi", JsonValue(hi));
            }
            break;
          }
        }
        predicates.push_back(JsonValue(std::move(predicate)));
      }
      root.emplace_back("predicates", JsonValue(std::move(predicates)));
      break;
    }
    case 2: {  // slice on a random dimension
      size_t dim = rng.NextBelow(world.dims.size());
      root.emplace_back("op", JsonValue("slice"));
      root.emplace_back("dim", JsonValue(world.dims[dim]));
      root.emplace_back("key", JsonValue(RandomValue(world.vocab[dim], rng)));
      break;
    }
    default: {  // rollup over a random non-empty dimension subset
      root.emplace_back("op", JsonValue("rollup"));
      std::vector<std::string> dims = world.dims;
      // Random order, random non-empty prefix.
      for (size_t i = dims.size(); i > 1; --i) {
        std::swap(dims[i - 1], dims[rng.NextBelow(i)]);
      }
      size_t count = 1 + rng.NextBelow(dims.size());
      JsonArray names;
      for (size_t i = 0; i < count; ++i) names.push_back(JsonValue(dims[i]));
      root.emplace_back("dims", JsonValue(std::move(names)));
      // Sometimes constrain one grouped ordered dim to a value window.
      if (rng.NextBool(0.4)) {
        for (size_t i = 0; i < count; ++i) {
          size_t dim = std::find(world.dims.begin(), world.dims.end(),
                                 dims[i]) -
                       world.dims.begin();
          if (!world.ordered[dim]) continue;
          std::string a = RandomValue(world.vocab[dim], rng);
          std::string b = RandomValue(world.vocab[dim], rng);
          if (b < a) std::swap(a, b);
          JsonObject filter;
          filter.emplace_back("dim", JsonValue(dims[i]));
          filter.emplace_back("lo", JsonValue(std::move(a)));
          filter.emplace_back("hi", JsonValue(std::move(b)));
          JsonArray where;
          where.push_back(JsonValue(std::move(filter)));
          root.emplace_back("where", JsonValue(std::move(where)));
          break;
        }
      }
      break;
    }
  }
  return json::SerializeJson(JsonValue(std::move(root)));
}

struct ParsedEnvelope {
  bool ok = false;
  uint64_t epoch = 0;
  bool cached = false;
  JsonValue value;
};

ParsedEnvelope ParseEnvelope(const std::string& payload) {
  ParsedEnvelope parsed;
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

// Serialized "rows" array of a direct ExecuteRequest payload.
std::string DirectRowsJson(const ExecResult& direct) {
  auto payload = json::ParseJson(direct.payload_json);
  EXPECT_TRUE(payload.ok()) << direct.payload_json;
  if (!payload.ok()) return "";
  return json::SerializeJson(payload->Get("rows").ValueOrDie());
}

// Pages a cursor session to exhaustion and returns the concatenated rows,
// asserting every page reports \p want_epoch (the pinned snapshot's epoch).
std::string DrainSessionRows(ServerHandle& handle, const std::string& query,
                             size_t page_size, uint64_t want_epoch,
                             QueryServer* server_to_update_mid_drain = nullptr,
                             const std::vector<std::pair<std::vector<std::string>,
                                                         Measure>>* update = nullptr) {
  ParsedEnvelope opened = ParseEnvelope(handle.QueryOpen(query, page_size));
  EXPECT_TRUE(opened.ok) << query;
  if (!opened.ok) return "";
  EXPECT_EQ(opened.epoch, want_epoch);
  uint64_t cursor = static_cast<uint64_t>(
      opened.value.Get("cursor").ValueOrDie().AsNumber().ValueOrDie());
  JsonArray rows;
  bool first_page = true;
  for (;;) {
    ParsedEnvelope page = ParseEnvelope(handle.QueryNext(cursor));
    EXPECT_TRUE(page.ok) << query;
    if (!page.ok) break;
    EXPECT_EQ(page.epoch, want_epoch) << "cursor lost its pinned snapshot";
    JsonValue rows_value = page.value.Get("rows").ValueOrDie();
    const JsonArray* got = rows_value.AsArray();
    EXPECT_NE(got, nullptr);
    if (got == nullptr) break;
    rows.insert(rows.end(), got->begin(), got->end());
    if (page.value.Get("done").ValueOrDie().AsBool().ValueOrDie()) break;
    if (first_page && server_to_update_mid_drain != nullptr) {
      // Publish a new epoch mid-pagination: the rest of the drain must not
      // notice.
      EXPECT_TRUE(server_to_update_mid_drain->ApplyUpdate(*update).ok());
      first_page = false;
    }
  }
  return json::SerializeJson(JsonValue(rows));
}

// One differential check: the server's response bytes must equal the
// envelope rebuilt around the direct execution's payload.
void ExpectResponseMatchesDirect(const std::string& response,
                                 const dwarf::DwarfCube& cube,
                                 const QueryRequest& request,
                                 const std::string& request_json) {
  ParsedEnvelope envelope = ParseEnvelope(response);
  ExecResult direct = ExecuteRequest(cube, request);
  EXPECT_EQ(response, MakeResponse(direct.ok, envelope.epoch, envelope.cached,
                                   direct.payload_json))
      << request_json;
}

TEST(ServerFuzzTest, AllServerPathsMatchDirectTraversal) {
  FuzzWorld world;
  Rng rng(kSeed);
  QueryServer server(BuildFuzzCube(world, rng, 400));
  ServerHandle handle(&server);

  // Publish twice during the sweep: one batch re-touches existing prefixes,
  // one introduces brand-new dictionary values.
  int publishes_left = 2;
  uint64_t rows_compared = 0;
  for (int i = 0; i < kQueries; ++i) {
    if (publishes_left > 0 && i > 0 && i % (kQueries / 3) == 0) {
      std::vector<std::pair<std::vector<std::string>, Measure>> batch;
      for (int t = 0; t < 8; ++t) {
        batch.emplace_back(RandomKeyPath(world, rng),
                           static_cast<Measure>(rng.NextInRange(1, 50)));
      }
      if (publishes_left == 1) {
        batch.emplace_back(
            std::vector<std::string>{"Mon", "StationNew", "AreaNew"},
            Measure{17});
      }
      ASSERT_TRUE(server.ApplyUpdate(batch).ok());
      --publishes_left;
    }

    const std::string request_json = RandomRequestJson(world, rng);
    auto request = ParseRequest(request_json);
    ASSERT_TRUE(request.ok()) << request_json;
    EpochCubeStore::Snapshot snapshot = server.store().snapshot();

    // Path 1: one-shot (a mix of cache misses and hits — repeated requests
    // re-occur by seed, and revalidation carries entries across publishes).
    ExpectResponseMatchesDirect(handle.Call(request_json), *snapshot.cube,
                                *request, request_json);
    // Path 2: immediately repeated, usually served from the cache.
    ExpectResponseMatchesDirect(handle.Call(request_json), *snapshot.cube,
                                *request, request_json);

    // Path 3: cursor pagination for row-producing ops.
    if (request->op == RequestOp::kSlice || request->op == RequestOp::kRollUp) {
      ExecResult direct = ExecuteRequest(*snapshot.cube, *request);
      if (direct.ok) {
        size_t page_size = 1 + rng.NextBelow(16);
        std::string rows = DrainSessionRows(handle, request_json, page_size,
                                            snapshot.epoch);
        EXPECT_EQ(rows, DirectRowsJson(direct)) << request_json;
        ++rows_compared;
      }
    }
  }
  EXPECT_EQ(server.epoch(), 2u);  // both publishes happened
  EXPECT_GT(rows_compared, 50u);
  EXPECT_GT(server.Stats().cache.hits, 0u);
  EXPECT_GT(server.Stats().cache.revalidated, 0u);
  EXPECT_EQ(server.open_sessions(), 0u);
}

// \p name's value in a Prometheus text exposition dump ("name 3"), or 0.
uint64_t MetricValue(const std::string& text, const std::string& name) {
  size_t pos = text.find("\n" + name + " ");
  if (pos == std::string::npos) return 0;
  return static_cast<uint64_t>(
      std::stoull(text.substr(pos + name.size() + 2)));
}

// Focused revalidation check: a cached value-range aggregate and a cached
// ranged roll-up must survive a publish whose every changed key falls
// OUTSIDE the range — served cached (not recomputed) on the new epoch, and
// still byte-identical to direct execution. "Mon" < "Tue" < "Wed"
// lexicographically, so a ["Mon","Tue"] window provably misses "Wed" keys.
TEST(ServerFuzzTest, RangeQueriesRevalidateAcrossMissPublish) {
  FuzzWorld world;
  dwarf::DwarfBuilder builder(FuzzSchema(world));
  ASSERT_TRUE(builder.AddTuple({"Mon", "Station1", "Area0"}, 5).ok());
  ASSERT_TRUE(builder.AddTuple({"Tue", "Station2", "Area1"}, 7).ok());
  ASSERT_TRUE(builder.AddTuple({"Wed", "Station3", "Area2"}, 9).ok());
  QueryServer server(std::move(builder).Build().ValueOrDie());
  ServerHandle handle(&server);

  const std::string aggregate =
      R"({"op":"aggregate","predicates":[)"
      R"({"kind":"range","lo":"Mon","hi":"Tue"},)"
      R"({"kind":"all"},{"kind":"all"}]})";
  const std::string rollup =
      R"({"op":"rollup","dims":["Day","Station"],)"
      R"("where":[{"dim":"Day","lo":"Mon","hi":"Tue"}]})";
  for (const std::string& request_json : {aggregate, rollup}) {
    ParsedEnvelope first = ParseEnvelope(handle.Call(request_json));
    ASSERT_TRUE(first.ok) << request_json;
    EXPECT_FALSE(first.cached);
    EXPECT_TRUE(ParseEnvelope(handle.Call(request_json)).cached);
  }

  // Every changed key has Day="Wed", outside ["Mon","Tue"].
  ASSERT_TRUE(server
                  .ApplyUpdate({{{"Wed", "Station1", "Area0"}, 11},
                                {{"Wed", "StationNew", "Area4"}, 13}})
                  .ok());

  uint64_t revalidations =
      MetricValue(server.MetricsText(), "server_range_revalidations_total");
  EXPECT_GE(revalidations, 2u) << server.MetricsText();
  EpochCubeStore::Snapshot snapshot = server.store().snapshot();
  for (const std::string& request_json : {aggregate, rollup}) {
    std::string response = handle.Call(request_json);
    ParsedEnvelope envelope = ParseEnvelope(response);
    EXPECT_TRUE(envelope.cached) << "recomputed after a miss-publish: "
                                 << request_json;
    EXPECT_EQ(envelope.epoch, 1u);
    auto request = ParseRequest(request_json);
    ASSERT_TRUE(request.ok());
    ExpectResponseMatchesDirect(response, *snapshot.cube, *request,
                                request_json);
  }

  // A publish that DOES land inside the window must invalidate.
  ASSERT_TRUE(server.ApplyUpdate({{{"Tue", "Station2", "Area1"}, 3}}).ok());
  for (const std::string& request_json : {aggregate, rollup}) {
    ParsedEnvelope envelope = ParseEnvelope(handle.Call(request_json));
    EXPECT_FALSE(envelope.cached) << request_json;
    ASSERT_TRUE(envelope.ok);
  }
}

// Focused differential: sessions opened right before a publish and drained
// right after must replay the pre-publish snapshot exactly, for several page
// sizes, while one-shot queries already serve the new epoch.
TEST(ServerFuzzTest, MidDrainPublishesNeverLeakIntoOpenCursors) {
  FuzzWorld world;
  Rng rng(kSeed ^ 0xfeed);
  QueryServer server(BuildFuzzCube(world, rng, 300));
  ServerHandle handle(&server);

  for (size_t page_size : {size_t{1}, size_t{7}, size_t{64}}) {
    const std::string request_json = RandomRequestJson(world, rng);
    auto request = ParseRequest(request_json);
    ASSERT_TRUE(request.ok());
    if (request->op != RequestOp::kSlice && request->op != RequestOp::kRollUp) {
      continue;  // only row ops page; the seed still advances identically
    }
    EpochCubeStore::Snapshot pinned = server.store().snapshot();
    ExecResult direct = ExecuteRequest(*pinned.cube, *request);
    if (!direct.ok) continue;
    std::vector<std::pair<std::vector<std::string>, Measure>> batch;
    for (int t = 0; t < 4; ++t) {
      batch.emplace_back(RandomKeyPath(world, rng),
                         static_cast<Measure>(rng.NextInRange(1, 50)));
    }
    std::string rows = DrainSessionRows(handle, request_json, page_size,
                                        pinned.epoch, &server, &batch);
    EXPECT_EQ(rows, DirectRowsJson(direct)) << request_json;
  }
}

// ----------------------------------------------------------- epoch storm

namespace fs = std::filesystem;

// All segment files under \p dir, keyed by path relative to \p dir.
std::map<std::string, std::string> ReadSegments(const fs::path& dir) {
  std::map<std::string, std::string> segments;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".cf") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    segments[fs::relative(entry.path(), dir).string()] = std::move(bytes);
  }
  return segments;
}

// Stores \p cube into a scratch nosql database and returns its `.cf`
// segment bytes.
std::map<std::string, std::string> StoreSegments(const dwarf::DwarfCube& cube,
                                                 const std::string& tag) {
  fs::path dir = fs::temp_directory_path() / ("scdwarf_storm_" + tag);
  fs::remove_all(dir);
  {
    auto db = nosql::Database::Open(dir.string());
    EXPECT_TRUE(db.ok()) << db.status();
    if (!db.ok()) return {};
    mapper::NoSqlDwarfMapper cube_mapper(&*db, "ks");
    auto id = cube_mapper.Store(cube, {});
    EXPECT_TRUE(id.ok()) << id.status();
  }
  std::map<std::string, std::string> segments = ReadSegments(dir);
  fs::remove_all(dir);
  return segments;
}

// Mini epoch storm against the default (incremental delta-merge) publish
// path: 24 small interleaved publishes, with cursor sessions opened before
// and during the storm draining one page per epoch across many publishes.
// After every publish the served cube is differentially checked against a
// cube rebuilt from scratch over the full tuple history — structural
// equality and identical wire answers every epoch, byte-identical durable
// `.cf` segments on a sample of epochs (the from-scratch builder feeds the
// same tuples in the same order, so dictionaries — and therefore segment
// bytes — are directly comparable).
TEST(ServerFuzzTest, EpochStormMatchesFromScratchRebuilds) {
  FuzzWorld world;
  Rng rng(kSeed ^ 0x5702);
  std::vector<std::pair<std::vector<std::string>, Measure>> history;
  dwarf::DwarfBuilder initial(FuzzSchema(world));
  for (int i = 0; i < 250; ++i) {
    std::vector<std::string> keys = RandomKeyPath(world, rng);
    Measure measure = static_cast<Measure>(rng.NextInRange(1, 50));
    history.emplace_back(keys, measure);
    ASSERT_TRUE(initial.AddTuple(keys, measure).ok());
  }
  QueryServer server(std::move(initial).Build().ValueOrDie());
  ServerHandle handle(&server);

  auto rebuild_reference = [&]() {
    dwarf::DwarfBuilder builder(FuzzSchema(world));
    for (const auto& [keys, measure] : history) {
      EXPECT_TRUE(builder.AddTuple(keys, measure).ok());
    }
    return std::move(builder).Build().ValueOrDie();
  };

  struct OpenDrain {
    uint64_t cursor = 0;
    uint64_t epoch = 0;       ///< pinned snapshot epoch
    std::string request_json;
    std::string expect_rows;  ///< direct rows against the pinned snapshot
    JsonArray rows;
    bool done = false;
  };
  std::vector<OpenDrain> drains;
  auto pull_page = [&](OpenDrain& drain) {
    ParsedEnvelope page = ParseEnvelope(handle.QueryNext(drain.cursor));
    EXPECT_TRUE(page.ok) << drain.request_json;
    if (!page.ok) {
      drain.done = true;
      return;
    }
    EXPECT_EQ(page.epoch, drain.epoch) << "cursor lost its pinned snapshot";
    const JsonArray* got = page.value.Get("rows").ValueOrDie().AsArray();
    ASSERT_NE(got, nullptr);
    drain.rows.insert(drain.rows.end(), got->begin(), got->end());
    if (page.value.Get("done").ValueOrDie().AsBool().ValueOrDie()) {
      drain.done = true;
    }
  };

  constexpr int kEpochs = 24;
  uint64_t answers_compared = 0;
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    // Publish a small batch; some tuples re-touch existing prefixes, some
    // introduce brand-new dictionary values.
    std::vector<std::pair<std::vector<std::string>, Measure>> batch;
    int batch_size = 1 + static_cast<int>(rng.NextBelow(6));
    for (int t = 0; t < batch_size; ++t) {
      std::vector<std::string> keys = RandomKeyPath(world, rng);
      if (rng.NextBool(0.15)) {
        keys[1] = "FreshStation" + std::to_string(epoch);
      }
      Measure measure = static_cast<Measure>(rng.NextInRange(1, 50));
      history.emplace_back(keys, measure);
      batch.emplace_back(std::move(keys), measure);
    }
    ASSERT_TRUE(server.ApplyUpdate(batch).ok());
    ASSERT_EQ(server.epoch(), static_cast<uint64_t>(epoch));
    EXPECT_TRUE(server.Stats().last_update.incremental);

    // Differential oracle: the served cube must equal a from-scratch build
    // over the whole history.
    dwarf::DwarfCube reference = rebuild_reference();
    EpochCubeStore::Snapshot snapshot = server.store().snapshot();
    ASSERT_TRUE(snapshot.cube->StructurallyEquals(reference))
        << "epoch " << epoch;
    for (int q = 0; q < 5; ++q) {
      const std::string request_json = RandomRequestJson(world, rng);
      auto request = ParseRequest(request_json);
      ASSERT_TRUE(request.ok()) << request_json;
      ExecResult served = ExecuteRequest(*snapshot.cube, *request);
      ExecResult direct = ExecuteRequest(reference, *request);
      EXPECT_EQ(served.ok, direct.ok) << request_json;
      EXPECT_EQ(served.payload_json, direct.payload_json) << request_json;
      ++answers_compared;
    }
    if (epoch % 6 == 0 || epoch == kEpochs) {
      std::map<std::string, std::string> incremental =
          StoreSegments(*snapshot.cube, "inc");
      std::map<std::string, std::string> scratch =
          StoreSegments(reference, "ref");
      ASSERT_FALSE(scratch.empty());
      ASSERT_EQ(incremental.size(), scratch.size()) << "epoch " << epoch;
      for (const auto& [name, bytes] : scratch) {
        auto it = incremental.find(name);
        ASSERT_NE(it, incremental.end()) << "missing segment " << name;
        EXPECT_EQ(it->second, bytes)
            << "segment bytes differ at epoch " << epoch << ": " << name;
      }
    }

    // Advance every open cursor by one page — they keep draining across
    // publishes against their pinned snapshots.
    for (OpenDrain& drain : drains) {
      if (!drain.done) pull_page(drain);
    }
    // Every other epoch, open a new cursor against the current snapshot.
    if (epoch % 2 == 1) {
      const std::string request_json = RandomRequestJson(world, rng);
      auto request = ParseRequest(request_json);
      ASSERT_TRUE(request.ok()) << request_json;
      if (request->op == RequestOp::kSlice ||
          request->op == RequestOp::kRollUp) {
        ExecResult direct = ExecuteRequest(*snapshot.cube, *request);
        if (direct.ok) {
          size_t page_size = 1 + rng.NextBelow(4);
          ParsedEnvelope opened =
              ParseEnvelope(handle.QueryOpen(request_json, page_size));
          ASSERT_TRUE(opened.ok) << request_json;
          OpenDrain drain;
          drain.cursor = static_cast<uint64_t>(
              opened.value.Get("cursor").ValueOrDie().AsNumber().ValueOrDie());
          drain.epoch = snapshot.epoch;
          EXPECT_EQ(opened.epoch, snapshot.epoch);
          drain.request_json = request_json;
          drain.expect_rows = DirectRowsJson(direct);
          drains.push_back(std::move(drain));
        }
      }
    }
  }

  // Finish every drain and check the replays.
  for (OpenDrain& drain : drains) {
    while (!drain.done) pull_page(drain);
    EXPECT_EQ(json::SerializeJson(JsonValue(drain.rows)), drain.expect_rows)
        << drain.request_json;
  }
  EXPECT_EQ(server.epoch(), static_cast<uint64_t>(kEpochs));
  EXPECT_GE(drains.size(), 4u);
  EXPECT_GT(answers_compared, 100u);
  EXPECT_EQ(server.open_sessions(), 0u);
}

// --------------------------------------------------------------- TCP mode

// Differential fuzz of the TCP path: the same seeded random requests served
// through a real CubeClient and TcpServer across two epoch publishes. Every
// one-shot — the first (cold) answer and the repeat (cached) answer — must
// be byte-identical to direct traversal of the current snapshot, and cursor
// drains opened over the socket must replay exactly the direct rows at the
// epoch they pinned.
TEST(ServerFuzzTest, TcpWireMatchesDirectAcrossPublishStorm) {
  FuzzWorld world;
  Rng rng(kSeed ^ 0xb141);
  QueryServer server(BuildFuzzCube(world, rng, 400));
  TcpServer tcp(&server);
  ASSERT_TRUE(tcp.Start(0).ok());
  client::Endpoint endpoint;
  endpoint.port = static_cast<uint16_t>(tcp.port());
  client::CubeClient wire(endpoint);

  auto call = [&wire](const std::string& request_json) {
    auto response = wire.Call(request_json);
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? *response : std::string();
  };
  // Opens a cursor and drains it to exhaustion; returns the concatenated
  // rows, asserting every page reports \p want_epoch.
  auto drain = [&](const std::string& query, size_t page_size,
                   uint64_t want_epoch) {
    ParsedEnvelope opened = ParseEnvelope(
        call("{\"op\":\"query_open\",\"query\":" + query +
             ",\"page_size\":" + std::to_string(page_size) + "}"));
    EXPECT_TRUE(opened.ok) << query;
    if (!opened.ok) return std::string();
    EXPECT_EQ(opened.epoch, want_epoch);
    uint64_t cursor = static_cast<uint64_t>(
        opened.value.Get("cursor").ValueOrDie().AsNumber().ValueOrDie());
    JsonArray rows;
    for (;;) {
      ParsedEnvelope page = ParseEnvelope(
          call("{\"op\":\"query_next\",\"cursor\":" +
               std::to_string(cursor) + "}"));
      EXPECT_TRUE(page.ok) << query;
      if (!page.ok) break;
      EXPECT_EQ(page.epoch, want_epoch) << "cursor lost its pinned snapshot";
      const JsonArray* got = page.value.Get("rows").ValueOrDie().AsArray();
      EXPECT_NE(got, nullptr);
      if (got == nullptr) break;
      rows.insert(rows.end(), got->begin(), got->end());
      if (page.value.Get("done").ValueOrDie().AsBool().ValueOrDie()) break;
    }
    return json::SerializeJson(JsonValue(rows));
  };

  int publishes_left = 2;
  uint64_t drains_compared = 0;
  constexpr int kTcpQueries = 250;
  for (int i = 0; i < kTcpQueries; ++i) {
    if (publishes_left > 0 && i > 0 && i % (kTcpQueries / 3) == 0) {
      std::vector<std::pair<std::vector<std::string>, Measure>> batch;
      for (int t = 0; t < 8; ++t) {
        batch.emplace_back(RandomKeyPath(world, rng),
                           static_cast<Measure>(rng.NextInRange(1, 50)));
      }
      ASSERT_TRUE(server.ApplyUpdate(batch).ok());
      --publishes_left;
    }

    const std::string request_json = RandomRequestJson(world, rng);
    auto request = ParseRequest(request_json);
    ASSERT_TRUE(request.ok()) << request_json;
    EpochCubeStore::Snapshot snapshot = server.store().snapshot();

    for (int repeat = 0; repeat < 2; ++repeat) {
      ExpectResponseMatchesDirect(call(request_json), *snapshot.cube,
                                  *request, request_json);
    }

    if (i % 10 == 0 && (request->op == RequestOp::kSlice ||
                        request->op == RequestOp::kRollUp)) {
      ExecResult direct = ExecuteRequest(*snapshot.cube, *request);
      if (!direct.ok) continue;
      size_t page_size = 1 + rng.NextBelow(8);
      EXPECT_EQ(drain(request_json, page_size, snapshot.epoch),
                DirectRowsJson(direct))
          << request_json;
      ++drains_compared;
    }
  }

  EXPECT_GT(drains_compared, 5u);
  EXPECT_EQ(server.epoch(), 2u);
  EXPECT_EQ(server.open_sessions(), 0u);

  wire.Close();
  tcp.Stop();
}

// ----------------------------------------------------------- router mode

// Differential fuzz of the replica fan-out path: the same ~500 seeded
// requests, but routed client -> TCP -> router -> TCP -> one of three
// replica processes bootstrapped from the publisher's epoch-0 snapshot
// file. The publisher publishes three more epochs mid-sweep (each spooled
// and load_snapshot-notified to the live replicas), cursor sessions drain
// one page per iteration across those publishes, and one replica is killed
// cold mid-run — every response must stay byte-identical to executing the
// request directly against the publisher's snapshot, including the pages
// that fail over to another replica.
TEST(ServerFuzzTest, RouterModeMatchesDirectTraversal) {
  FuzzWorld world;
  Rng rng(kSeed ^ 0x707e);
  fs::path spool = fs::temp_directory_path() / "scdwarf_fuzz_router_spool";
  fs::remove_all(spool);
  fs::create_directories(spool);

  ServerOptions publisher_options;
  publisher_options.num_workers = 1;
  publisher_options.snapshot_dir = spool.string();
  QueryServer publisher(BuildFuzzCube(world, rng, 400), publisher_options);

  // Three replicas bootstrapped from the spooled epoch-0 file, each behind a
  // real socket. Index 1 dies mid-run.
  std::vector<std::unique_ptr<QueryServer>> replicas;
  std::vector<std::unique_ptr<TcpServer>> replica_tcps;
  std::vector<client::Endpoint> endpoints;
  const std::string epoch0 = (spool / replica::SnapshotFileName(0)).string();
  for (int i = 0; i < 3; ++i) {
    auto loaded = replica::LoadCubeSnapshot(epoch0);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ServerOptions replica_options;
    replica_options.num_workers = 1;
    replica_options.allow_snapshot_load = true;
    replica_options.initial_epoch = loaded->epoch;
    replicas.push_back(
        std::make_unique<QueryServer>(std::move(loaded->cube),
                                      replica_options));
    replica_tcps.push_back(std::make_unique<TcpServer>(replicas.back().get()));
    ASSERT_TRUE(replica_tcps.back()->Start(0).ok());
    client::Endpoint endpoint;
    endpoint.port = static_cast<uint16_t>(replica_tcps.back()->port());
    endpoints.push_back(endpoint);
  }

  replica::RouterOptions router_options;
  router_options.health_interval_ms = 0;  // driven manually below
  router_options.unhealthy_after = 1;
  replica::Router router(endpoints, router_options);
  ASSERT_EQ(router.CheckReplicasOnce(), 3u);
  TcpServer front(&router);
  ASSERT_TRUE(front.Start(0).ok());
  client::Endpoint front_endpoint;
  front_endpoint.port = static_cast<uint16_t>(front.port());
  client::CubeClient wire_client(front_endpoint);
  auto call = [&](const std::string& request_json) {
    auto response = wire_client.Call(request_json);
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? *response : std::string();
  };

  int dead_replica = -1;
  // Publishes spool a snapshot; the publisher then notifies the live
  // replicas synchronously, exactly like --notify does between processes.
  auto publish = [&](bool fresh_values) {
    std::vector<std::pair<std::vector<std::string>, Measure>> batch;
    for (int t = 0; t < 8; ++t) {
      batch.emplace_back(RandomKeyPath(world, rng),
                         static_cast<Measure>(rng.NextInRange(1, 50)));
    }
    if (fresh_values) {
      batch.emplace_back(
          std::vector<std::string>{"Mon", "StationNew", "AreaNew"},
          Measure{23});
    }
    auto epoch = publisher.ApplyUpdate(batch);
    ASSERT_TRUE(epoch.ok());
    const std::string path =
        (spool / replica::SnapshotFileName(*epoch)).string();
    for (int i = 0; i < 3; ++i) {
      if (i == dead_replica) continue;
      auto loaded_epoch = replicas[i]->LoadSnapshot(path);
      ASSERT_TRUE(loaded_epoch.ok()) << loaded_epoch.status();
    }
  };

  // Cursor sessions drain one page per iteration, across publishes and the
  // kill, each checked against direct rows on its pinned snapshot.
  struct RouterDrain {
    uint64_t cursor = 0;
    uint64_t epoch = 0;
    std::string request_json;
    std::string expect_rows;
    JsonArray rows;
    bool done = false;
  };
  std::vector<RouterDrain> drains;
  auto pull_page = [&](RouterDrain& drain) {
    ParsedEnvelope page = ParseEnvelope(
        call("{\"op\":\"query_next\",\"cursor\":" +
             std::to_string(drain.cursor) + "}"));
    ASSERT_TRUE(page.ok) << drain.request_json;
    EXPECT_EQ(page.epoch, drain.epoch) << "cursor lost its pinned snapshot";
    const JsonArray* got = page.value.Get("rows").ValueOrDie().AsArray();
    ASSERT_NE(got, nullptr);
    drain.rows.insert(drain.rows.end(), got->begin(), got->end());
    if (page.value.Get("done").ValueOrDie().AsBool().ValueOrDie()) {
      drain.done = true;
    }
  };

  uint64_t rows_compared = 0;
  for (int i = 0; i < kQueries; ++i) {
    if (i == 250) {
      // Kill one replica cold: connections die mid-use, open cursors pinned
      // to it must fail over, one-shots must retry an alternate.
      dead_replica = 1;
      replica_tcps[1]->Stop();
    }
    if (i > 0 && i % 125 == 0) {
      publish(/*fresh_values=*/i == 375);
    }

    const std::string request_json = RandomRequestJson(world, rng);
    auto request = ParseRequest(request_json);
    ASSERT_TRUE(request.ok()) << request_json;
    EpochCubeStore::Snapshot snapshot = publisher.store().snapshot();

    // One-shot through client -> router -> replica, byte-identical to
    // direct traversal of the publisher's current snapshot.
    ExpectResponseMatchesDirect(call(request_json), *snapshot.cube, *request,
                                request_json);

    for (RouterDrain& drain : drains) {
      if (!drain.done) pull_page(drain);
    }
    if (i % 20 == 0 &&
        (request->op == RequestOp::kSlice ||
         request->op == RequestOp::kRollUp)) {
      ExecResult direct = ExecuteRequest(*snapshot.cube, *request);
      if (direct.ok) {
        size_t page_size = 1 + rng.NextBelow(4);
        ParsedEnvelope opened = ParseEnvelope(
            call("{\"op\":\"query_open\",\"query\":" + request_json +
                 ",\"page_size\":" + std::to_string(page_size) + "}"));
        ASSERT_TRUE(opened.ok) << request_json;
        EXPECT_EQ(opened.epoch, snapshot.epoch);
        RouterDrain drain;
        drain.cursor = static_cast<uint64_t>(
            opened.value.Get("cursor").ValueOrDie().AsNumber().ValueOrDie());
        drain.epoch = snapshot.epoch;
        drain.request_json = request_json;
        drain.expect_rows = DirectRowsJson(direct);
        drains.push_back(std::move(drain));
      }
    }
  }

  for (RouterDrain& drain : drains) {
    while (!drain.done) pull_page(drain);
    EXPECT_EQ(json::SerializeJson(JsonValue(drain.rows)), drain.expect_rows)
        << drain.request_json;
    ++rows_compared;
  }
  EXPECT_EQ(publisher.epoch(), 3u);
  EXPECT_GE(drains.size(), 6u);
  EXPECT_GT(rows_compared, 5u);
  EXPECT_EQ(router.healthy_replicas(), 2u);  // the kill was observed
  EXPECT_EQ(router.open_sessions(), 0u);

  wire_client.Close();
  front.Stop();
  for (auto& tcp : replica_tcps) tcp->Stop();
  fs::remove_all(spool);
}

}  // namespace
}  // namespace scdwarf::server
