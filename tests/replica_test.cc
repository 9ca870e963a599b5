// Tests for the replica fan-out subsystem (src/replica + src/client): the
// snapshot codec round-trip (including arenas with dead merge slots and a
// corruption sweep), the new wire ops (ping, metrics_text, epoch-pinned
// query_open), the client library, the replica serving process, and the
// shard router's routing + mid-drain failover.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "client/client.h"
#include "common/rng.h"
#include "dwarf/builder.h"
#include "dwarf/update.h"
#include "json/json_parser.h"
#include "json/json_value.h"
#include "replica/replica.h"
#include "replica/router.h"
#include "replica/snapshot.h"
#include "server/query_server.h"
#include "server/tcp_server.h"
#include "server/wire.h"

namespace scdwarf::replica {
namespace {

namespace fs = std::filesystem;

using dwarf::Measure;
using json::JsonValue;
using server::ExecResult;
using server::MakeResponse;
using server::ParseRequest;
using server::QueryServer;
using server::ServerHandle;
using server::ServerOptions;

const std::vector<std::string>& Days() {
  static const auto* v = new std::vector<std::string>{
      "Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"};
  return *v;
}

const std::vector<std::string>& Stations() {
  static const auto* v = new std::vector<std::string>{
      "Station0", "Station1", "Station2", "Station3", "Station4", "Station5"};
  return *v;
}

dwarf::CubeSchema TestSchema() {
  std::vector<dwarf::DimensionSpec> specs;
  specs.emplace_back("Day");
  specs.emplace_back("Station");
  return dwarf::CubeSchema("replica_test", std::move(specs), "bikes",
                           dwarf::AggFn::kSum);
}

std::vector<std::string> RandomKeys(Rng& rng) {
  return {Days()[rng.NextBelow(Days().size())],
          Stations()[rng.NextBelow(Stations().size())]};
}

dwarf::DwarfCube BuildCube(uint64_t seed, int tuples) {
  Rng rng(seed);
  dwarf::DwarfBuilder builder(TestSchema());
  for (int i = 0; i < tuples; ++i) {
    EXPECT_TRUE(builder
                    .AddTuple(RandomKeys(rng),
                              static_cast<Measure>(rng.NextInRange(1, 40)))
                    .ok());
  }
  return std::move(builder).Build().ValueOrDie();
}

std::vector<std::pair<std::vector<std::string>, Measure>> RandomBatch(
    Rng& rng, int size) {
  std::vector<std::pair<std::vector<std::string>, Measure>> batch;
  for (int i = 0; i < size; ++i) {
    batch.emplace_back(RandomKeys(rng),
                       static_cast<Measure>(rng.NextInRange(1, 40)));
  }
  return batch;
}

/// Fresh scratch directory under the system temp dir.
fs::path ScratchDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() / ("scdwarf_replica_test_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
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

/// Requests exercising every one-shot op against the 2-dim test schema.
std::vector<std::string> DifferentialRequests() {
  return {
      R"({"op":"point","keys":["Mon","Station1"]})",
      R"({"op":"point","keys":[null,"Station2"]})",
      R"({"op":"point","keys":["NoSuchDay","Station0"]})",
      R"({"op":"slice","dim":"Day","key":"Tue"})",
      R"({"op":"slice","dim":"Station","key":"Station3"})",
      R"({"op":"rollup","dims":["Day"]})",
      R"({"op":"rollup","dims":["Station","Day"]})",
      R"({"op":"aggregate","predicates":[{"kind":"all"},{"kind":"set","keys":["Station1","Station4"]}]})",
  };
}

/// Asserts both cubes answer every differential request byte-identically.
void ExpectSameAnswers(const dwarf::DwarfCube& a, const dwarf::DwarfCube& b) {
  for (const std::string& request_json : DifferentialRequests()) {
    auto request = ParseRequest(request_json);
    ASSERT_TRUE(request.ok()) << request_json;
    ExecResult left = server::ExecuteRequest(a, *request);
    ExecResult right = server::ExecuteRequest(b, *request);
    EXPECT_EQ(left.ok, right.ok) << request_json;
    EXPECT_EQ(left.payload_json, right.payload_json) << request_json;
  }
}

struct Envelope {
  bool ok = false;
  uint64_t epoch = 0;
  std::string code;
  JsonValue value;
};

Envelope Parse(const std::string& response) {
  Envelope env;
  auto root = json::ParseJson(response);
  EXPECT_TRUE(root.ok()) << response;
  if (!root.ok()) return env;
  env.value = *root;
  env.ok = root->Get("ok").ValueOrDie().AsBool().ValueOrDie();
  env.epoch = static_cast<uint64_t>(
      root->Get("epoch").ValueOrDie().AsNumber().ValueOrDie());
  if (auto code = root->Get("code"); code.ok()) {
    env.code = code->AsString().ValueOrDie();
  }
  return env;
}

/// The JSON-model reading of a response envelope: parses the whole
/// response, rows included, and reads the fields by name. The oracle that
/// server::ReadEnvelope, which reads only the fixed head and trailer, is
/// checked against.
struct ModelEnvelope {
  bool valid = false;  ///< the response parsed and carried a boolean "ok"
  bool ok = false;
  uint64_t epoch = 0;
  bool cached = false;
  std::string code;
  bool has_cursor = false;
  uint64_t cursor = 0;
  bool done = false;
};

ModelEnvelope ReadEnvelopeThroughJsonModel(const std::string& raw) {
  ModelEnvelope env;
  Result<JsonValue> root = json::ParseJson(raw);
  if (!root.ok()) return env;
  Result<JsonValue> ok = root->Get("ok");
  if (!ok.ok() || !ok->AsBool().ok()) return env;
  env.valid = true;
  env.ok = *ok->AsBool();
  if (auto epoch = root->Get("epoch"); epoch.ok() && epoch->AsNumber().ok()) {
    env.epoch = static_cast<uint64_t>(*epoch->AsNumber());
  }
  if (auto cached = root->Get("cached"); cached.ok() && cached->AsBool().ok()) {
    env.cached = *cached->AsBool();
  }
  if (auto code = root->Get("code"); code.ok() && code->AsString().ok()) {
    env.code = *code->AsString();
  }
  if (auto cursor = root->Get("cursor");
      cursor.ok() && cursor->AsNumber().ok() && *cursor->AsNumber() >= 0) {
    env.cursor = static_cast<uint64_t>(*cursor->AsNumber());
    env.has_cursor = true;
  }
  if (auto done = root->Get("done"); done.ok() && done->AsBool().ok()) {
    env.done = *done->AsBool();
  }
  return env;
}

/// A port nothing listens on: a listener is bound, then closed.
uint16_t DeadPort() {
  QueryServer server(BuildCube(1, 10));
  server::TcpServer tcp(&server);
  EXPECT_TRUE(tcp.Start(0).ok());
  const uint16_t port = static_cast<uint16_t>(tcp.port());
  tcp.Stop();
  return port;
}

TEST(EnvelopeTest, ReadEnvelopeMatchesJsonModel) {
  std::vector<std::string> responses;
  ServerOptions options;
  options.num_workers = 1;
  options.max_sessions = 3;
  options.retain_epochs = 1;
  QueryServer server(BuildCube(13, 80), options);
  ServerHandle handle(&server);

  // One-shot answers, cold and cached, and one-shot errors.
  for (const std::string& request_json : DifferentialRequests()) {
    responses.push_back(handle.Call(request_json));
    responses.push_back(handle.Call(request_json));
  }
  responses.push_back(handle.Call("{not json"));
  responses.push_back(handle.Call(R"({"op":"slice","dim":"Nope","key":"x"})"));

  // A cursor session drained page by page: done false, then done true.
  const std::string rollup = R"({"op":"rollup","dims":["Station","Day"]})";
  responses.push_back(handle.QueryOpen(rollup, 4));
  const uint64_t cursor =
      ReadEnvelopeThroughJsonModel(responses.back()).cursor;
  for (;;) {
    responses.push_back(handle.QueryNext(cursor));
    const ModelEnvelope page = ReadEnvelopeThroughJsonModel(responses.back());
    ASSERT_TRUE(page.ok);
    if (page.done) break;
  }
  // A page with no rows: the cursor over an unknown slice key.
  responses.push_back(
      handle.QueryOpen(R"({"op":"slice","dim":"Day","key":"NoSuchDay"})", 4));
  responses.push_back(
      handle.QueryNext(ReadEnvelopeThroughJsonModel(responses.back()).cursor));
  ASSERT_NE(responses.back().find("\"rows\":[]"), std::string::npos);
  // query_close of an open and of an unknown cursor; query_next of an
  // unknown cursor.
  responses.push_back(handle.QueryOpen(rollup, 4));
  const uint64_t closing =
      ReadEnvelopeThroughJsonModel(responses.back()).cursor;
  responses.push_back(handle.Call(R"({"op":"query_close","cursor":)" +
                                  std::to_string(closing) + "}"));
  responses.push_back(handle.Call(R"({"op":"query_close","cursor":999})"));
  responses.push_back(handle.QueryNext(999));
  // too_many_sessions: three sessions fill the table, the fourth is refused.
  for (int i = 0; i < 4; ++i) responses.push_back(handle.QueryOpen(rollup, 4));
  // epoch_gone: epoch 0 left the one-epoch retention window.
  Rng rng(131);
  ASSERT_TRUE(server.ApplyUpdate(RandomBatch(rng, 4)).ok());
  responses.push_back(handle.Call(R"({"op":"query_open","query":)" + rollup +
                                  R"(,"page_size":4,"epoch":0})"));
  for (const char* op : {"ping", "stats", "metrics"}) {
    responses.push_back(handle.Call(std::string(R"({"op":")") + op + "\"}"));
  }

  // overloaded: a queue depth of zero admits nothing.
  ServerOptions closed_options;
  closed_options.max_queue_depth = 0;
  QueryServer closed(BuildCube(13, 20), closed_options);
  responses.push_back(ServerHandle(&closed).Call(DifferentialRequests()[0]));

  // The router's own answers: no_healthy_replica (its only replica is
  // down), too_many_sessions (a table of zero), ping, stats and metrics.
  client::Endpoint dead;
  dead.port = DeadPort();
  RouterOptions router_options;
  router_options.health_interval_ms = 0;
  router_options.max_sessions = 0;
  Router router({dead}, router_options);
  responses.push_back(router.HandleFrame(DifferentialRequests()[0]));
  responses.push_back(router.HandleFrame(
      R"({"op":"query_open","query":)" + rollup + R"(,"page_size":4})"));
  for (const char* op : {"ping", "stats", "metrics"}) {
    responses.push_back(
        router.HandleFrame(std::string(R"({"op":")") + op + "\"}"));
  }

  std::set<std::string> codes;
  int pages_done = 0;
  int pages_not_done = 0;
  int cached = 0;
  for (const std::string& response : responses) {
    SCOPED_TRACE(response.substr(0, 160));
    const ModelEnvelope model = ReadEnvelopeThroughJsonModel(response);
    ASSERT_TRUE(model.valid);
    Result<server::Envelope> env = server::ReadEnvelope(response);
    ASSERT_TRUE(env.ok()) << env.status();
    EXPECT_EQ(env->ok, model.ok);
    EXPECT_EQ(env->epoch, model.epoch);
    EXPECT_EQ(env->cached, model.cached);
    EXPECT_EQ(env->code, model.code);
    EXPECT_EQ(env->has_cursor, model.has_cursor);
    EXPECT_EQ(env->cursor, model.cursor);
    EXPECT_EQ(env->done, model.done);
    if (env->has_cursor) {
      EXPECT_EQ(response.substr(env->cursor_pos, env->cursor_len),
                std::to_string(env->cursor));
    }
    if (!model.code.empty()) codes.insert(model.code);
    if (response.find("\"rows\":") != std::string::npos && env->has_cursor) {
      ++(env->done ? pages_done : pages_not_done);
    }
    cached += env->cached ? 1 : 0;
  }
  // Every shape the list is meant to cover was produced.
  for (const char* code :
       {"parse_error", "not_found", "overloaded", "too_many_sessions",
        "epoch_gone", "no_healthy_replica"}) {
    EXPECT_EQ(codes.count(code), 1u) << code;
  }
  EXPECT_EQ(pages_done, 2);
  EXPECT_GT(pages_not_done, 1);
  EXPECT_GT(cached, 0);
}

// ------------------------------------------------------------ snapshot codec

TEST(SnapshotCodecTest, FileNameAndListing) {
  EXPECT_EQ(SnapshotFileName(0), "epoch-00000000000000000000.cf");
  EXPECT_EQ(SnapshotFileName(7), "epoch-00000000000000000007.cf");
  EXPECT_EQ(SnapshotFileName(12345678901234ull),
            "epoch-00000012345678901234.cf");

  EXPECT_FALSE(ListSnapshots("/no/such/directory/scdwarf").ok());

  fs::path dir = ScratchDir("listing");
  auto empty = ListSnapshots(dir.string());
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  dwarf::DwarfCube cube = BuildCube(1, 20);
  // Written out of order; listed ascending. Strays are ignored.
  for (uint64_t epoch : {5u, 1u, 3u}) {
    ASSERT_TRUE(WriteCubeSnapshot(cube, epoch,
                                  (dir / SnapshotFileName(epoch)).string())
                    .ok());
  }
  WriteFileBytes(dir / "not-a-snapshot.txt", "hello");
  WriteFileBytes(dir / "epoch-bogus.cf", "hello");
  auto listed = ListSnapshots(dir.string());
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 3u);
  EXPECT_EQ((*listed)[0].epoch, 1u);
  EXPECT_EQ((*listed)[1].epoch, 3u);
  EXPECT_EQ((*listed)[2].epoch, 5u);
  EXPECT_EQ((*listed)[2].path, (dir / SnapshotFileName(5)).string());
  fs::remove_all(dir);
}

TEST(SnapshotCodecTest, RoundTripPreservesStructureAndAnswers) {
  fs::path dir = ScratchDir("roundtrip");
  dwarf::DwarfCube cube = BuildCube(2, 60);
  const std::string path = (dir / SnapshotFileName(3)).string();
  ASSERT_TRUE(WriteCubeSnapshot(cube, 3, path).ok());

  auto loaded = LoadCubeSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->epoch, 3u);
  EXPECT_TRUE(loaded->cube.StructurallyEquals(cube));
  EXPECT_EQ(loaded->cube.num_nodes(), cube.num_nodes());
  EXPECT_EQ(loaded->cube.stats().tuple_count, cube.stats().tuple_count);
  EXPECT_EQ(loaded->cube.stats().source_tuple_count,
            cube.stats().source_tuple_count);
  ExpectSameAnswers(cube, loaded->cube);

  // The snapshot file is immutable input: loading must not change a byte.
  std::string before = ReadFileBytes(path);
  auto again = LoadCubeSnapshot(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ReadFileBytes(path), before);
  fs::remove_all(dir);
}

TEST(SnapshotCodecTest, RoundTripAfterIncrementalMerges) {
  fs::path dir = ScratchDir("merged");
  QueryServer server(BuildCube(3, 50));
  Rng rng(33);
  for (int round = 0; round < 3; ++round) {
    auto batch = RandomBatch(rng, 5);
    // Brand-new dictionary values force real merge work each round.
    batch.emplace_back(
        std::vector<std::string>{"Mon", "Fresh" + std::to_string(round)},
        Measure{9});
    ASSERT_TRUE(server.ApplyUpdate(batch).ok());
  }
  auto snapshot = server.store().snapshot();
  ASSERT_GT(snapshot.cube->arena_chunks(), 1u);  // dead slots exist

  const std::string path = (dir / SnapshotFileName(snapshot.epoch)).string();
  ASSERT_TRUE(WriteCubeSnapshot(*snapshot.cube, snapshot.epoch, path).ok());
  auto loaded = LoadCubeSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->epoch, snapshot.epoch);
  // Ids survive: dead merge slots are serialized too, so the arena extent is
  // preserved even though the loaded cube holds a single chunk.
  EXPECT_EQ(loaded->cube.num_nodes(), snapshot.cube->num_nodes());
  EXPECT_TRUE(loaded->cube.StructurallyEquals(*snapshot.cube));
  ExpectSameAnswers(*snapshot.cube, loaded->cube);
  fs::remove_all(dir);
}

// Snapshots persist each dimension's ordered flag; the load path
// recomputes the rank views from the dictionaries, so a
// freshly-bootstrapped replica answers value-range requests identically.
TEST(SnapshotCodecTest, OrderedFlagsSurviveRoundTrip) {
  std::vector<dwarf::DimensionSpec> specs;
  specs.emplace_back("Day", "", /*ordered_in=*/true);
  specs.emplace_back("Station");
  dwarf::DwarfBuilder builder(dwarf::CubeSchema("ordered", std::move(specs),
                                                "bikes", dwarf::AggFn::kSum));
  ASSERT_TRUE(builder.AddTuple({"Wed", "Station2"}, 5).ok());
  ASSERT_TRUE(builder.AddTuple({"Mon", "Station0"}, 7).ok());
  ASSERT_TRUE(builder.AddTuple({"Tue", "Station1"}, 9).ok());
  dwarf::DwarfCube cube = std::move(builder).Build().ValueOrDie();

  fs::path dir = ScratchDir("ordered");
  const std::string path = (dir / SnapshotFileName(1)).string();
  ASSERT_TRUE(WriteCubeSnapshot(cube, 1, path).ok());
  auto loaded = LoadCubeSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->cube.schema().dimensions()[0].ordered);
  EXPECT_FALSE(loaded->cube.schema().dimensions()[1].ordered);
  ASSERT_TRUE(loaded->cube.dictionary(0).has_rank_view());

  const std::string ranged =
      R"({"op":"aggregate","predicates":[)"
      R"({"kind":"range","lo":"Mon","hi":"Tue"},{"kind":"all"}]})";
  auto request = ParseRequest(ranged);
  ASSERT_TRUE(request.ok());
  ExecResult original = server::ExecuteRequest(cube, *request);
  ExecResult replica = server::ExecuteRequest(loaded->cube, *request);
  ASSERT_TRUE(original.ok);
  EXPECT_EQ(original.payload_json, replica.payload_json);
  fs::remove_all(dir);
}

// v3 files are direct flat-arena images: loading validates the raw arrays
// and points the cube at the mapping — one new arena, a single chunk, stats
// straight from the header — instead of rebuilding node by node.
TEST(SnapshotCodecTest, V3ImageLoadsByValidateAndPoint) {
  fs::path dir = ScratchDir("v3image");
  dwarf::DwarfCube cube = BuildCube(0x33, 50);
  const std::string path = (dir / SnapshotFileName(9)).string();
  ASSERT_TRUE(WriteCubeSnapshot(cube, 9, path).ok());
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 12u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[8]), 3u);  // version field

  const int64_t arenas_before = dwarf::NodeArena::live_instances();
  auto loaded = LoadCubeSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->epoch, 9u);
  EXPECT_EQ(loaded->cube.arena_chunks(), 1u);
  EXPECT_EQ(dwarf::NodeArena::live_instances(), arenas_before + 1);
  // Stats come from the header block, not a rebuild walk.
  EXPECT_EQ(loaded->cube.stats().node_count, cube.stats().node_count);
  EXPECT_EQ(loaded->cube.stats().cell_count, cube.stats().cell_count);
  EXPECT_EQ(loaded->cube.stats().coalesced_all_count,
            cube.stats().coalesced_all_count);
  EXPECT_EQ(loaded->cube.stats().tuple_count, cube.stats().tuple_count);
  EXPECT_EQ(loaded->cube.stats().approx_bytes, cube.stats().approx_bytes);
  EXPECT_TRUE(loaded->cube.StructurallyEquals(cube));
  ExpectSameAnswers(cube, loaded->cube);
  fs::remove_all(dir);
}

TEST(SnapshotCodecTest, TruncatedAndCorruptBytesNeverCrash) {
  fs::path dir = ScratchDir("corrupt");
  dwarf::DwarfCube cube = BuildCube(4, 12);
  const std::string path = (dir / SnapshotFileName(1)).string();
  ASSERT_TRUE(WriteCubeSnapshot(cube, 1, path).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);

  // Every strict prefix must fail cleanly (the trailer is never reached).
  const fs::path victim = dir / "victim.cf";
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(victim, bytes.substr(0, len));
    auto loaded = LoadCubeSnapshot(victim.string());
    EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
  }

  // Single-byte corruption anywhere must never crash; it either fails or
  // (e.g. a flipped measure byte) still parses as a well-formed snapshot,
  // which a full roll-up then walks end to end.
  for (size_t pos = 0; pos < bytes.size(); pos += 7) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x5a);
    WriteFileBytes(victim, flipped);
    auto loaded = LoadCubeSnapshot(victim.string());
    if (loaded.ok()) (void)dwarf::ExtractBaseTuples(loaded->cube);
  }

  // Magic and trailer damage is always detected.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  WriteFileBytes(victim, bad_magic);
  EXPECT_FALSE(LoadCubeSnapshot(victim.string()).ok());
  std::string bad_trailer = bytes;
  bad_trailer[bad_trailer.size() - 1] =
      static_cast<char>(bad_trailer.back() ^ 0xff);
  WriteFileBytes(victim, bad_trailer);
  EXPECT_FALSE(LoadCubeSnapshot(victim.string()).ok());

  // Version 3 is the only one the loader reads: an older or newer version
  // field is an InvalidArgument, not a parse attempt.
  for (char version : {2, 99}) {
    std::string other_version = bytes;
    other_version[8] = version;
    WriteFileBytes(victim, other_version);
    EXPECT_TRUE(LoadCubeSnapshot(victim.string()).status().IsInvalidArgument())
        << "version " << static_cast<int>(version);
  }

  EXPECT_FALSE(LoadCubeSnapshot((dir / "missing.cf").string()).ok());
  fs::remove_all(dir);
}

// The row cursor decodes cell keys unchecked, so a key past its level's
// dictionary must fail the load. The file's last cell is the last cell of
// its node, so raising its key keeps that node's cells sorted.
TEST(SnapshotCodecTest, KeyPastItsDictionaryIsRejected) {
  fs::path dir = ScratchDir("keybound");
  dwarf::DwarfCube cube = BuildCube(8, 30);
  const fs::path path = dir / SnapshotFileName(1);
  ASSERT_TRUE(WriteCubeSnapshot(cube, 1, path.string()).ok());
  ASSERT_TRUE(LoadCubeSnapshot(path.string()).ok());
  std::string bytes = ReadFileBytes(path);
  const size_t trailer_bytes = 8;
  const size_t last_key = bytes.size() - trailer_bytes -
                          sizeof(dwarf::DwarfCell) +
                          offsetof(dwarf::DwarfCell, key);
  const dwarf::DimKey past = 1000000;
  std::memcpy(&bytes[last_key], &past, sizeof(past));
  WriteFileBytes(path, bytes);
  auto loaded = LoadCubeSnapshot(path.string());
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
  fs::remove_all(dir);
}

// ------------------------------------------------------------------ wire ops

TEST(WireOpsTest, PingReportsEpochUptimeSessions) {
  QueryServer server(BuildCube(5, 40));
  ServerHandle handle(&server);

  Envelope env = Parse(handle.Call(R"({"op":"ping"})"));
  ASSERT_TRUE(env.ok);
  EXPECT_EQ(env.epoch, 0u);
  EXPECT_EQ(env.value.Get("epoch").ValueOrDie().AsNumber().ValueOrDie(), 0.0);
  EXPECT_GE(env.value.Get("uptime_s").ValueOrDie().AsNumber().ValueOrDie(),
            0.0);
  EXPECT_EQ(env.value.Get("sessions").ValueOrDie().AsNumber().ValueOrDie(),
            0.0);

  Envelope opened =
      Parse(handle.QueryOpen(R"({"op":"rollup","dims":["Day"]})", 2));
  ASSERT_TRUE(opened.ok);
  Envelope after = Parse(handle.Call(R"({"op":"ping"})"));
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.value.Get("sessions").ValueOrDie().AsNumber().ValueOrDie(),
            1.0);
}

TEST(WireOpsTest, MetricsTextRendersPrometheus) {
  QueryServer server(BuildCube(6, 40));
  ServerHandle handle(&server);
  (void)handle.Call(R"({"op":"point","keys":["Mon","Station1"]})");

  const std::string text = server.MetricsText();
  EXPECT_NE(text.find("# TYPE server_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP server_requests_total"), std::string::npos);
  EXPECT_NE(text.find("server_request_us{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("server_sessions_open "), std::string::npos);

  // The same text is reachable over the wire.
  Envelope env = Parse(handle.Call(R"({"op":"metrics_text"})"));
  ASSERT_TRUE(env.ok);
  std::string wired = env.value.Get("text").ValueOrDie().AsString().ValueOrDie();
  EXPECT_NE(wired.find("server_requests_total"), std::string::npos);
}

// No client can swap a server's cube: a load_snapshot frame is an unknown op
// on a server and on the router alike.
TEST(WireOpsTest, LoadSnapshotGatedOffByDefault) {
  const std::string frame = R"({"op":"load_snapshot","path":"/nonexistent.cf"})";
  QueryServer server(BuildCube(7, 30));
  ServerHandle handle(&server);
  Envelope env = Parse(handle.Call(frame));
  EXPECT_FALSE(env.ok);
  EXPECT_EQ(env.code, "invalid_argument");
  EXPECT_EQ(server.epoch(), 0u);

  RouterOptions options;
  options.health_interval_ms = 0;
  Router router({}, options);
  Envelope routed = Parse(router.HandleFrame(frame));
  EXPECT_FALSE(routed.ok);
  EXPECT_EQ(routed.code, "invalid_argument");
}

TEST(WireOpsTest, ReplicaLoadsSnapshotsAndRejectsStaleEpochs) {
  fs::path dir = ScratchDir("load");
  ServerOptions publisher_options;
  publisher_options.num_workers = 1;
  publisher_options.snapshot_dir = dir.string();
  QueryServer publisher(BuildCube(8, 50), publisher_options);
  // The initial cube spools as epoch 0 at construction.
  const std::string epoch0 = (dir / SnapshotFileName(0)).string();
  ASSERT_TRUE(fs::exists(epoch0));

  auto bootstrap = LoadCubeSnapshot(epoch0);
  ASSERT_TRUE(bootstrap.ok());
  ServerOptions replica_options;
  replica_options.num_workers = 1;
  replica_options.initial_epoch = bootstrap->epoch;
  QueryServer replica(std::move(bootstrap->cube), replica_options);

  Rng rng(88);
  ASSERT_TRUE(publisher.ApplyUpdate(RandomBatch(rng, 6)).ok());
  const std::string epoch1 = (dir / SnapshotFileName(1)).string();
  ASSERT_TRUE(fs::exists(epoch1));

  Result<uint64_t> loaded = replica.LoadSnapshot(epoch1);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, 1u);
  EXPECT_EQ(replica.epoch(), 1u);

  // A stale epoch is rejected, not reapplied; PollOnce relies on this.
  Result<uint64_t> replay = replica.LoadSnapshot(epoch1);
  EXPECT_FALSE(replay.ok());
  EXPECT_TRUE(replay.status().IsFailedPrecondition()) << replay.status();
  EXPECT_EQ(replica.epoch(), 1u);

  // Replica answers now match the publisher's current cube byte-for-byte.
  ExpectSameAnswers(*publisher.store().snapshot().cube,
                    *replica.store().snapshot().cube);
  fs::remove_all(dir);
}

TEST(WireOpsTest, EpochPinnedOpenServesRetainedEpochsAndReportsGone) {
  ServerOptions options;
  options.num_workers = 1;
  options.retain_epochs = 2;
  QueryServer server(BuildCube(9, 60), options);
  ServerHandle handle(&server);
  Rng rng(99);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server.ApplyUpdate(RandomBatch(rng, 4)).ok());
  }
  ASSERT_EQ(server.epoch(), 3u);  // retained: {2, 3}

  // Open pinned to the retained previous epoch and drain it fully.
  const std::string query = R"({"op":"rollup","dims":["Station"]})";
  Envelope opened = Parse(handle.Call(
      R"({"op":"query_open","query":)" + query + R"(,"page_size":4,"epoch":2})"));
  ASSERT_TRUE(opened.ok);
  EXPECT_EQ(opened.epoch, 2u);
  uint64_t cursor = static_cast<uint64_t>(
      opened.value.Get("cursor").ValueOrDie().AsNumber().ValueOrDie());
  auto pinned = server.store().SnapshotAt(2);
  ASSERT_TRUE(pinned.ok());
  ExecResult direct =
      server::ExecuteRequest(*pinned->cube, *ParseRequest(query));
  ASSERT_TRUE(direct.ok);
  json::JsonArray rows;
  for (;;) {
    Envelope page = Parse(handle.QueryNext(cursor));
    ASSERT_TRUE(page.ok);
    EXPECT_EQ(page.epoch, 2u);
    const json::JsonArray* got =
        page.value.Get("rows").ValueOrDie().AsArray();
    ASSERT_NE(got, nullptr);
    rows.insert(rows.end(), got->begin(), got->end());
    if (page.value.Get("done").ValueOrDie().AsBool().ValueOrDie()) break;
  }
  auto direct_payload = json::ParseJson(direct.payload_json);
  ASSERT_TRUE(direct_payload.ok());
  EXPECT_EQ(json::SerializeJson(JsonValue(std::move(rows))),
            json::SerializeJson(direct_payload->Get("rows").ValueOrDie()));

  // Epoch 1 aged out of the retention window.
  Envelope gone = Parse(handle.Call(
      R"({"op":"query_open","query":)" + query + R"(,"page_size":4,"epoch":1})"));
  EXPECT_FALSE(gone.ok);
  EXPECT_EQ(gone.code, "epoch_gone");
}

// -------------------------------------------------------------------- client

TEST(ClientTest, ParseEndpointAcceptsAndRejects) {
  auto full = client::ParseEndpoint("127.0.0.1:9000");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->host, "127.0.0.1");
  EXPECT_EQ(full->port, 9000);
  EXPECT_EQ(full->ToString(), "127.0.0.1:9000");

  // Host defaults to loopback when omitted, with or without the colon.
  auto colon = client::ParseEndpoint(":9000");
  ASSERT_TRUE(colon.ok());
  EXPECT_EQ(colon->host, "127.0.0.1");
  auto bare = client::ParseEndpoint("9000");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->host, "127.0.0.1");
  EXPECT_EQ(bare->port, 9000);
  EXPECT_TRUE(client::ParseEndpoint("localhost:80").ok());

  EXPECT_FALSE(client::ParseEndpoint("").ok());
  EXPECT_FALSE(client::ParseEndpoint("host:").ok());
  EXPECT_FALSE(client::ParseEndpoint(":").ok());
  EXPECT_FALSE(client::ParseEndpoint("1.2.3.4:0").ok());
  EXPECT_FALSE(client::ParseEndpoint("1.2.3.4:65536").ok());
  EXPECT_FALSE(client::ParseEndpoint("1.2.3.4:http").ok());

  auto list = client::ParseEndpointList("127.0.0.1:1,:2,9003");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[1].port, 2);
  EXPECT_EQ((*list)[2].port, 9003);
  EXPECT_FALSE(client::ParseEndpointList("").ok());
  EXPECT_FALSE(client::ParseEndpointList("127.0.0.1:1,,127.0.0.1:2").ok());
}

TEST(ClientTest, PoolCallsOverTcpAndNamesPeerInErrors) {
  QueryServer server(BuildCube(10, 40));
  server::TcpServer tcp(&server);
  ASSERT_TRUE(tcp.Start(0).ok());
  client::Endpoint endpoint;
  endpoint.port = static_cast<uint16_t>(tcp.port());

  client::ClientOptions options;
  options.connect_timeout_ms = 2000;
  options.io_timeout_ms = 2000;
  client::ClientPool pool(endpoint, options);
  auto response = pool.Call(R"({"op":"ping"})");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(Parse(*response).ok);

  // Once the server is gone every attempt fails, and the error names the
  // replica that failed (threaded through wire::ReadFull/WriteFull).
  tcp.Stop();
  auto failed = pool.Call(R"({"op":"ping"})");
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find(endpoint.ToString()),
            std::string::npos)
      << failed.status();
}

// ------------------------------------------------------------ replica server

TEST(ReplicaServerTest, BootstrapsFollowsSpoolAndNotifications) {
  fs::path dir = ScratchDir("fleet");
  ServerOptions publisher_options;
  publisher_options.num_workers = 1;
  publisher_options.snapshot_dir = dir.string();
  QueryServer publisher(BuildCube(11, 60), publisher_options);

  ReplicaOptions options;
  options.snapshot_dir = dir.string();
  options.num_workers = 1;
  options.bootstrap_wait_ms = 2000;
  ReplicaServer replica_server(options);
  ASSERT_TRUE(replica_server.Start().ok());
  EXPECT_EQ(replica_server.epoch(), 0u);
  ASSERT_GT(replica_server.port(), 0);

  client::Endpoint endpoint;
  endpoint.port = static_cast<uint16_t>(replica_server.port());
  client::CubeClient conn(endpoint);
  const std::string request_json = R"({"op":"slice","dim":"Day","key":"Mon"})";
  ExecResult direct = server::ExecuteRequest(
      *publisher.store().snapshot().cube, *ParseRequest(request_json));
  auto served = conn.Call(request_json);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(*served, MakeResponse(direct.ok, 0, false, direct.payload_json));

  // Epoch 1 arrives by spool polling.
  Rng rng(111);
  ASSERT_TRUE(publisher.ApplyUpdate(RandomBatch(rng, 5)).ok());
  auto polled = replica_server.PollOnce();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(*polled, 1u);
  EXPECT_EQ(replica_server.epoch(), 1u);

  // Epoch 2 arrives by spool polling too.
  ASSERT_TRUE(publisher.ApplyUpdate(RandomBatch(rng, 5)).ok());
  polled = replica_server.PollOnce();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(*polled, 1u);
  EXPECT_EQ(replica_server.epoch(), 2u);

  // Nothing new left in the spool.
  polled = replica_server.PollOnce();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(*polled, 0u);

  ExpectSameAnswers(*publisher.store().snapshot().cube,
                    *replica_server.server()->store().snapshot().cube);
  replica_server.Stop();
  fs::remove_all(dir);
}

// --------------------------------------------------------------------- router

TEST(RouterTest, RoutesOneShotsSticksCursorsAndFailsOver) {
  fs::path dir = ScratchDir("router");
  dwarf::DwarfCube cube = BuildCube(12, 80);
  const std::string path = (dir / SnapshotFileName(0)).string();
  ASSERT_TRUE(WriteCubeSnapshot(cube, 0, path).ok());

  // Three replicas serving the same snapshot file behind real sockets.
  std::vector<std::unique_ptr<QueryServer>> replicas;
  std::vector<std::unique_ptr<server::TcpServer>> tcps;
  std::vector<client::Endpoint> endpoints;
  for (int i = 0; i < 3; ++i) {
    auto loaded = LoadCubeSnapshot(path);
    ASSERT_TRUE(loaded.ok());
    ServerOptions options;
    options.num_workers = 1;
    options.initial_epoch = loaded->epoch;
    replicas.push_back(
        std::make_unique<QueryServer>(std::move(loaded->cube), options));
    tcps.push_back(std::make_unique<server::TcpServer>(replicas.back().get()));
    ASSERT_TRUE(tcps.back()->Start(0).ok());
    client::Endpoint endpoint;
    endpoint.port = static_cast<uint16_t>(tcps.back()->port());
    endpoints.push_back(endpoint);
  }

  RouterOptions options;
  options.health_interval_ms = 0;  // tests drive health checks manually
  options.unhealthy_after = 1;
  Router router(endpoints, options);
  EXPECT_EQ(router.CheckReplicasOnce(), 3u);
  EXPECT_EQ(router.healthy_replicas(), 3u);
  EXPECT_EQ(router.BestEpoch(), 0u);

  // One-shots through the router are byte-identical to direct execution.
  for (const std::string& request_json : DifferentialRequests()) {
    ExecResult direct =
        server::ExecuteRequest(cube, *ParseRequest(request_json));
    EXPECT_EQ(router.HandleFrame(request_json),
              MakeResponse(direct.ok, 0, false, direct.payload_json))
        << request_json;
  }

  // The router answers ping/metrics itself.
  Envelope ping = Parse(router.HandleFrame(R"({"op":"ping"})"));
  ASSERT_TRUE(ping.ok);
  EXPECT_EQ(ping.epoch, 0u);
  EXPECT_NE(router.MetricsText().find("router_requests_total"),
            std::string::npos);

  // Unknown cursors behave exactly like a server's.
  Envelope unknown = Parse(router.HandleFrame(R"({"op":"query_next","cursor":424242})"));
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.code, "not_found");

  // Sticky cursor drain with a mid-drain replica kill. The first query_open
  // lands on backend 0 (round-robin from zero), so stopping tcps[0] after two
  // pages forces an epoch-pinned failover with a two-page replay.
  const std::string query = R"({"op":"rollup","dims":["Station","Day"]})";
  ExecResult direct = server::ExecuteRequest(cube, *ParseRequest(query));
  ASSERT_TRUE(direct.ok);
  server::ClientContext context;
  Envelope opened = Parse(router.HandleFrame(
      R"({"op":"query_open","query":)" + query + R"(,"page_size":3})",
      &context));
  ASSERT_TRUE(opened.ok);
  EXPECT_EQ(router.open_sessions(), 1u);
  uint64_t cursor = static_cast<uint64_t>(
      opened.value.Get("cursor").ValueOrDie().AsNumber().ValueOrDie());
  json::JsonArray rows;
  int pages = 0;
  for (;;) {
    Envelope page = Parse(router.HandleFrame(
        R"({"op":"query_next","cursor":)" + std::to_string(cursor) + "}",
        &context));
    ASSERT_TRUE(page.ok) << "page " << pages;
    EXPECT_EQ(page.epoch, 0u);
    const json::JsonArray* got =
        page.value.Get("rows").ValueOrDie().AsArray();
    ASSERT_NE(got, nullptr);
    rows.insert(rows.end(), got->begin(), got->end());
    if (page.value.Get("done").ValueOrDie().AsBool().ValueOrDie()) break;
    if (++pages == 2) tcps[0]->Stop();  // kill the pinned replica mid-drain
  }
  ASSERT_GE(pages, 2);
  auto direct_payload = json::ParseJson(direct.payload_json);
  ASSERT_TRUE(direct_payload.ok());
  EXPECT_EQ(json::SerializeJson(JsonValue(std::move(rows))),
            json::SerializeJson(direct_payload->Get("rows").ValueOrDie()));
  EXPECT_EQ(router.open_sessions(), 0u);

  // The kill was observed: the dead replica is marked down, the failover
  // counted, and one-shots keep working over the survivors.
  Envelope stats = Parse(router.HandleFrame(R"({"op":"stats"})"));
  ASSERT_TRUE(stats.ok);
  JsonValue router_stats = stats.value.Get("stats")
                               .ValueOrDie()
                               .Get("router")
                               .ValueOrDie();
  EXPECT_GE(router_stats.Get("failovers_total").ValueOrDie().AsNumber()
                .ValueOrDie(),
            1.0);
  EXPECT_EQ(router.healthy_replicas(), 2u);
  // One-shots keep working over the survivors (the hash ring shrank, so the
  // query may land on a cold cache — only the payload is asserted).
  ExecResult again = server::ExecuteRequest(
      cube, *ParseRequest(DifferentialRequests()[0]));
  Envelope survivor = Parse(router.HandleFrame(DifferentialRequests()[0]));
  EXPECT_EQ(survivor.ok, again.ok);
  EXPECT_EQ(survivor.epoch, 0u);

  // Client-context cleanup closes router-side sessions on disconnect.
  server::ClientContext second;
  Envelope reopened = Parse(router.HandleFrame(
      R"({"op":"query_open","query":)" + query + R"(,"page_size":3})",
      &second));
  ASSERT_TRUE(reopened.ok);
  EXPECT_EQ(router.open_sessions(), 1u);
  router.CloseClientSessions(second);
  EXPECT_EQ(router.open_sessions(), 0u);

  for (auto& tcp : tcps) tcp->Stop();
  fs::remove_all(dir);
}

TEST(RouterTest, ReportsExactEpochsAbove2To53) {
  // 2^53 + 1 is the first epoch a double cannot hold.
  const uint64_t epoch = (uint64_t{1} << 53) + 1;
  ServerOptions options;
  options.num_workers = 1;
  options.initial_epoch = epoch;
  QueryServer replica(BuildCube(14, 40), options);
  server::TcpServer tcp(&replica);
  ASSERT_TRUE(tcp.Start(0).ok());
  client::Endpoint endpoint;
  endpoint.port = static_cast<uint16_t>(tcp.port());

  RouterOptions router_options;
  router_options.health_interval_ms = 0;
  Router router({endpoint}, router_options);
  EXPECT_EQ(router.CheckReplicasOnce(), 1u);
  EXPECT_EQ(router.BestEpoch(), epoch);
  tcp.Stop();
}

/// Serves through a real QueryServer, but breaks the envelope head of the
/// second query_next page it answers.
class BreaksSecondPage : public server::FrameHandler {
 public:
  explicit BreaksSecondPage(server::FrameHandler* inner) : inner_(inner) {}

  std::string HandleFrame(std::string_view request_json,
                          server::ClientContext* client) override {
    std::string response = inner_->HandleFrame(request_json, client);
    if (request_json.find("\"query_next\"") != std::string_view::npos &&
        ++pages_ == 2) {
      response[6] = 'x';  // {"ok":true -> {"ok":xrue
    }
    return response;
  }

  void CloseClientSessions(server::ClientContext& client) override {
    inner_->CloseClientSessions(client);
  }

 private:
  server::FrameHandler* inner_;
  std::atomic<int> pages_{0};
};

double RouterFailovers(Router& router) {
  Envelope stats = Parse(router.HandleFrame(R"({"op":"stats"})"));
  return stats.value.GetPath("stats.router.failovers_total")
      .ValueOrDie()
      .AsNumber()
      .ValueOrDie();
}

TEST(RouterTest, MalformedReplicaPageFailsOver) {
  fs::path dir = ScratchDir("malformed");
  dwarf::DwarfCube cube = BuildCube(15, 80);
  const std::string path = (dir / SnapshotFileName(0)).string();
  ASSERT_TRUE(WriteCubeSnapshot(cube, 0, path).ok());

  // Replica 0 breaks its second page; replica 1 is healthy. Both serve the
  // same snapshot file.
  std::vector<std::unique_ptr<QueryServer>> replicas;
  for (int i = 0; i < 2; ++i) {
    auto loaded = LoadCubeSnapshot(path);
    ASSERT_TRUE(loaded.ok());
    ServerOptions options;
    options.num_workers = 1;
    options.initial_epoch = loaded->epoch;
    replicas.push_back(
        std::make_unique<QueryServer>(std::move(loaded->cube), options));
  }
  BreaksSecondPage breaker(replicas[0].get());
  server::TcpServer tcp0(&breaker);
  server::TcpServer tcp1(replicas[1].get());
  ASSERT_TRUE(tcp0.Start(0).ok());
  ASSERT_TRUE(tcp1.Start(0).ok());
  std::vector<client::Endpoint> endpoints(2);
  endpoints[0].port = static_cast<uint16_t>(tcp0.port());
  endpoints[1].port = static_cast<uint16_t>(tcp1.port());

  RouterOptions options;
  options.health_interval_ms = 0;
  Router router(endpoints, options);
  ASSERT_EQ(router.CheckReplicasOnce(), 2u);
  const double failovers_before = RouterFailovers(router);

  // The first query_open lands on replica 0 (round-robin from zero).
  const std::string query = R"({"op":"rollup","dims":["Station","Day"]})";
  ExecResult direct = server::ExecuteRequest(cube, *ParseRequest(query));
  ASSERT_TRUE(direct.ok);
  Envelope opened = Parse(router.HandleFrame(
      R"({"op":"query_open","query":)" + query + R"(,"page_size":3})"));
  ASSERT_TRUE(opened.ok);
  const uint64_t cursor = static_cast<uint64_t>(
      opened.value.Get("cursor").ValueOrDie().AsNumber().ValueOrDie());
  json::JsonArray rows;
  int pages = 0;
  for (;;) {
    Envelope page = Parse(router.HandleFrame(
        R"({"op":"query_next","cursor":)" + std::to_string(cursor) + "}"));
    ASSERT_TRUE(page.ok) << "page " << pages;
    const json::JsonArray* got = page.value.Get("rows").ValueOrDie().AsArray();
    ASSERT_NE(got, nullptr);
    rows.insert(rows.end(), got->begin(), got->end());
    ++pages;
    if (page.value.Get("done").ValueOrDie().AsBool().ValueOrDie()) break;
  }
  ASSERT_GT(pages, 2);
  auto direct_payload = json::ParseJson(direct.payload_json);
  ASSERT_TRUE(direct_payload.ok());
  EXPECT_EQ(json::SerializeJson(JsonValue(std::move(rows))),
            json::SerializeJson(direct_payload->Get("rows").ValueOrDie()));
  EXPECT_EQ(RouterFailovers(router), failovers_before + 1);
  EXPECT_EQ(router.open_sessions(), 0u);

  tcp0.Stop();
  tcp1.Stop();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace scdwarf::replica
