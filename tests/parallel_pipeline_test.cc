// Determinism tests for the ETL pipeline: cubes built through
// ParallelCubePipeline with any worker count must be identical — same
// dictionaries (ids AND order), same arena node for node, same query
// results, same stored bytes — to a direct single-threaded loop over the
// feed, including under the lenient/strict malformed-record policies and
// the builder ablations.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "citibikes/bike_feed.h"
#include "common/parallel.h"
#include "dwarf/query.h"
#include "etl/parallel_pipeline.h"
#include "expect_same_arena.h"
#include "mapper/nosql_dwarf_mapper.h"
#include "mapper/nosql_min_mapper.h"
#include "mapper/sql_dwarf_mapper.h"
#include "mapper/sql_min_mapper.h"
#include "mapper/store_rows.h"

namespace scdwarf::etl {
namespace {

// Large enough that the builder's parallel sort path (>= 4096 tuples)
// actually engages.
citibikes::BikeFeedConfig TestFeedConfig() {
  citibikes::BikeFeedConfig config;
  config.num_stations = 24;
  config.target_records = 6000;
  return config;
}

// The reference: every document extracted, every record mapped and added
// to a one-thread builder, in feed order. No workers and no dictionary
// merge, so its dictionary ids are the first-seen order the merge must
// reproduce, and its arena comes from the serial construction sweep.
dwarf::DwarfCube BuildReference(bool json,
                                dwarf::BuilderOptions builder_options = {}) {
  citibikes::BikeFeedGenerator feed(TestFeedConfig());
  dwarf::CubeSchema schema = MakeBikesCubeSchema();
  auto xml_extractor = XmlExtractor::Create("station", BikesFieldSpecs());
  auto json_extractor = JsonExtractor::Create("stations", BikesFieldSpecs());
  auto mapper =
      TupleMapper::Create(schema, BikesDimensionMappings(), "available_bikes");
  EXPECT_TRUE(xml_extractor.ok() && json_extractor.ok() && mapper.ok());
  builder_options.num_threads = 1;
  dwarf::DwarfBuilder builder(schema, builder_options);
  while (feed.HasNext()) {
    auto records = json ? json_extractor->Extract(feed.NextJson())
                        : xml_extractor->Extract(feed.NextXml());
    EXPECT_TRUE(records.ok()) << records.status();
    for (const FeedRecord& record : *records) {
      auto mapped = mapper->Map(record);
      EXPECT_TRUE(mapped.ok()) << mapped.status();
      EXPECT_TRUE(builder.AddTuple(mapped->first, mapped->second).ok());
    }
  }
  auto cube = std::move(builder).Build();
  EXPECT_TRUE(cube.ok()) << cube.status();
  return std::move(*cube);
}

dwarf::DwarfCube BuildParallelXml(int threads,
                                  dwarf::BuilderOptions builder_options = {}) {
  citibikes::BikeFeedGenerator feed(TestFeedConfig());
  builder_options.num_threads = threads;
  auto pipeline = MakeBikesXmlParallelPipeline(builder_options,
                                               {.num_threads = threads});
  EXPECT_TRUE(pipeline.ok()) << pipeline.status();
  while (feed.HasNext()) {
    Status status = pipeline->ConsumeXml(feed.NextXml());
    EXPECT_TRUE(status.ok()) << status;
  }
  auto cube = std::move(*pipeline).Finish();
  EXPECT_TRUE(cube.ok()) << cube.status();
  return std::move(*cube);
}

uint64_t StoredBytes(const dwarf::DwarfCube& cube) {
  nosql::Database db;  // in-memory
  mapper::NoSqlDwarfMapper cube_mapper(&db, "eqks");
  auto id = cube_mapper.Store(cube);
  EXPECT_TRUE(id.ok()) << id.status();
  return db.EstimateBytes();
}

// Identical in every observable way: the arena node for node, statistics,
// dictionary contents *in id order* (the strongest determinism claim — ids
// depend on first-seen order), query results, and serialized size.
void ExpectCubesIdentical(const dwarf::DwarfCube& reference,
                          const dwarf::DwarfCube& parallel) {
  dwarf::ExpectSameArena(reference, parallel);
  EXPECT_TRUE(reference.StructurallyEquals(parallel));
  EXPECT_EQ(reference.stats().node_count, parallel.stats().node_count);
  EXPECT_EQ(reference.stats().cell_count, parallel.stats().cell_count);
  EXPECT_EQ(reference.stats().coalesced_all_count,
            parallel.stats().coalesced_all_count);
  EXPECT_EQ(reference.stats().tuple_count, parallel.stats().tuple_count);
  EXPECT_EQ(reference.stats().source_tuple_count,
            parallel.stats().source_tuple_count);
  EXPECT_EQ(reference.stats().approx_bytes, parallel.stats().approx_bytes);

  ASSERT_EQ(reference.num_dimensions(), parallel.num_dimensions());
  for (size_t dim = 0; dim < reference.num_dimensions(); ++dim) {
    ASSERT_EQ(reference.dictionary(dim).size(),
              parallel.dictionary(dim).size());
    for (dwarf::DimKey id = 0; id < reference.dictionary(dim).size(); ++id) {
      EXPECT_EQ(reference.dictionary(dim).DecodeUnchecked(id),
                parallel.dictionary(dim).DecodeUnchecked(id));
    }
  }

  // Grand total and a per-dimension rollup agree.
  size_t dims = reference.num_dimensions();
  std::vector<std::optional<dwarf::DimKey>> all(dims, std::nullopt);
  auto reference_total = dwarf::PointQuery(reference, all);
  auto parallel_total = dwarf::PointQuery(parallel, all);
  ASSERT_TRUE(reference_total.ok()) << reference_total.status();
  ASSERT_TRUE(parallel_total.ok()) << parallel_total.status();
  EXPECT_EQ(*reference_total, *parallel_total);
  for (size_t dim = 0; dim < dims; ++dim) {
    for (dwarf::DimKey id = 0; id < reference.dictionary(dim).size(); ++id) {
      std::vector<std::optional<dwarf::DimKey>> keys(dims, std::nullopt);
      keys[dim] = id;
      auto lhs = dwarf::PointQuery(reference, keys);
      auto rhs = dwarf::PointQuery(parallel, keys);
      ASSERT_EQ(lhs.ok(), rhs.ok());
      if (lhs.ok()) {
        EXPECT_EQ(*lhs, *rhs);
      }
    }
  }

  EXPECT_EQ(StoredBytes(reference), StoredBytes(parallel));
}

TEST(ParallelPipelineTest, XmlTwoAndFourThreadsMatchSerial) {
  dwarf::DwarfCube reference = BuildReference(/*json=*/false);
  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    dwarf::DwarfCube parallel = BuildParallelXml(threads);
    ExpectCubesIdentical(reference, parallel);
  }
}

TEST(ParallelPipelineTest, JsonParallelMatchesSerial) {
  citibikes::BikeFeedGenerator feed(TestFeedConfig());
  auto pipeline = MakeBikesJsonParallelPipeline({}, {.num_threads = 4});
  ASSERT_TRUE(pipeline.ok());
  while (feed.HasNext()) {
    ASSERT_TRUE(pipeline->ConsumeJson(feed.NextJson()).ok());
  }
  auto parallel = std::move(*pipeline).Finish();
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  ExpectCubesIdentical(BuildReference(/*json=*/true), *parallel);
}

TEST(ParallelPipelineTest, AblationOptionsStayIdentical) {
  dwarf::BuilderOptions no_coalescing;
  no_coalescing.enable_suffix_coalescing = false;
  dwarf::BuilderOptions no_memo;
  no_memo.enable_merge_memoization = false;
  for (const dwarf::BuilderOptions& options : {no_coalescing, no_memo}) {
    SCOPED_TRACE(options.enable_suffix_coalescing ? "no_memo"
                                                  : "no_coalescing");
    dwarf::DwarfCube reference = BuildReference(/*json=*/false, options);
    dwarf::DwarfCube parallel = BuildParallelXml(4, options);
    ExpectCubesIdentical(reference, parallel);
  }
}

TEST(ParallelPipelineTest, StatsMatchSerial) {
  citibikes::BikeFeedGenerator feed(TestFeedConfig());
  auto pipeline = MakeBikesXmlParallelPipeline({}, {.num_threads = 3});
  ASSERT_TRUE(pipeline.ok());
  EXPECT_EQ(pipeline->num_threads(), 3);
  while (feed.HasNext()) {
    ASSERT_TRUE(pipeline->ConsumeXml(feed.NextXml()).ok());
  }
  ASSERT_TRUE(std::move(*pipeline).Finish().ok());
  EXPECT_EQ(pipeline->num_threads(), 3);
  PipelineStats stats = pipeline->stats();

  EXPECT_EQ(stats.documents, feed.documents_emitted());
  EXPECT_EQ(stats.records, feed.records_emitted());
  EXPECT_EQ(stats.bytes, feed.bytes_emitted());
  EXPECT_EQ(stats.skipped_records, 0u);
}

// ------------------------------------------------- malformed-record policy

constexpr const char* kGoodAndBadStations =
    "<stations>"
    "<station><name>a</name><area>z</area>"
    "<bike_stands>20</bike_stands>"
    "<available_bikes>3</available_bikes>"
    "<status>OPEN</status>"
    "<last_update>2016-01-05T08:00:00</last_update>"
    "</station>"
    "<station><name>b</name><area>z</area>"
    "<available_bikes>4</available_bikes>"
    "</station>"
    "</stations>";

// Extractor whose fields are all optional, so a record can survive
// extraction yet fail mapping (the unparsable bike_stands default).
Result<XmlExtractor> LenientExtractor() {
  return XmlExtractor::Create(
      "station",
      {{"name", "name", FieldScope::kRecord, false, ""},
       {"area", "area", FieldScope::kRecord, false, ""},
       {"bike_stands", "bike_stands", FieldScope::kRecord, false, "xx"},
       {"available_bikes", "available_bikes", FieldScope::kRecord, false, "0"},
       {"status", "status", FieldScope::kRecord, false, "UNKNOWN"},
       {"last_update", "last_update", FieldScope::kRecord, false,
        "2016-01-01T00:00:00"}});
}

ParallelCubePipeline MakeLenientParallel(bool strict, int threads) {
  dwarf::CubeSchema schema = MakeBikesCubeSchema();
  auto mapper =
      TupleMapper::Create(schema, BikesDimensionMappings(), "available_bikes");
  EXPECT_TRUE(mapper.ok());
  auto extractor = LenientExtractor();
  EXPECT_TRUE(extractor.ok());
  return ParallelCubePipeline(schema, std::move(*mapper),
                              std::move(*extractor), std::nullopt, strict,
                              /*builder_options=*/{},
                              {.num_threads = threads});
}

TEST(ParallelPipelineTest, LenientPolicySkipsBadRecords) {
  ParallelCubePipeline pipeline = MakeLenientParallel(/*strict=*/false, 4);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pipeline.ConsumeXml(kGoodAndBadStations).ok());
  }
  auto cube = std::move(pipeline).Finish();
  ASSERT_TRUE(cube.ok()) << cube.status();
  EXPECT_EQ(pipeline.stats().records, 8u);
  EXPECT_EQ(pipeline.stats().skipped_records, 8u);
  EXPECT_EQ(cube->stats().source_tuple_count, 8u);
}

TEST(ParallelPipelineTest, StrictPolicyFailsAtFinish) {
  ParallelCubePipeline pipeline = MakeLenientParallel(/*strict=*/true, 4);
  // The enqueue itself succeeds — the failure surfaces when draining.
  ASSERT_TRUE(pipeline.ConsumeXml(kGoodAndBadStations).ok());
  EXPECT_FALSE(std::move(pipeline).Finish().ok());
}

TEST(ParallelPipelineTest, MalformedDocumentFailsAtFinish) {
  auto pipeline = MakeBikesXmlParallelPipeline({}, {.num_threads = 2});
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE(pipeline->ConsumeXml("<broken").ok());  // queued, not parsed yet
  EXPECT_TRUE(std::move(*pipeline).Finish().status().IsParseError());
}

TEST(ParallelPipelineTest, WrongFormatRejectedImmediately) {
  auto pipeline = MakeBikesXmlParallelPipeline({}, {.num_threads = 2});
  ASSERT_TRUE(pipeline.ok());
  EXPECT_TRUE(pipeline->ConsumeJson("{}").IsFailedPrecondition());
  ASSERT_TRUE(std::move(*pipeline).Finish().ok());
}

// ------------------------------------------------------- thread-count knob

TEST(ParallelPipelineTest, OneWorkerBuildsTheReferenceCube) {
  dwarf::DwarfCube reference = BuildReference(/*json=*/false);
  citibikes::BikeFeedGenerator feed(TestFeedConfig());
  auto pipeline = MakeBikesXmlParallelPipeline({.num_threads = 1},
                                               {.num_threads = 1});
  ASSERT_TRUE(pipeline.ok());
  EXPECT_EQ(pipeline->num_threads(), 1);
  while (feed.HasNext()) {
    ASSERT_TRUE(pipeline->ConsumeXml(feed.NextXml()).ok());
  }
  auto cube = std::move(*pipeline).Finish();
  ASSERT_TRUE(cube.ok()) << cube.status();
  EXPECT_EQ(pipeline->num_threads(), 1);
  ExpectCubesIdentical(reference, *cube);
}

TEST(ParallelPipelineTest, ScdwarfThreadsEnvOverridesAuto) {
  ASSERT_EQ(::setenv("SCDWARF_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(DefaultThreadCount(), 3);
  EXPECT_EQ(ResolveThreadCount(0), 3);
  EXPECT_EQ(ResolveThreadCount(2), 2);  // explicit knob wins
  auto pipeline = MakeBikesXmlParallelPipeline({}, {});
  ASSERT_TRUE(pipeline.ok());
  EXPECT_EQ(pipeline->num_threads(), 3);
  ASSERT_EQ(::setenv("SCDWARF_THREADS", "junk", 1), 0);
  EXPECT_GE(DefaultThreadCount(), 1);  // unparsable -> hardware fallback
  ASSERT_EQ(::unsetenv("SCDWARF_THREADS"), 0);
  ASSERT_TRUE(std::move(*pipeline).Finish().ok());
  EXPECT_EQ(pipeline->num_threads(), 3);
}

// ------------------------------------------------ parallel row serialization

TEST(ParallelStoreTest, NoSqlMappersStoreIdenticalBytes) {
  dwarf::DwarfCube cube = BuildReference(/*json=*/false);

  nosql::Database serial_db, parallel_db;
  mapper::NoSqlDwarfMapper serial_mapper(&serial_db, "ks");
  mapper::NoSqlDwarfMapper parallel_mapper(&parallel_db, "ks");
  ASSERT_TRUE(serial_mapper.Store(cube, {.num_threads = 1}).ok());
  ASSERT_TRUE(parallel_mapper.Store(cube, {.num_threads = 4}).ok());
  EXPECT_EQ(serial_db.EstimateBytes(), parallel_db.EstimateBytes());
  auto reloaded = parallel_mapper.Load(0);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_TRUE(reloaded->StructurallyEquals(cube));

  nosql::Database serial_min_db, parallel_min_db;
  mapper::NoSqlMinMapper serial_min(&serial_min_db, "ks");
  mapper::NoSqlMinMapper parallel_min(&parallel_min_db, "ks");
  ASSERT_TRUE(serial_min.Store(cube, {.num_threads = 1}).ok());
  ASSERT_TRUE(parallel_min.Store(cube, {.num_threads = 4}).ok());
  EXPECT_EQ(serial_min_db.EstimateBytes(), parallel_min_db.EstimateBytes());
  auto min_reloaded = parallel_min.Load(0);
  ASSERT_TRUE(min_reloaded.ok()) << min_reloaded.status();
  EXPECT_TRUE(min_reloaded->StructurallyEquals(cube));
}

TEST(ParallelStoreTest, SqlMappersStoreIdenticalBytes) {
  dwarf::DwarfCube cube = BuildReference(/*json=*/false);

  sql::SqlEngine serial_engine, parallel_engine;
  mapper::SqlDwarfMapper serial_mapper(&serial_engine, "db");
  mapper::SqlDwarfMapper parallel_mapper(&parallel_engine, "db");
  ASSERT_TRUE(serial_mapper.Store(cube, {.num_threads = 1}).ok());
  ASSERT_TRUE(parallel_mapper.Store(cube, {.num_threads = 4}).ok());
  EXPECT_EQ(serial_engine.EstimateBytes(), parallel_engine.EstimateBytes());
  auto reloaded = parallel_mapper.Load(0);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_TRUE(reloaded->StructurallyEquals(cube));

  sql::SqlEngine serial_min_engine, parallel_min_engine;
  mapper::SqlMinMapper serial_min(&serial_min_engine, "db");
  mapper::SqlMinMapper parallel_min(&parallel_min_engine, "db");
  ASSERT_TRUE(serial_min.Store(cube, {.num_threads = 1}).ok());
  ASSERT_TRUE(parallel_min.Store(cube, {.num_threads = 4}).ok());
  EXPECT_EQ(serial_min_engine.EstimateBytes(),
            parallel_min_engine.EstimateBytes());
  auto min_reloaded = parallel_min.Load(0);
  ASSERT_TRUE(min_reloaded.ok()) << min_reloaded.status();
  EXPECT_TRUE(min_reloaded->StructurallyEquals(cube));
}

// ------------------------------------------------------- the one store path

// 10,000 nodes: every node adds one row to "t_every", every third node two
// rows to "t_third", and no node a row to "t_none".
constexpr size_t kStoreRowsNodes = 10000;
const std::vector<std::string> kStoreRowsTables = {"t_every", "t_third",
                                                   "t_none"};

std::vector<mapper::Rows> GenerateStoreRows(size_t begin, size_t end) {
  std::vector<mapper::Rows> out(kStoreRowsTables.size());
  for (size_t i = begin; i < end; ++i) {
    const int64_t node = static_cast<int64_t>(i);
    out[0].push_back({Value::Int(node)});
    if (i % 3 == 0) {
      out[1].push_back({Value::Int(node), Value::Int(0)});
      out[1].push_back({Value::Int(node), Value::Int(1)});
    }
  }
  return out;
}

TEST(StoreRowsTest, AppliesEveryTableInSerialOrderInFullBatches) {
  const std::vector<mapper::Rows> serial =
      GenerateStoreRows(0, kStoreRowsNodes);
  for (size_t rows_per_insert : {size_t{1}, size_t{3000}}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE("rows_per_insert=" + std::to_string(rows_per_insert) +
                   " threads=" + std::to_string(threads));
      std::mutex mu;
      std::map<std::string, std::vector<mapper::Rows>> batches;
      Status status = mapper::StoreRows(
          threads, kStoreRowsNodes, kStoreRowsTables, rows_per_insert,
          GenerateStoreRows,
          [&](const std::string& table, mapper::Rows rows) {
            std::lock_guard<std::mutex> lock(mu);
            batches[table].push_back(std::move(rows));
            return Status::OK();
          });
      ASSERT_TRUE(status.ok()) << status;
      EXPECT_EQ(batches.count("t_none"), 0u);  // no rows, no call
      for (size_t t = 0; t < 2; ++t) {
        SCOPED_TRACE(kStoreRowsTables[t]);
        const std::vector<mapper::Rows>& applied =
            batches[kStoreRowsTables[t]];
        ASSERT_FALSE(applied.empty());
        mapper::Rows concatenated;
        for (size_t b = 0; b < applied.size(); ++b) {
          EXPECT_FALSE(applied[b].empty());
          if (b + 1 < applied.size()) {
            EXPECT_GE(applied[b].size(), rows_per_insert);
          }
          concatenated.insert(concatenated.end(), applied[b].begin(),
                              applied[b].end());
        }
        EXPECT_EQ(concatenated, serial[t]);
      }
    }
  }
}

TEST(StoreRowsTest, ApplyErrorStopsItsTableAndJoinsEveryLane) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::mutex mu;
    std::map<std::string, int> calls;
    std::atomic<int> in_flight{0};
    Status status = mapper::StoreRows(
        threads, kStoreRowsNodes, kStoreRowsTables, /*rows_per_insert=*/1,
        GenerateStoreRows, [&](const std::string& table, mapper::Rows) {
          in_flight.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          int call = 0;
          {
            std::lock_guard<std::mutex> lock(mu);
            call = ++calls[table];
          }
          in_flight.fetch_sub(1);
          if (table == "t_third" && call == 2) {
            return Status::IoError("disk full");
          }
          return Status::OK();
        });
    EXPECT_TRUE(status.IsIoError()) << status;
    EXPECT_NE(status.message().find("t_third"), std::string::npos) << status;
    // Every lane was joined: none is inside an apply, and none starts one
    // later.
    EXPECT_EQ(in_flight.load(), 0);
    std::map<std::string, int> returned;
    {
      std::lock_guard<std::mutex> lock(mu);
      returned = calls;
    }
    EXPECT_EQ(returned["t_third"], 2);  // nothing after the failing apply
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(calls, returned);
  }
}

// With more than one thread, no table's last batch waits for another's: each
// apply below returns only once every table's apply has started, so lanes
// that ran their last batches one after another would time out.
TEST(StoreRowsTest, LastBatchesOfAllTablesRunAtOnce) {
  std::mutex mu;
  std::condition_variable all_started;
  size_t started = 0;
  bool timed_out = false;
  Status status = mapper::StoreRows(
      /*num_threads=*/4, kStoreRowsNodes, {"t_every", "t_third"},
      /*rows_per_insert=*/kStoreRowsNodes * 2,
      [](size_t begin, size_t end) {
        std::vector<mapper::Rows> out = GenerateStoreRows(begin, end);
        out.pop_back();  // no "t_none"
        return out;
      },
      [&](const std::string&, mapper::Rows) {
        std::unique_lock<std::mutex> lock(mu);
        if (++started == 2) all_started.notify_all();
        if (!all_started.wait_for(lock, std::chrono::seconds(10),
                                  [&] { return started >= 2; })) {
          timed_out = true;
        }
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(started, 2u);  // one batch per table: the last one
  EXPECT_FALSE(timed_out);
}

// Each chunk's rows are prepared on the pool thread that generated them,
// never on a lane, and a prepare error stops the load with its table's name.
TEST(StoreRowsTest, PreparesOnThePoolAndStopsAtAPrepareError) {
  std::mutex mu;
  std::set<std::thread::id> preparers;
  std::set<std::thread::id> appliers;
  std::map<std::string, size_t> rows_applied;
  mapper::RowSink<mapper::Rows> sink{
      .prepare = [&](const std::string&,
                     mapper::Rows rows) -> Result<mapper::Rows> {
        std::lock_guard<std::mutex> lock(mu);
        preparers.insert(std::this_thread::get_id());
        return rows;
      },
      .apply =
          [&](const std::string& table, std::vector<mapper::Rows> batches) {
            std::lock_guard<std::mutex> lock(mu);
            appliers.insert(std::this_thread::get_id());
            for (const mapper::Rows& rows : batches) {
              rows_applied[table] += rows.size();
            }
            return Status::OK();
          }};
  ASSERT_TRUE(mapper::StoreRows(4, kStoreRowsNodes, kStoreRowsTables,
                                GenerateStoreRows, sink)
                  .ok());
  EXPECT_EQ(rows_applied["t_every"], kStoreRowsNodes);
  EXPECT_FALSE(preparers.count(std::this_thread::get_id()));
  for (const std::thread::id& lane : appliers) {
    EXPECT_FALSE(preparers.count(lane));
  }

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::atomic<int> prepared{0};
    sink.prepare = [&](const std::string& table,
                       mapper::Rows rows) -> Result<mapper::Rows> {
      if (table == "t_third" && prepared.fetch_add(1) == 3) {
        return Status::InvalidArgument("bad row");
      }
      return rows;
    };
    Status status = mapper::StoreRows(threads, kStoreRowsNodes,
                                      kStoreRowsTables, GenerateStoreRows, sink);
    EXPECT_TRUE(status.IsInvalidArgument()) << status;
    EXPECT_NE(status.message().find("t_third"), std::string::npos) << status;
  }
}

// -------------------------------------------------- common/parallel helpers

TEST(ParallelHelpersTest, SplitShardsCoversRangeContiguously) {
  auto shards = SplitShards(10, 3);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].begin, 0u);
  size_t total = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(shards[i].shard, i);
    if (i > 0) {
      EXPECT_EQ(shards[i].begin, shards[i - 1].end);
    }
    total += shards[i].end - shards[i].begin;
  }
  EXPECT_EQ(shards.back().end, 10u);
  EXPECT_EQ(total, 10u);
  EXPECT_TRUE(SplitShards(0, 4).empty());
  EXPECT_EQ(SplitShards(2, 4).size(), 2u);  // never emits empty shards
}

}  // namespace
}  // namespace scdwarf::etl
