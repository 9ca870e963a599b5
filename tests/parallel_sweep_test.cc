// Thread-count matrix for the parallel construction sweep and the parallel
// store apply: DwarfBuilder::Build with num_threads in {1, 2, 8} must produce
// node-for-node identical cube arenas (and so statistics), and storing a
// cube through any of the four mappers into a durable engine with any
// thread count must leave byte-identical files, logs included — the
// parallel paths are pure speedups, never observable behavior. Also:
// concurrent first stats() calls on a merged cube share one memoized result.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "citibikes/bike_feed.h"
#include "dwarf/builder.h"
#include "dwarf/dwarf_cube.h"
#include "dwarf/query.h"
#include "dwarf/update.h"
#include "etl/parallel_pipeline.h"
#include "expect_same_arena.h"
#include "mapper/nosql_dwarf_mapper.h"
#include "mapper/nosql_min_mapper.h"
#include "mapper/sql_dwarf_mapper.h"
#include "mapper/sql_min_mapper.h"
#include "nosql/database.h"
#include "sql/engine.h"

namespace scdwarf::dwarf {
namespace {

namespace fs = std::filesystem;

// Enough tuples to clear the builder's parallel-sweep floor (4096), with
// plenty of distinct first-dimension groups to split into subtree tasks.
constexpr int kTuples = 6000;

DwarfBuilder MakeSeededBuilder(BuilderOptions options) {
  CubeSchema schema("sweep",
                    {DimensionSpec("Day"), DimensionSpec("Station"),
                     DimensionSpec("Area")},
                    "m", AggFn::kSum);
  DwarfBuilder builder(schema, options);
  // 97, 89 and 10 are pairwise coprime, so all kTuples key combinations are
  // distinct: duplicate aggregation removes nothing and the sweep sees more
  // than its 4096-tuple parallel floor.
  for (int i = 0; i < kTuples; ++i) {
    Status status = builder.AddTuple({"d" + std::to_string(i % 97),
                                      "s" + std::to_string((i * 7) % 89),
                                      "a" + std::to_string(i % 10)},
                                     static_cast<Measure>(i % 13));
    EXPECT_TRUE(status.ok()) << status;
  }
  return builder;
}

// The bikes XML feed over 7 days (24 stations, 12,000 records), extracted
// and mapped record by record. Its boundary closes reach merges whose
// inputs all lie inside one group, which the group's own sweep memoized.
DwarfBuilder MakeBikesWeekBuilder(BuilderOptions options) {
  citibikes::BikeFeedConfig config;
  config.num_stations = 24;
  config.period_seconds = 7 * 24 * 3600;
  config.target_records = 12000;
  citibikes::BikeFeedGenerator feed(config);
  CubeSchema schema = etl::MakeBikesCubeSchema();
  auto extractor = etl::XmlExtractor::Create("station", etl::BikesFieldSpecs());
  auto mapper = etl::TupleMapper::Create(schema, etl::BikesDimensionMappings(),
                                         "available_bikes");
  EXPECT_TRUE(extractor.ok() && mapper.ok());
  DwarfBuilder builder(schema, options);
  while (feed.HasNext()) {
    auto records = extractor->Extract(feed.NextXml());
    EXPECT_TRUE(records.ok()) << records.status();
    for (const etl::FeedRecord& record : *records) {
      auto mapped = mapper->Map(record);
      EXPECT_TRUE(mapped.ok()) << mapped.status();
      EXPECT_TRUE(builder.AddTuple(mapped->first, mapped->second).ok());
    }
  }
  return builder;
}

using MakeBuilderFn = DwarfBuilder (*)(BuilderOptions);

DwarfCube BuildWithThreads(int threads, BuildProfile* profile,
                           BuilderOptions options = {},
                           MakeBuilderFn make = &MakeSeededBuilder) {
  options.num_threads = threads;
  DwarfBuilder builder = make(options);
  auto cube = std::move(builder).Build(profile);
  EXPECT_TRUE(cube.ok()) << cube.status();
  return std::move(*cube);
}

void ExpectBitIdentical(const DwarfCube& serial, const DwarfCube& parallel) {
  ExpectSameArena(serial, parallel);
  EXPECT_TRUE(serial.StructurallyEquals(parallel));
  EXPECT_EQ(serial.stats().node_count, parallel.stats().node_count);
  EXPECT_EQ(serial.stats().cell_count, parallel.stats().cell_count);
  EXPECT_EQ(serial.stats().coalesced_all_count,
            parallel.stats().coalesced_all_count);
  EXPECT_EQ(serial.stats().tuple_count, parallel.stats().tuple_count);
  EXPECT_EQ(serial.stats().approx_bytes, parallel.stats().approx_bytes);
  std::vector<std::optional<DimKey>> all(serial.num_dimensions(),
                                         std::nullopt);
  auto lhs = PointQuery(serial, all);
  auto rhs = PointQuery(parallel, all);
  ASSERT_TRUE(lhs.ok()) << lhs.status();
  ASSERT_TRUE(rhs.ok()) << rhs.status();
  EXPECT_EQ(*lhs, *rhs);
}

TEST(ParallelSweepTest, ThreadMatrixProducesBitIdenticalCubes) {
  for (MakeBuilderFn make : {&MakeSeededBuilder, &MakeBikesWeekBuilder}) {
    SCOPED_TRACE(make == &MakeSeededBuilder ? "seeded" : "bikes week");
    BuildProfile serial_profile;
    DwarfCube serial = BuildWithThreads(1, &serial_profile, {}, make);
    EXPECT_EQ(serial_profile.sweep_tasks, 0);  // exact serial path

    for (int threads : {2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      BuildProfile profile;
      DwarfCube parallel = BuildWithThreads(threads, &profile, {}, make);
      // The sweep actually split into per-first-dimension subtree tasks.
      EXPECT_GT(profile.sweep_tasks, 1);
      ExpectBitIdentical(serial, parallel);
    }
  }
}

TEST(ParallelSweepTest, AblationsStayBitIdenticalAcrossThreads) {
  BuilderOptions no_coalescing;
  no_coalescing.enable_suffix_coalescing = false;
  BuilderOptions no_memo;
  no_memo.enable_merge_memoization = false;
  for (const BuilderOptions& options : {no_coalescing, no_memo}) {
    SCOPED_TRACE(options.enable_suffix_coalescing ? "no_memo"
                                                  : "no_coalescing");
    DwarfCube serial = BuildWithThreads(1, nullptr, options);
    for (int threads : {2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      DwarfCube parallel = BuildWithThreads(threads, nullptr, options);
      ExpectBitIdentical(serial, parallel);
    }
  }
}

TEST(ParallelSweepTest, SingleValuedLeadingDimensionStillSplits) {
  // Mirrors the bikes schema on a one-month feed: the leading dimension
  // holds a single key, so the sweep must descend to the first varying
  // dimension instead of degenerating to one task.
  CubeSchema schema("monthlike",
                    {DimensionSpec("Month"), DimensionSpec("Day"),
                     DimensionSpec("Station")},
                    "m", AggFn::kSum);
  auto build = [&schema](int threads, BuildProfile* profile) {
    DwarfBuilder builder(schema, {.num_threads = threads});
    for (int i = 0; i < kTuples; ++i) {
      EXPECT_TRUE(builder
                      .AddTuple({"2016-01", "d" + std::to_string(i % 97),
                                 "s" + std::to_string((i * 7) % 89)},
                                static_cast<Measure>(i % 13))
                      .ok());
    }
    auto cube = std::move(builder).Build(profile);
    EXPECT_TRUE(cube.ok()) << cube.status();
    return std::move(*cube);
  };
  DwarfCube serial = build(1, nullptr);
  for (int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    BuildProfile profile;
    DwarfCube parallel = build(threads, &profile);
    EXPECT_GT(profile.sweep_tasks, 1);  // split below the Month level
    ExpectBitIdentical(serial, parallel);
  }
}

TEST(ParallelSweepTest, SmallInputsFallBackToSerialSweep) {
  CubeSchema schema("small", {DimensionSpec("Day"), DimensionSpec("Station")},
                    "m", AggFn::kSum);
  DwarfBuilder serial_builder(schema, {.num_threads = 1});
  DwarfBuilder parallel_builder(schema, {.num_threads = 8});
  for (int i = 0; i < 50; ++i) {  // far below the 4096-tuple floor
    ASSERT_TRUE(serial_builder
                    .AddTuple({"d" + std::to_string(i % 5),
                               "s" + std::to_string(i % 7)},
                              1)
                    .ok());
    ASSERT_TRUE(parallel_builder
                    .AddTuple({"d" + std::to_string(i % 5),
                               "s" + std::to_string(i % 7)},
                              1)
                    .ok());
  }
  BuildProfile profile;
  auto serial = std::move(serial_builder).Build();
  auto parallel = std::move(parallel_builder).Build(&profile);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(profile.sweep_tasks, 0);
  ExpectBitIdentical(*serial, *parallel);
}

// ------------------------------------------------- durable segment identity

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

TEST(ParallelSweepTest, StoreThreadMatrixWritesByteIdenticalSegments) {
  DwarfCube cube = BuildWithThreads(1, nullptr);

  std::map<std::string, std::string> baseline;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    fs::path dir = fs::temp_directory_path() /
                   ("scdwarf_sweep_store_" + std::to_string(threads));
    fs::remove_all(dir);
    {
      auto db = nosql::Database::Open(dir.string());
      ASSERT_TRUE(db.ok()) << db.status();
      mapper::NoSqlDwarfMapper cube_mapper(&*db, "ks");
      auto id = cube_mapper.Store(cube, {.num_threads = threads});
      ASSERT_TRUE(id.ok()) << id.status();
      // Store() already flushed every segment.
    }
    std::map<std::string, std::string> segments = ReadSegments(dir);
    EXPECT_FALSE(segments.empty());
    if (threads == 1) {
      baseline = std::move(segments);
    } else {
      ASSERT_EQ(segments.size(), baseline.size());
      for (const auto& [name, bytes] : baseline) {
        auto it = segments.find(name);
        ASSERT_NE(it, segments.end()) << "missing segment " << name;
        EXPECT_EQ(it->second, bytes) << "segment bytes differ: " << name;
      }
    }
    fs::remove_all(dir);
  }
}

// Every file under \p dir, logs included, keyed by path relative to \p dir.
std::map<std::string, std::string> ReadFiles(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    files[fs::relative(entry.path(), dir).string()] = std::move(bytes);
  }
  return files;
}

// Four dimensions of 20 values each, every combination once: 160,000 tuples.
// No node has a single cell, so nothing coalesces: level k holds 21^k nodes
// (9,724 in all), each with 20 cells and an ALL cell (204,204 cell rows).
// Every thread count cuts several 1,024-node chunks, and the SQL cell
// tables cross a 128K-row insert boundary.
constexpr uint64_t kFullCubeTuples = 160000;
constexpr uint64_t kFullCubeNodes = 9724;
constexpr uint64_t kFullCubeCellRows = 204204;

DwarfCube BuildFullCube() {
  CubeSchema schema("full",
                    {DimensionSpec("A"), DimensionSpec("B"), DimensionSpec("C"),
                     DimensionSpec("D")},
                    "m", AggFn::kSum);
  BuilderOptions options;
  options.num_threads = 1;
  DwarfBuilder builder(schema, options);
  for (int i = 0; i < static_cast<int>(kFullCubeTuples); ++i) {
    Status status = builder.AddTuple(
        {"a" + std::to_string(i / 8000), "b" + std::to_string(i / 400 % 20),
         "c" + std::to_string(i / 20 % 20), "d" + std::to_string(i % 20)},
        static_cast<Measure>(i % 13));
    EXPECT_TRUE(status.ok()) << status;
  }
  auto cube = std::move(builder).Build();
  EXPECT_TRUE(cube.ok()) << cube.status();
  return std::move(*cube);
}

TEST(ParallelSweepTest, EverySchemaStoresByteIdenticalFilesAtAnyThreadCount) {
  DwarfCube cube = BuildFullCube();
  ASSERT_EQ(cube.stats().tuple_count, kFullCubeTuples);
  ASSERT_EQ(cube.stats().node_count, kFullCubeNodes);
  ASSERT_EQ(cube.stats().cell_count + cube.stats().node_count,
            kFullCubeCellRows);

  // One durable Store() per schema into the data directory it is given.
  using StoreFn = std::function<void(const std::string& dir, int threads)>;
  const std::vector<std::pair<std::string, StoreFn>> schemas = {
      {"nosql_dwarf",
       [&](const std::string& dir, int threads) {
         auto db = nosql::Database::Open(dir);
         ASSERT_TRUE(db.ok()) << db.status();
         mapper::NoSqlDwarfMapper cube_mapper(&*db, "ks");
         mapper::NoSqlStoreStats stats;
         auto id = cube_mapper.Store(cube, {.num_threads = threads}, &stats);
         ASSERT_TRUE(id.ok()) << id.status();
         EXPECT_EQ(stats.node_rows, kFullCubeNodes);
         EXPECT_EQ(stats.cell_rows, kFullCubeCellRows);
       }},
      {"nosql_min",
       [&](const std::string& dir, int threads) {
         auto db = nosql::Database::Open(dir);
         ASSERT_TRUE(db.ok()) << db.status();
         mapper::NoSqlMinMapper cube_mapper(&*db, "ks");
         auto id = cube_mapper.Store(cube, {.num_threads = threads});
         ASSERT_TRUE(id.ok()) << id.status();
       }},
      {"mysql_dwarf",
       [&](const std::string& dir, int threads) {
         auto engine = sql::SqlEngine::Open(dir);
         ASSERT_TRUE(engine.ok()) << engine.status();
         mapper::SqlDwarfMapper cube_mapper(&*engine, "db");
         mapper::SqlDwarfStoreStats stats;
         auto id = cube_mapper.Store(cube, {.num_threads = threads}, &stats);
         ASSERT_TRUE(id.ok()) << id.status();
         EXPECT_EQ(stats.node_rows, kFullCubeNodes);
         EXPECT_EQ(stats.cell_rows, kFullCubeCellRows);
         EXPECT_EQ(stats.node_children_rows, kFullCubeCellRows);
       }},
      {"mysql_min",
       [&](const std::string& dir, int threads) {
         auto engine = sql::SqlEngine::Open(dir);
         ASSERT_TRUE(engine.ok()) << engine.status();
         mapper::SqlMinMapper cube_mapper(&*engine, "db");
         auto id = cube_mapper.Store(cube, {.num_threads = threads});
         ASSERT_TRUE(id.ok()) << id.status();
       }},
  };
  for (const auto& [schema, store] : schemas) {
    std::map<std::string, std::string> baseline;
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(schema + " threads=" + std::to_string(threads));
      fs::path dir = fs::temp_directory_path() /
                     ("scdwarf_schema_store_" + schema + "_" +
                      std::to_string(threads));
      fs::remove_all(dir);
      store(dir.string(), threads);
      std::map<std::string, std::string> files = ReadFiles(dir);
      fs::remove_all(dir);
      EXPECT_FALSE(files.empty());
      if (threads == 1) {
        baseline = std::move(files);
        continue;
      }
      ASSERT_EQ(files.size(), baseline.size());
      for (const auto& [name, bytes] : baseline) {
        auto it = files.find(name);
        ASSERT_NE(it, files.end()) << "missing file " << name;
        EXPECT_EQ(it->second, bytes) << "file bytes differ: " << name;
      }
    }
  }
}

// A merged cube computes its structural stats on the first stats() call.
// Server epochs share one cube across threads, so that first call can come
// from several at once; all must get the one memoized result, equal to a
// fresh walk. Under TSAN this is the race check for the memo.
TEST(ParallelSweepTest, ConcurrentFirstStatsCallsShareOneResult) {
  auto merged = MergeTuples(BuildWithThreads(1, nullptr),
                            {{{"d1", "s-new", "a1"}, 4}, {{"d2", "s2", "a2"}, 1}});
  ASSERT_TRUE(merged.ok()) << merged.status();
  const DwarfCube& cube = *merged;
  constexpr int kThreads = 8;
  std::atomic<int> waiting{kThreads};
  std::vector<const CubeStats*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Start together, so the first calls overlap.
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      seen[t] = &cube.stats();
    });
  }
  for (std::thread& thread : threads) thread.join();
  const CubeStats expected = cube.ComputeStats();
  for (const CubeStats* stats : seen) {
    ASSERT_EQ(stats, seen[0]);
    EXPECT_EQ(stats->node_count, expected.node_count);
    EXPECT_EQ(stats->cell_count, expected.cell_count);
    EXPECT_EQ(stats->coalesced_all_count, expected.coalesced_all_count);
    EXPECT_EQ(stats->tuple_count, expected.tuple_count);
    EXPECT_EQ(stats->approx_bytes, expected.approx_bytes);
  }
}

}  // namespace
}  // namespace scdwarf::dwarf
