// End-to-end integration across every module: generated feeds flow through
// the ETL pipeline into a cube, through all four storage mappings and the
// flat-file baseline, and every stored representation answers queries
// identically. This is the whole §1-§4 system exercised in one pass.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <optional>

#include "citibikes/bike_feed.h"
#include "citibikes/datasets.h"
#include "clustered/flat_file.h"
#include "dwarf/hierarchy.h"
#include "dwarf/query.h"
#include "dwarf/update.h"
#include "etl/parallel_pipeline.h"
#include "mapper/nosql_dwarf_mapper.h"
#include "mapper/nosql_min_mapper.h"
#include "mapper/sql_dwarf_mapper.h"
#include "mapper/sql_min_mapper.h"
#include "nosql/cql.h"
#include "sql/sql.h"

namespace scdwarf {
namespace {

namespace fs = std::filesystem;

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    citibikes::BikeFeedConfig config;
    config.target_records = 3000;
    config.period_seconds = 3 * 24 * 3600;
    citibikes::BikeFeedGenerator feed(config);
    auto pipeline = etl::MakeBikesXmlParallelPipeline();
    ASSERT_TRUE(pipeline.ok());
    while (feed.HasNext()) {
      ASSERT_TRUE(pipeline->ConsumeXml(feed.NextXml()).ok());
    }
    auto cube = std::move(*pipeline).Finish();
    ASSERT_TRUE(cube.ok()) << cube.status();
    cube_ = new dwarf::DwarfCube(std::move(cube).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete cube_;
    cube_ = nullptr;
  }

  /// Compares a handful of representative queries between two cubes.
  static void ExpectQueryEquivalent(const dwarf::DwarfCube& a,
                                    const dwarf::DwarfCube& b) {
    std::vector<std::optional<std::string>> grand(8, std::nullopt);
    EXPECT_EQ(dwarf::PointQueryByName(a, grand).ValueOr(-1),
              dwarf::PointQueryByName(b, grand).ValueOr(-1));
    for (const char* day : {"Friday", "Saturday", "Sunday"}) {
      std::vector<std::optional<std::string>> query(8, std::nullopt);
      query[2] = day;
      EXPECT_EQ(dwarf::PointQueryByName(a, query).ValueOr(-1),
                dwarf::PointQueryByName(b, query).ValueOr(-1))
          << day;
    }
    auto rows_a = dwarf::RollUp(a, {4});
    auto rows_b = dwarf::RollUp(b, {4});
    ASSERT_TRUE(rows_a.ok());
    ASSERT_TRUE(rows_b.ok());
    std::map<std::string, dwarf::Measure> map_a, map_b;
    for (const auto& row : *rows_a) map_a[row.keys[0]] = row.measure;
    for (const auto& row : *rows_b) map_b[row.keys[0]] = row.measure;
    EXPECT_EQ(map_a, map_b);
  }

  static dwarf::DwarfCube* cube_;
};

dwarf::DwarfCube* IntegrationTest::cube_ = nullptr;

TEST_F(IntegrationTest, CubeHasExpectedShape) {
  EXPECT_EQ(cube_->num_dimensions(), 8u);
  EXPECT_EQ(cube_->stats().source_tuple_count, 3000u);
  EXPECT_GT(cube_->stats().coalesced_all_count, 0u);
}

TEST_F(IntegrationTest, AllFourStoresRoundTripAndAgree) {
  // NoSQL-DWARF.
  nosql::Database nosql_dwarf_db;
  mapper::NoSqlDwarfMapper nosql_dwarf(&nosql_dwarf_db, "dwarfks");
  auto id1 = nosql_dwarf.Store(*cube_);
  ASSERT_TRUE(id1.ok()) << id1.status();
  auto cube1 = nosql_dwarf.Load(*id1);
  ASSERT_TRUE(cube1.ok()) << cube1.status();
  EXPECT_TRUE(cube1->StructurallyEquals(*cube_));
  ExpectQueryEquivalent(*cube_, *cube1);

  // NoSQL-Min.
  nosql::Database nosql_min_db;
  mapper::NoSqlMinMapper nosql_min(&nosql_min_db, "minks");
  auto id2 = nosql_min.Store(*cube_);
  ASSERT_TRUE(id2.ok()) << id2.status();
  auto cube2 = nosql_min.Load(*id2);
  ASSERT_TRUE(cube2.ok()) << cube2.status();
  EXPECT_TRUE(cube2->StructurallyEquals(*cube_));

  // MySQL-DWARF.
  sql::SqlEngine sql_dwarf_engine;
  mapper::SqlDwarfMapper sql_dwarf(&sql_dwarf_engine, "dwarfdb");
  auto id3 = sql_dwarf.Store(*cube_);
  ASSERT_TRUE(id3.ok()) << id3.status();
  auto cube3 = sql_dwarf.Load(*id3);
  ASSERT_TRUE(cube3.ok()) << cube3.status();
  EXPECT_TRUE(cube3->StructurallyEquals(*cube_));

  // MySQL-Min.
  sql::SqlEngine sql_min_engine;
  mapper::SqlMinMapper sql_min(&sql_min_engine, "mindb");
  auto id4 = sql_min.Store(*cube_);
  ASSERT_TRUE(id4.ok()) << id4.status();
  auto cube4 = sql_min.Load(*id4);
  ASSERT_TRUE(cube4.ok()) << cube4.status();
  EXPECT_TRUE(cube4->StructurallyEquals(*cube_));

  // All rebuilt cubes agree with each other.
  ExpectQueryEquivalent(*cube1, *cube2);
  ExpectQueryEquivalent(*cube2, *cube3);
  ExpectQueryEquivalent(*cube3, *cube4);
}

TEST_F(IntegrationTest, StoreSizeRelationsOnThisCube) {
  // The Table-4 relations hold even at this small scale when measured via
  // serialized bytes (memory mode).
  nosql::Database nosql_dwarf_db;
  mapper::NoSqlDwarfMapper nosql_dwarf(&nosql_dwarf_db, "dwarfks");
  ASSERT_TRUE(nosql_dwarf.Store(*cube_).ok());
  nosql::Database nosql_min_db;
  mapper::NoSqlMinMapper nosql_min(&nosql_min_db, "minks");
  ASSERT_TRUE(nosql_min.Store(*cube_).ok());
  sql::SqlEngine sql_dwarf_engine;
  mapper::SqlDwarfMapper sql_dwarf(&sql_dwarf_engine, "dwarfdb");
  ASSERT_TRUE(sql_dwarf.Store(*cube_).ok());
  sql::SqlEngine sql_min_engine;
  mapper::SqlMinMapper sql_min(&sql_min_engine, "mindb");
  ASSERT_TRUE(sql_min.Store(*cube_).ok());

  uint64_t mysql_dwarf_bytes = sql_dwarf_engine.EstimateBytes();
  uint64_t mysql_min_bytes = sql_min_engine.EstimateBytes();
  uint64_t nosql_dwarf_bytes = nosql_dwarf_db.EstimateBytes();
  uint64_t nosql_min_bytes = nosql_min_db.EstimateBytes();
  EXPECT_GT(mysql_dwarf_bytes, mysql_min_bytes);
  EXPECT_GT(mysql_dwarf_bytes, nosql_dwarf_bytes);
  EXPECT_GT(mysql_dwarf_bytes, nosql_min_bytes);
  EXPECT_GT(nosql_min_bytes, nosql_dwarf_bytes);
}

TEST_F(IntegrationTest, FlatFileAgreesWithStores) {
  fs::path path = fs::temp_directory_path() /
                  ("scdwarf_integration_" + std::to_string(::getpid()) +
                   ".dwarf");
  ASSERT_TRUE(clustered::WriteDwarfFile(*cube_, path.string(),
                                        clustered::ClusterLayout::kRecursive)
                  .ok());
  auto file_cube = clustered::FlatFileCube::Open(path.string());
  ASSERT_TRUE(file_cube.ok());
  std::vector<std::optional<std::string>> grand(8, std::nullopt);
  EXPECT_EQ(*file_cube->PointQuery(grand),
            *dwarf::PointQueryByName(*cube_, grand));
  auto loaded = clustered::ReadDwarfFile(path.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->StructurallyEquals(*cube_));
  fs::remove(path);
}

TEST_F(IntegrationTest, CqlAndSqlLayersSeeTheStoredCube) {
  nosql::Database db;
  mapper::NoSqlDwarfMapper nosql_mapper(&db, "dwarfks");
  auto id = nosql_mapper.Store(*cube_);
  ASSERT_TRUE(id.ok());
  // Count schema rows through CQL.
  auto result = nosql::ExecuteCql(
      &db, "SELECT node_count, cell_count FROM dwarfks.dwarf_schema WHERE id = " +
               std::to_string(*id));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(*result->rows[0][0].AsInt(),
            static_cast<int64_t>(cube_->num_nodes()));

  sql::SqlEngine engine;
  mapper::SqlDwarfMapper sql_mapper(&engine, "dwarfdb");
  auto sql_id = sql_mapper.Store(*cube_);
  ASSERT_TRUE(sql_id.ok());
  auto sql_result = sql::ExecuteSql(
      &engine, "SELECT node_count FROM dwarfdb.dwarf_cube WHERE id = " +
                   std::to_string(*sql_id));
  ASSERT_TRUE(sql_result.ok()) << sql_result.status();
  ASSERT_EQ(sql_result->rows.size(), 1u);
  EXPECT_EQ(*sql_result->rows[0][0].AsInt(),
            static_cast<int64_t>(cube_->num_nodes()));
}

TEST_F(IntegrationTest, EmittedDdlParsesBack) {
  // Every DDL statement the schema renderers emit must parse through the
  // corresponding language layer and produce the same table shape.
  nosql::Database source_db;
  mapper::NoSqlDwarfMapper source_mapper(&source_db, "dwarfks");
  ASSERT_TRUE(source_mapper.EnsureSchema().ok());

  nosql::Database fresh;
  ASSERT_TRUE(nosql::ExecuteCql(&fresh, "CREATE KEYSPACE dwarfks").ok());
  auto cql_tables = source_db.ListTables("dwarfks");
  ASSERT_TRUE(cql_tables.ok());
  for (const std::string& name : *cql_tables) {
    auto table = source_db.GetTable("dwarfks", name);
    ASSERT_TRUE(table.ok());
    auto created = nosql::ExecuteCql(&fresh, (*table)->schema().ToCqlDdl());
    ASSERT_TRUE(created.ok()) << (*table)->schema().ToCqlDdl() << "\n"
                              << created.status();
    for (const std::string& index : (*table)->schema().ToCreateIndexDdl()) {
      ASSERT_TRUE(nosql::ExecuteCql(&fresh, index).ok()) << index;
    }
    auto fresh_table = fresh.GetTable("dwarfks", name);
    ASSERT_TRUE(fresh_table.ok());
    EXPECT_EQ((*fresh_table)->schema(), (*table)->schema());
  }

  sql::SqlEngine source_engine;
  mapper::SqlDwarfMapper sql_mapper(&source_engine, "dwarfdb");
  ASSERT_TRUE(sql_mapper.EnsureSchema().ok());
  sql::SqlEngine fresh_engine;
  ASSERT_TRUE(sql::ExecuteSql(&fresh_engine, "CREATE DATABASE dwarfdb").ok());
  auto sql_tables = source_engine.ListTables("dwarfdb");
  ASSERT_TRUE(sql_tables.ok());
  for (const std::string& name : *sql_tables) {
    auto table = source_engine.GetTable("dwarfdb", name);
    ASSERT_TRUE(table.ok());
    auto created = sql::ExecuteSql(&fresh_engine, (*table)->def().ToSqlDdl());
    ASSERT_TRUE(created.ok()) << (*table)->def().ToSqlDdl() << "\n"
                              << created.status();
  }
}

TEST_F(IntegrationTest, UpdateThenStoreThenHierarchyQuery) {
  // Merge a batch into the cube, persist it, rebuild, and answer a
  // hierarchical query on the rebuilt cube — §6 + §7 combined.
  dwarf::DwarfCube working = *cube_;
  auto base_total = dwarf::PointQueryByName(
      working, std::vector<std::optional<std::string>>(8, std::nullopt));
  ASSERT_TRUE(base_total.ok());

  auto tuples = dwarf::ExtractBaseTuples(working);
  ASSERT_TRUE(tuples.ok());
  // New tuple reusing an existing coordinate: grand total changes by its
  // measure.
  std::vector<std::string> coordinate = (*tuples)[0].keys;
  auto updated = dwarf::MergeTuples(std::move(working), {{coordinate, 100}});
  ASSERT_TRUE(updated.ok()) << updated.status();
  auto new_total = dwarf::PointQueryByName(
      *updated, std::vector<std::optional<std::string>>(8, std::nullopt));
  ASSERT_TRUE(new_total.ok());
  EXPECT_EQ(*new_total, *base_total + 100);

  nosql::Database db;
  mapper::NoSqlDwarfMapper store(&db, "dwarfks");
  auto id = store.Store(*updated);
  ASSERT_TRUE(id.ok());
  auto reloaded = store.Load(*id);
  ASSERT_TRUE(reloaded.ok());

  // Hierarchy over the Area dimension (level 4): City > Area.
  auto hierarchy = dwarf::Hierarchy::Create("geo", {"City", "Area"});
  ASSERT_TRUE(hierarchy.ok());
  const dwarf::Dictionary& areas = reloaded->dictionary(4);
  for (dwarf::DimKey id2 = 0; id2 < areas.size(); ++id2) {
    ASSERT_TRUE(
        hierarchy->AddEdge(1, areas.DecodeUnchecked(id2), "Dublin").ok());
  }
  auto dublin = dwarf::HierarchicalQuery(*reloaded, 4, *hierarchy, 0, "Dublin");
  ASSERT_TRUE(dublin.ok()) << dublin.status();
  EXPECT_EQ(*dublin, *new_total);  // every area is in Dublin
}

}  // namespace
}  // namespace scdwarf
