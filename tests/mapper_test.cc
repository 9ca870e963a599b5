#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "citibikes/bike_feed.h"
#include "etl/parallel_pipeline.h"
#include "mapper/id_map.h"
#include "mapper/nosql_dwarf_mapper.h"
#include "mapper/nosql_min_mapper.h"
#include "mapper/sql_dwarf_mapper.h"
#include "mapper/sql_min_mapper.h"
#include "mapper/stored_cube.h"
#include "dwarf/builder.h"
#include "dwarf/query.h"
#include "dwarf/update.h"

namespace scdwarf::mapper {
namespace {

namespace fs = std::filesystem;

dwarf::DwarfCube BuildGeoCube() {
  dwarf::CubeSchema schema("geo",
                           {dwarf::DimensionSpec("Country"),
                            dwarf::DimensionSpec("City"),
                            dwarf::DimensionSpec("Station", "Station")},
                           "bikes", dwarf::AggFn::kSum);
  dwarf::DwarfBuilder builder(schema);
  EXPECT_TRUE(builder.AddTuple({"Ireland", "Dublin", "Fenian St"}, 3).ok());
  EXPECT_TRUE(builder.AddTuple({"Ireland", "Dublin", "Pearse St"}, 5).ok());
  EXPECT_TRUE(builder.AddTuple({"Ireland", "Cork", "Patrick St"}, 2).ok());
  EXPECT_TRUE(builder.AddTuple({"France", "Paris", "Bastille"}, 7).ok());
  return std::move(builder).Build().ValueOrDie();
}

/// A realistic cube from two days of generated feed (multiple documents).
dwarf::DwarfCube BuildBikesCube(uint64_t records = 600) {
  citibikes::BikeFeedConfig config;
  config.target_records = records;
  config.period_seconds = 2 * 24 * 3600;
  citibikes::BikeFeedGenerator feed(config);
  auto pipeline = etl::MakeBikesXmlParallelPipeline();
  EXPECT_TRUE(pipeline.ok()) << pipeline.status();
  while (feed.HasNext()) {
    Status status = pipeline->ConsumeXml(feed.NextXml());
    EXPECT_TRUE(status.ok()) << status;
  }
  auto cube = std::move(*pipeline).Finish();
  EXPECT_TRUE(cube.ok()) << cube.status();
  return std::move(cube).ValueOrDie();
}

// ----------------------------------------------------------------- id map

TEST(IdMapTest, AssignsEveryNodeAndCellOnce) {
  dwarf::DwarfCube cube = BuildGeoCube();
  CubeIdMap ids = AssignIds(cube, 100, 1000);
  EXPECT_EQ(ids.visit_order.size(), cube.num_nodes());
  std::set<int64_t> node_ids;
  std::set<int64_t> cell_ids;
  for (dwarf::NodeId node : ids.visit_order) {
    EXPECT_NE(ids.node_ids[node], CubeIdMap::kInvalidId);
    node_ids.insert(ids.node_ids[node]);
    const size_t num_cells = cube.node(node).cells.size();
    for (size_t c = 0; c <= num_cells; ++c) {  // the cells, then ALL
      cell_ids.insert(ids.first_cell_id[node] + static_cast<int64_t>(c));
    }
  }
  EXPECT_EQ(node_ids.size(), cube.num_nodes());
  EXPECT_EQ(*node_ids.begin(), 100);
  EXPECT_EQ(cell_ids.size(),
            cube.stats().cell_count + cube.num_nodes());  // + ALL cells
  EXPECT_EQ(*cell_ids.begin(), 1000);
  // Root gets the first node id (top-down order).
  EXPECT_EQ(ids.node_ids[cube.root()], 100);
}

TEST(IdMapTest, NumbersEachNodesCellsConsecutivelyInVisitOrder) {
  dwarf::DwarfCube cube = BuildGeoCube();
  CubeIdMap ids = AssignIds(cube, 7, 40);
  EXPECT_EQ(ids.visit_order, dwarf::CollectReachableNodes(
                                 cube, dwarf::TraversalOrder::kDepthFirst));
  // Node ids follow the visit order, and each node's cells take the next
  // ids: cells first ... first+n-1, then its ALL cell first+n.
  int64_t next_node = 7;
  int64_t next_cell = 40;
  for (dwarf::NodeId node : ids.visit_order) {
    EXPECT_EQ(ids.node_ids[node], next_node++);
    EXPECT_EQ(ids.first_cell_id[node], next_cell);
    next_cell += static_cast<int64_t>(cube.node(node).cells.size()) + 1;
  }
  EXPECT_EQ(ids.next_node_id, next_node);
  EXPECT_EQ(ids.next_cell_id, next_cell);

  // A store into an empty keyspace numbers from 0 as AssignIds(0, 0) does:
  // cell c of a node is stored under first + c, its ALL cell first + n.
  nosql::Database db;
  NoSqlDwarfMapper mapper(&db, "dwarfks");
  ASSERT_TRUE(mapper.Store(cube).ok());
  auto cells = db.GetTable("dwarfks", NoSqlDwarfMapper::kCellCf);
  ASSERT_TRUE(cells.ok()) << cells.status();
  CubeIdMap stored = AssignIds(cube, 0, 0);
  for (dwarf::NodeId node : stored.visit_order) {
    const dwarf::NodeView view = cube.node(node);
    for (size_t c = 0; c <= view.cells.size(); ++c) {
      auto row = (*cells)->GetByPk(
          Value::Int(stored.first_cell_id[node] + static_cast<int64_t>(c)));
      ASSERT_TRUE(row.ok()) << row.status();
      EXPECT_EQ(*(*row)[1].AsText(),
                c < view.cells.size()
                    ? cube.dictionary(view.level).DecodeUnchecked(
                          view.cells[c].key)
                    : std::string(kAllCellKey));
      EXPECT_EQ(*(*row)[3].AsInt(), stored.node_ids[node]);  // parentnode
    }
  }
}

TEST(IdMapTest, ReservedKeyValidation) {
  dwarf::CubeSchema schema("r", {dwarf::DimensionSpec("k")}, "m");
  dwarf::DwarfBuilder builder(schema);
  ASSERT_TRUE(builder.AddTuple({"ALL"}, 1).ok());
  dwarf::DwarfCube cube = std::move(builder).Build().ValueOrDie();
  EXPECT_TRUE(ValidateNoReservedKeys(cube).IsInvalidArgument());
  EXPECT_TRUE(ValidateNoReservedKeys(BuildGeoCube()).ok());
}

// ------------------------------------------------------------ meta codec

TEST(CubeMetaTest, RowsRoundTrip) {
  CubeMeta meta = CubeMeta::FromSchema(BuildGeoCube().schema());
  auto rows = MetaToRows(meta);
  auto decoded = MetaFromRows(rows);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->cube_name, "geo");
  EXPECT_EQ(decoded->dimension_names,
            (std::vector<std::string>{"Country", "City", "Station"}));
  EXPECT_EQ(decoded->dimension_tables[2], "Station");
  EXPECT_EQ(decoded->measure_name, "bikes");
  EXPECT_EQ(decoded->agg, dwarf::AggFn::kSum);
  auto schema = decoded->ToSchema();
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_dimensions(), 3u);
}

TEST(CubeMetaTest, RejectsGapsAndUnknownKinds) {
  EXPECT_TRUE(MetaFromRows({{"dimension", 1, "b"}}).status().IsParseError());
  EXPECT_TRUE(MetaFromRows({{"wat", 0, "x"}}).status().IsParseError());
  EXPECT_TRUE(MetaFromRows({{"name", 0, "x"}}).status().IsNotFound());
}

// -------------------------------------------------- round trips (4 mappers)

void ExpectCubesEquivalent(const dwarf::DwarfCube& original,
                           const dwarf::DwarfCube& rebuilt) {
  ASSERT_EQ(rebuilt.num_dimensions(), original.num_dimensions());
  EXPECT_TRUE(rebuilt.StructurallyEquals(original))
      << "original:\n"
      << (original.num_nodes() < 40 ? original.ToDebugString() : "(large)")
      << "rebuilt:\n"
      << (rebuilt.num_nodes() < 40 ? rebuilt.ToDebugString() : "(large)");
  // Grand total must agree regardless of structure.
  std::vector<std::optional<dwarf::DimKey>> all(original.num_dimensions(),
                                                std::nullopt);
  EXPECT_EQ(dwarf::PointQuery(original, all).ValueOr(-1),
            dwarf::PointQuery(rebuilt, all).ValueOr(-1));
}

TEST(NoSqlDwarfMapperTest, GeoRoundTrip) {
  nosql::Database db;
  NoSqlDwarfMapper mapper(&db, "dwarfks");
  dwarf::DwarfCube cube = BuildGeoCube();
  NoSqlStoreStats stats;
  auto schema_id = mapper.Store(cube, {}, &stats);
  ASSERT_TRUE(schema_id.ok()) << schema_id.status();
  EXPECT_EQ(stats.node_rows, cube.num_nodes());
  EXPECT_EQ(stats.cell_rows, cube.stats().cell_count + cube.num_nodes());
  auto rebuilt = mapper.Load(*schema_id);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ExpectCubesEquivalent(cube, *rebuilt);
}

TEST(NoSqlDwarfMapperTest, BikesRoundTrip) {
  nosql::Database db;
  NoSqlDwarfMapper mapper(&db, "dwarfks");
  dwarf::DwarfCube cube = BuildBikesCube();
  auto schema_id = mapper.Store(cube);
  ASSERT_TRUE(schema_id.ok()) << schema_id.status();
  auto rebuilt = mapper.Load(*schema_id);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ExpectCubesEquivalent(cube, *rebuilt);
}

TEST(NoSqlDwarfMapperTest, MultipleCubesShareColumnFamilies) {
  nosql::Database db;
  NoSqlDwarfMapper mapper(&db, "dwarfks");
  auto id1 = mapper.Store(BuildGeoCube());
  auto id2 = mapper.Store(BuildBikesCube(200));
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(*id1, *id2);
  auto ids = mapper.ListSchemas();
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 2u);
  // Both cubes still load correctly.
  ExpectCubesEquivalent(BuildGeoCube(), *mapper.Load(*id1));
  ExpectCubesEquivalent(BuildBikesCube(200), *mapper.Load(*id2));
}

TEST(NoSqlDwarfMapperTest, CqlStatementModeMatchesBulkMode) {
  nosql::Database bulk_db;
  nosql::Database cql_db;
  dwarf::DwarfCube cube = BuildGeoCube();
  NoSqlDwarfMapper bulk_mapper(&bulk_db, "dwarfks");
  NoSqlDwarfMapper cql_mapper(&cql_db, "dwarfks");
  auto bulk_id = bulk_mapper.Store(cube);
  NoSqlDwarfMapperOptions options;
  options.via_cql_statements = true;
  NoSqlStoreStats stats;
  auto cql_id = cql_mapper.Store(cube, options, &stats);
  ASSERT_TRUE(bulk_id.ok());
  ASSERT_TRUE(cql_id.ok()) << cql_id.status();
  EXPECT_GT(stats.statements, cube.num_nodes());
  ExpectCubesEquivalent(*bulk_mapper.Load(*bulk_id), *cql_mapper.Load(*cql_id));
}

TEST(NoSqlDwarfMapperTest, EmptyCubeRoundTrip) {
  nosql::Database db;
  NoSqlDwarfMapper mapper(&db, "dwarfks");
  dwarf::CubeSchema schema("e", {dwarf::DimensionSpec("x")}, "m");
  dwarf::DwarfBuilder builder(schema);
  dwarf::DwarfCube cube = std::move(builder).Build().ValueOrDie();
  auto id = mapper.Store(cube);
  ASSERT_TRUE(id.ok()) << id.status();
  auto rebuilt = mapper.Load(*id);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_TRUE(rebuilt->empty());
}

TEST(NoSqlDwarfMapperTest, IsCubeFlagDistinguishesDerivedCubes) {
  nosql::Database db;
  NoSqlDwarfMapper mapper(&db, "dwarfks");
  dwarf::DwarfCube cube = BuildGeoCube();
  auto full_id = mapper.Store(cube);
  ASSERT_TRUE(full_id.ok());
  EXPECT_FALSE(*mapper.IsDerivedCube(*full_id));

  // A sub-cube materialized from a query is stored with is_cube = true.
  dwarf::DimKey ireland = cube.dictionary(0).Lookup("Ireland").ValueOrDie();
  auto sub = dwarf::MaterializeSubCube(
      cube, {dwarf::DimPredicate::Point(ireland), dwarf::DimPredicate::All(),
             dwarf::DimPredicate::All()});
  ASSERT_TRUE(sub.ok()) << sub.status();
  NoSqlDwarfMapperOptions options;
  options.is_derived_cube = true;
  auto sub_id = mapper.Store(*sub, options);
  ASSERT_TRUE(sub_id.ok());
  EXPECT_TRUE(*mapper.IsDerivedCube(*sub_id));
  // Both load back correctly and independently.
  ExpectCubesEquivalent(cube, *mapper.Load(*full_id));
  ExpectCubesEquivalent(*sub, *mapper.Load(*sub_id));
}

TEST(NoSqlDwarfMapperTest, LoadUnknownSchemaIsNotFound) {
  nosql::Database db;
  NoSqlDwarfMapper mapper(&db, "dwarfks");
  ASSERT_TRUE(mapper.EnsureSchema().ok());
  EXPECT_TRUE(mapper.Load(42).status().IsNotFound());
}

TEST(NoSqlMinMapperTest, GeoRoundTrip) {
  nosql::Database db;
  NoSqlMinMapper mapper(&db, "minks");
  dwarf::DwarfCube cube = BuildGeoCube();
  auto id = mapper.Store(cube);
  ASSERT_TRUE(id.ok()) << id.status();
  auto rebuilt = mapper.Load(*id);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ExpectCubesEquivalent(cube, *rebuilt);
}

TEST(NoSqlMinMapperTest, BikesRoundTrip) {
  nosql::Database db;
  NoSqlMinMapper mapper(&db, "minks");
  dwarf::DwarfCube cube = BuildBikesCube();
  auto id = mapper.Store(cube);
  ASSERT_TRUE(id.ok()) << id.status();
  auto rebuilt = mapper.Load(*id);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ExpectCubesEquivalent(cube, *rebuilt);
}

TEST(NoSqlMinMapperTest, SecondaryIndexesCreatedByDefault) {
  nosql::Database db;
  NoSqlMinMapper mapper(&db, "minks");
  ASSERT_TRUE(mapper.EnsureSchema().ok());
  auto table = db.GetTable("minks", NoSqlMinMapper::kCellTable);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->schema().secondary_indexes().size(), 2u);
}

TEST(NoSqlMinMapperTest, IndexAblationSkipsIndexes) {
  nosql::Database db;
  NoSqlMinMapperOptions options;
  options.create_secondary_indexes = false;
  NoSqlMinMapper mapper(&db, "minks", options);
  dwarf::DwarfCube cube = BuildGeoCube();
  auto id = mapper.Store(cube);
  ASSERT_TRUE(id.ok()) << id.status();
  auto table = db.GetTable("minks", NoSqlMinMapper::kCellTable);
  EXPECT_TRUE((*table)->schema().secondary_indexes().empty());
  // Load still works (falls back to filtering scans).
  auto rebuilt = mapper.Load(*id);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ExpectCubesEquivalent(cube, *rebuilt);
}

TEST(SqlDwarfMapperTest, GeoRoundTrip) {
  sql::SqlEngine engine;
  SqlDwarfMapper mapper(&engine, "dwarfdb");
  dwarf::DwarfCube cube = BuildGeoCube();
  SqlDwarfStoreStats stats;
  auto id = mapper.Store(cube, {}, &stats);
  ASSERT_TRUE(id.ok()) << id.status();
  // Every cell yields a NODE_CHILDREN row; every interior cell a
  // CELL_CHILDREN row — the Fig. 4 row explosion.
  EXPECT_EQ(stats.node_children_rows, stats.cell_rows);
  EXPECT_GT(stats.cell_children_rows, 0u);
  EXPECT_LT(stats.cell_children_rows, stats.cell_rows);
  auto rebuilt = mapper.Load(*id);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ExpectCubesEquivalent(cube, *rebuilt);
}

TEST(SqlDwarfMapperTest, BikesRoundTrip) {
  sql::SqlEngine engine;
  SqlDwarfMapper mapper(&engine, "dwarfdb");
  dwarf::DwarfCube cube = BuildBikesCube();
  auto id = mapper.Store(cube);
  ASSERT_TRUE(id.ok()) << id.status();
  auto rebuilt = mapper.Load(*id);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ExpectCubesEquivalent(cube, *rebuilt);
}

TEST(SqlMinMapperTest, GeoRoundTrip) {
  sql::SqlEngine engine;
  SqlMinMapper mapper(&engine, "mindb");
  dwarf::DwarfCube cube = BuildGeoCube();
  auto id = mapper.Store(cube);
  ASSERT_TRUE(id.ok()) << id.status();
  auto rebuilt = mapper.Load(*id);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ExpectCubesEquivalent(cube, *rebuilt);
}

TEST(SqlMinMapperTest, BikesRoundTrip) {
  sql::SqlEngine engine;
  SqlMinMapper mapper(&engine, "mindb");
  dwarf::DwarfCube cube = BuildBikesCube();
  auto id = mapper.Store(cube);
  ASSERT_TRUE(id.ok()) << id.status();
  auto rebuilt = mapper.Load(*id);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ExpectCubesEquivalent(cube, *rebuilt);
}

TEST(SqlMinMapperTest, MultipleCubesShareTables) {
  sql::SqlEngine engine;
  SqlMinMapper mapper(&engine, "mindb");
  auto id1 = mapper.Store(BuildGeoCube());
  auto id2 = mapper.Store(BuildBikesCube(200));
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  ExpectCubesEquivalent(BuildGeoCube(), *mapper.Load(*id1));
  ExpectCubesEquivalent(BuildBikesCube(200), *mapper.Load(*id2));
}

// Queries against a rebuilt cube must answer like the original.
TEST(MapperQueryEquivalenceTest, PointQueriesSurviveRoundTrip) {
  nosql::Database db;
  NoSqlDwarfMapper mapper(&db, "dwarfks");
  dwarf::DwarfCube cube = BuildBikesCube(400);
  auto id = mapper.Store(cube);
  ASSERT_TRUE(id.ok());
  auto rebuilt = mapper.Load(*id);
  ASSERT_TRUE(rebuilt.ok());
  // Roll up by weekday on both.
  auto original_rows = dwarf::RollUp(cube, {2});
  auto rebuilt_rows = dwarf::RollUp(*rebuilt, {2});
  ASSERT_TRUE(original_rows.ok());
  ASSERT_TRUE(rebuilt_rows.ok());
  std::map<std::string, dwarf::Measure> original_map;
  for (const auto& row : *original_rows) original_map[row.keys[0]] = row.measure;
  std::map<std::string, dwarf::Measure> rebuilt_map;
  for (const auto& row : *rebuilt_rows) rebuilt_map[row.keys[0]] = row.measure;
  EXPECT_EQ(original_map, rebuilt_map);
}

// Durable round trip through an on-disk NoSQL database.
TEST(MapperDurabilityTest, RoundTripThroughDisk) {
  fs::path dir = fs::temp_directory_path() /
                 ("scdwarf_mapper_disk_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  dwarf::DwarfCube cube = BuildGeoCube();
  int64_t id = -1;
  {
    auto db = nosql::Database::Open(dir.string());
    ASSERT_TRUE(db.ok());
    NoSqlDwarfMapper mapper(&*db, "dwarfks");
    auto stored = mapper.Store(cube);
    ASSERT_TRUE(stored.ok()) << stored.status();
    id = *stored;
    ASSERT_TRUE(db->Flush().ok());
  }
  {
    auto db = nosql::Database::Open(dir.string());
    ASSERT_TRUE(db.ok()) << db.status();
    NoSqlDwarfMapper mapper(&*db, "dwarfks");
    auto rebuilt = mapper.Load(id);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    ExpectCubesEquivalent(cube, *rebuilt);
  }
  fs::remove_all(dir);
}

// ------------------------------------- one suite over the four schemas

/// A store of one of the four schemas — in memory, or durable under a
/// directory — behind the calls every mapper has.
struct SchemaStore {
  std::unique_ptr<nosql::Database> db;
  std::unique_ptr<sql::SqlEngine> engine;
  std::function<Result<int64_t>(const dwarf::DwarfCube&)> store;
  std::function<Result<dwarf::DwarfCube>(int64_t)> load;
  std::function<Status(int64_t)> delete_cube;
};

template <typename Mapper, typename Engine>
void BindMapper(SchemaStore* s, Engine* engine) {
  auto mapper = std::make_shared<Mapper>(engine, "scope");
  s->store = [mapper](const dwarf::DwarfCube& cube) {
    return mapper->Store(cube);
  };
  s->load = [mapper](int64_t id) { return mapper->Load(id); };
  s->delete_cube = [mapper](int64_t id) { return mapper->DeleteCube(id); };
}

/// Opens \p schema's store under \p dir, or in memory when it is empty.
SchemaStore OpenSchemaStore(const std::string& schema,
                            const std::string& dir = "") {
  SchemaStore s;
  if (schema.rfind("nosql", 0) == 0) {
    s.db = std::make_unique<nosql::Database>();
    if (!dir.empty()) {
      auto db = nosql::Database::Open(dir);
      EXPECT_TRUE(db.ok()) << db.status();
      *s.db = std::move(*db);
    }
    if (schema == "nosql_dwarf") {
      BindMapper<NoSqlDwarfMapper>(&s, s.db.get());
    } else {
      BindMapper<NoSqlMinMapper>(&s, s.db.get());
    }
  } else {
    s.engine = std::make_unique<sql::SqlEngine>();
    if (!dir.empty()) {
      auto engine = sql::SqlEngine::Open(dir);
      EXPECT_TRUE(engine.ok()) << engine.status();
      *s.engine = std::move(*engine);
    }
    if (schema == "mysql_dwarf") {
      BindMapper<SqlDwarfMapper>(&s, s.engine.get());
    } else {
      BindMapper<SqlMinMapper>(&s, s.engine.get());
    }
  }
  return s;
}

class EverySchemaTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EverySchemaTest, GeoAndBikesRoundTrip) {
  SchemaStore s = OpenSchemaStore(GetParam());
  for (const dwarf::DwarfCube& cube : {BuildGeoCube(), BuildBikesCube()}) {
    auto id = s.store(cube);
    ASSERT_TRUE(id.ok()) << id.status();
    auto rebuilt = s.load(*id);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    ExpectCubesEquivalent(cube, *rebuilt);
  }
}

TEST_P(EverySchemaTest, TwoCubesShareTables) {
  SchemaStore s = OpenSchemaStore(GetParam());
  auto id1 = s.store(BuildGeoCube());
  auto id2 = s.store(BuildBikesCube(200));
  ASSERT_TRUE(id1.ok()) << id1.status();
  ASSERT_TRUE(id2.ok()) << id2.status();
  EXPECT_NE(*id1, *id2);
  ExpectCubesEquivalent(BuildGeoCube(), *s.load(*id1));
  ExpectCubesEquivalent(BuildBikesCube(200), *s.load(*id2));
}

TEST_P(EverySchemaTest, DeleteLeavesTheOtherCubeAndTheNextStoreGetsAFreshId) {
  SchemaStore s = OpenSchemaStore(GetParam());
  auto id1 = s.store(BuildGeoCube());
  auto id2 = s.store(BuildBikesCube(200));
  ASSERT_TRUE(id1.ok()) << id1.status();
  ASSERT_TRUE(id2.ok()) << id2.status();
  ASSERT_TRUE(s.delete_cube(*id1).ok());
  EXPECT_TRUE(s.load(*id1).status().IsNotFound());
  ExpectCubesEquivalent(BuildBikesCube(200), *s.load(*id2));
  auto id3 = s.store(BuildGeoCube());
  ASSERT_TRUE(id3.ok()) << id3.status();
  EXPECT_NE(*id3, *id1);
  EXPECT_NE(*id3, *id2);
  ExpectCubesEquivalent(BuildGeoCube(), *s.load(*id3));
  ExpectCubesEquivalent(BuildBikesCube(200), *s.load(*id2));
}

TEST_P(EverySchemaTest, EmptyCubeRoundTrip) {
  SchemaStore s = OpenSchemaStore(GetParam());
  dwarf::CubeSchema schema("e", {dwarf::DimensionSpec("x")}, "m");
  dwarf::DwarfCube cube = dwarf::DwarfBuilder(schema).Build().ValueOrDie();
  auto id = s.store(cube);
  ASSERT_TRUE(id.ok()) << id.status();
  auto rebuilt = s.load(*id);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_TRUE(rebuilt->empty());
}

TEST_P(EverySchemaTest, UnknownIdIsNotFound) {
  SchemaStore s = OpenSchemaStore(GetParam());
  auto id = s.store(BuildGeoCube());
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_TRUE(s.load(*id + 1).status().IsNotFound());
  EXPECT_TRUE(s.delete_cube(*id + 1).IsNotFound());
  ExpectCubesEquivalent(BuildGeoCube(), *s.load(*id));
}

TEST_P(EverySchemaTest, DurableStoreReopensAndLoads) {
  fs::path dir = fs::temp_directory_path() /
                 ("scdwarf_every_schema_" + GetParam() + "_" +
                  std::to_string(::getpid()));
  fs::remove_all(dir);
  dwarf::DwarfCube cube = BuildBikesCube(300);
  int64_t id = -1;
  {
    SchemaStore s = OpenSchemaStore(GetParam(), dir.string());
    auto stored = s.store(cube);
    ASSERT_TRUE(stored.ok()) << stored.status();
    id = *stored;
  }
  {
    SchemaStore s = OpenSchemaStore(GetParam(), dir.string());
    auto rebuilt = s.load(id);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    ExpectCubesEquivalent(cube, *rebuilt);
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(FourSchemas, EverySchemaTest,
                         ::testing::Values("nosql_dwarf", "nosql_min",
                                           "mysql_dwarf", "mysql_min"),
                         [](const auto& info) { return info.param; });

// ----------------------------------------------- create-if-missing checks

// A durable Min cell table without its indexes (the index ablation's
// store, or a crash between CreateTable and CreateIndex) gets them at the
// next store.
TEST(NoSqlMinMapperTest, ExistingCellTableWithoutIndexesGetsThem) {
  fs::path dir = fs::temp_directory_path() /
                 ("scdwarf_min_indexes_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    auto db = nosql::Database::Open(dir.string());
    ASSERT_TRUE(db.ok()) << db.status();
    NoSqlMinMapper ablation(&*db, "minks", {.create_secondary_indexes = false});
    ASSERT_TRUE(ablation.EnsureSchema().ok());
  }
  auto db = nosql::Database::Open(dir.string());
  ASSERT_TRUE(db.ok()) << db.status();
  auto table = db->GetTable("minks", NoSqlMinMapper::kCellTable);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_TRUE((*table)->schema().secondary_indexes().empty());
  NoSqlMinMapper mapper(&*db, "minks");
  auto id = mapper.Store(BuildGeoCube());
  ASSERT_TRUE(id.ok()) << id.status();
  table = db->GetTable("minks", NoSqlMinMapper::kCellTable);
  EXPECT_EQ((*table)->schema().secondary_indexes().size(), 2u);
  ExpectCubesEquivalent(BuildGeoCube(), *mapper.Load(*id));
  fs::remove_all(dir);
}

/// Rows per table of \p scope.
template <typename Engine>
std::map<std::string, size_t> RowCounts(const Engine& engine,
                                        const std::string& scope) {
  std::map<std::string, size_t> counts;
  const std::vector<std::string> tables = engine.ListTables(scope).ValueOrDie();
  for (const std::string& table : tables) {
    counts[table] = engine.GetTable(scope, table).ValueOrDie()->num_rows();
  }
  return counts;
}

// The DWARF and Min layouts both name a table dwarf_cell (and, on SQL,
// dwarf_cube) with other columns: storing one layout into the other's
// scope fails before any table or row is written.
TEST(SchemaConflictTest, NoSqlDwarfStoreIntoAMinKeyspaceWritesNoRow) {
  nosql::Database db;
  ASSERT_TRUE(NoSqlMinMapper(&db, "ks").Store(BuildGeoCube()).ok());
  const auto before = RowCounts(db, "ks");
  Status status = NoSqlDwarfMapper(&db, "ks").Store(BuildBikesCube()).status();
  EXPECT_TRUE(status.IsFailedPrecondition()) << status;
  EXPECT_NE(status.message().find("ks.dwarf_cell"), std::string::npos)
      << status;
  EXPECT_EQ(RowCounts(db, "ks"), before);  // no table and no row added
}

TEST(SchemaConflictTest, SqlDwarfStoreIntoAMinDatabaseWritesNoRow) {
  sql::SqlEngine engine;
  ASSERT_TRUE(SqlMinMapper(&engine, "db").Store(BuildGeoCube()).ok());
  const auto before = RowCounts(engine, "db");
  Status status =
      SqlDwarfMapper(&engine, "db").Store(BuildBikesCube()).status();
  EXPECT_TRUE(status.IsFailedPrecondition()) << status;
  EXPECT_NE(status.message().find("db.dwarf_cube"), std::string::npos)
      << status;
  EXPECT_EQ(RowCounts(engine, "db"), before);  // no table and no row added
}

}  // namespace
}  // namespace scdwarf::mapper
