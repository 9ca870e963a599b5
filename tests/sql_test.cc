#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "sql/engine.h"
#include "sql/sql.h"

namespace scdwarf::sql {
namespace {

namespace fs = std::filesystem;

SqlTableDef NodeDef() {
  // DWARF_NODE of the MySQL-DWARF schema (Fig. 4).
  return SqlTableDef("dwarfdb", "dwarf_node",
                     {{"id", DataType::kInt, false},
                      {"root", DataType::kBool},
                      {"schema_id", DataType::kInt}},
                     "id");
}

SqlTableDef NodeChildrenDef() {
  return SqlTableDef("dwarfdb", "node_children",
                     {{"id", DataType::kInt, false},
                      {"node_id", DataType::kInt},
                      {"cell_id", DataType::kInt}},
                     "id");
}

// ---------------------------------------------------------------- catalog

TEST(SqlTableDefTest, RejectsSetColumns) {
  SqlTableDef def("db", "t",
                  {{"id", DataType::kInt}, {"children", DataType::kIntSet}},
                  "id");
  EXPECT_TRUE(def.Validate().IsInvalidArgument());
}

TEST(SqlTableDefTest, ValidationRules) {
  EXPECT_TRUE(NodeDef().Validate().ok());
  SqlTableDef bad_pk("db", "t", {{"a", DataType::kInt}}, "zzz");
  EXPECT_TRUE(bad_pk.Validate().IsInvalidArgument());
  SqlTableDef dup("db", "t",
                  {{"a", DataType::kInt}, {"a", DataType::kInt}}, "a");
  EXPECT_TRUE(dup.Validate().IsInvalidArgument());
}

TEST(SqlTableDefTest, EncodeDecodeRoundTrip) {
  SqlTableDef def = NodeChildrenDef();
  ASSERT_TRUE(def.AddSecondaryIndex("node_id").ok());
  ByteWriter writer;
  def.EncodeTo(&writer);
  ByteReader reader(writer.data());
  auto decoded = SqlTableDef::DecodeFrom(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->QualifiedName(), "dwarfdb.node_children");
  EXPECT_EQ(decoded->secondary_indexes().size(), 1u);
}

// ------------------------------------------------------------- heap table

TEST(HeapTableTest, DuplicatePrimaryKeyRejected) {
  HeapTable table(NodeDef());
  ASSERT_TRUE(
      table.Insert({Value::Int(1), Value::Bool(true), Value::Int(1)}).ok());
  EXPECT_TRUE(table.Insert({Value::Int(1), Value::Bool(false), Value::Int(1)})
                  .IsAlreadyExists());
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(HeapTableTest, NotNullEnforced) {
  HeapTable table(NodeDef());
  EXPECT_TRUE(table.Insert({Value::Null(), Value::Bool(true), Value::Int(1)})
                  .IsInvalidArgument());
}

TEST(HeapTableTest, ScanIsPrimaryKeyOrdered) {
  HeapTable table(NodeDef());
  for (int id : {5, 1, 9, 3}) {
    ASSERT_TRUE(
        table.Insert({Value::Int(id), Value::Bool(false), Value::Int(1)}).ok());
  }
  auto rows = table.ScanAll();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(*(*rows[0])[0].AsInt(), 1);
  EXPECT_EQ(*(*rows[3])[0].AsInt(), 9);
}

TEST(HeapTableTest, SelectEqFallsBackToScan) {
  HeapTable table(NodeChildrenDef());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        table.Insert({Value::Int(i), Value::Int(i % 2), Value::Int(i)}).ok());
  }
  // MySQL allows unindexed filtering (it is just a table scan).
  auto rows = table.SelectEq("node_id", Value::Int(1));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);
  ASSERT_TRUE(table.CreateIndex("node_id").ok());
  EXPECT_EQ(table.SelectEq("node_id", Value::Int(1))->size(), 4u);
}

TEST(HeapTableTest, TablespaceRoundTrip) {
  HeapTable table(NodeChildrenDef());
  ASSERT_TRUE(table.CreateIndex("node_id").ok());
  for (int i = 0; i < 3000; ++i) {  // enough rows to span multiple pages
    ASSERT_TRUE(
        table.Insert({Value::Int(i), Value::Int(i / 10), Value::Int(i * 3)})
            .ok());
  }
  ByteWriter writer;
  table.SerializeTo(&writer);
  // Tablespace is page-aligned and substantial.
  EXPECT_GT(writer.size(), InnoDbFormat::kPageBytes);
  ByteReader reader(writer.data());
  auto loaded = HeapTable::Deserialize(&reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ((*loaded)->num_rows(), 3000u);
  EXPECT_EQ(*(**(*loaded)->GetByPk(Value::Int(2999)))[2].AsInt(), 8997);
  EXPECT_EQ((*loaded)->SelectEq("node_id", Value::Int(5))->size(), 10u);
}

TEST(HeapTableTest, PageOverheadInflatesSize) {
  // The same logical rows must cost more in the InnoDB-style format than
  // their raw payload (record headers + trx metadata + page padding).
  HeapTable table(NodeDef());
  uint64_t payload = 0;
  for (int i = 0; i < 1000; ++i) {
    SqlRow row = {Value::Int(i), Value::Bool(i % 2 == 0), Value::Int(1)};
    for (const Value& value : row) payload += value.EncodedSize();
    ASSERT_TRUE(table.Insert(std::move(row)).ok());
  }
  EXPECT_GT(table.EstimateTablespaceBytes(), payload);
}

// ---------------------------------------------------------------- engine

class SqlEngineDiskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("scdwarf_sql_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST(SqlEngineTest, DatabaseLifecycle) {
  SqlEngine engine;
  EXPECT_TRUE(engine.CreateDatabase("dwarfdb").ok());
  EXPECT_TRUE(engine.CreateDatabase("dwarfdb").IsAlreadyExists());
  EXPECT_TRUE(engine.CreateTable(NodeDef()).ok());
  EXPECT_TRUE(engine.CreateTable(NodeDef()).IsAlreadyExists());
  EXPECT_TRUE(engine.GetTable("dwarfdb", "dwarf_node").ok());
  EXPECT_TRUE(engine.DropTable("dwarfdb", "dwarf_node").ok());
  EXPECT_TRUE(engine.GetTable("dwarfdb", "dwarf_node").status().IsNotFound());
}

TEST_F(SqlEngineDiskTest, FlushAndReopen) {
  {
    auto engine = SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE(engine->CreateDatabase("dwarfdb").ok());
    ASSERT_TRUE(engine->CreateTable(NodeDef()).ok());
    std::vector<SqlRow> rows;
    for (int i = 0; i < 40; ++i) {
      rows.push_back({Value::Int(i), Value::Bool(i == 0), Value::Int(1)});
    }
    ASSERT_TRUE(engine->BulkInsert("dwarfdb", "dwarf_node", std::move(rows)).ok());
    ASSERT_TRUE(engine->Flush().ok());
    EXPECT_GT(*engine->DiskSizeBytes(), 0u);
  }
  {
    auto engine = SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto table = engine->GetTable("dwarfdb", "dwarf_node");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ((*table)->num_rows(), 40u);
  }
}

TEST_F(SqlEngineDiskTest, RedoLogReplayRecoversUnflushedWrites) {
  {
    auto engine = SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine->CreateDatabase("dwarfdb").ok());
    ASSERT_TRUE(engine->CreateTable(NodeDef()).ok());
    ASSERT_TRUE(engine->Flush().ok());
    ASSERT_TRUE(engine
                    ->Insert("dwarfdb", "dwarf_node",
                             {Value::Int(1), Value::Bool(true), Value::Int(1)})
                    .ok());
    // Crash without flushing.
  }
  {
    auto engine = SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    EXPECT_EQ((*engine->GetTable("dwarfdb", "dwarf_node"))->num_rows(), 1u);
  }
}

/// Appends one framed redo record for dwarfdb.dwarf_node to \p path: the
/// delete flag, the table's names, the declared row count, then \p rows.
void AppendRedoRecord(const fs::path& path, bool is_delete,
                      uint64_t declared_rows, const ByteWriter& rows) {
  ByteWriter record;
  record.PutU8(is_delete ? 1 : 0);
  record.PutString("dwarfdb");
  record.PutString("dwarf_node");
  record.PutVarint(declared_rows);
  record.PutRaw(rows.data().data(), rows.size());
  // The frame is the record's size as PutU32 writes it, then the record.
  const uint32_t size = static_cast<uint32_t>(record.size());
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(&size), sizeof(size));
  out.write(reinterpret_cast<const char*>(record.data().data()),
            static_cast<std::streamsize>(record.size()));
}

/// Corrupt redo records make Open return a status that names the log,
/// never crash or throw.
class CorruptRedoLogTest : public SqlEngineDiskTest {
 protected:
  void SetUp() override {
    SqlEngineDiskTest::SetUp();
    auto engine = SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE(engine->CreateDatabase("dwarfdb").ok());
    ASSERT_TRUE(engine->CreateTable(NodeDef()).ok());
    ASSERT_TRUE(engine->Flush().ok());
  }

  void ExpectOpenFailsNamingTheLog() {
    auto engine = SqlEngine::Open(dir_.string());
    ASSERT_FALSE(engine.ok());
    EXPECT_NE(engine.status().ToString().find("redolog.bin"),
              std::string::npos)
        << engine.status();
  }

  fs::path log() const { return dir_ / "redolog.bin"; }
};

TEST_F(CorruptRedoLogTest, DeleteRowOfArityZero) {
  ByteWriter rows;
  rows.PutVarint(0);
  AppendRedoRecord(log(), /*is_delete=*/true, 1, rows);
  ExpectOpenFailsNamingTheLog();
}

TEST_F(CorruptRedoLogTest, RowArityLargerThanTheRecord) {
  ByteWriter rows;
  rows.PutVarint(uint64_t{1} << 62);
  Value::Int(1).EncodeTo(&rows);
  AppendRedoRecord(log(), /*is_delete=*/false, 1, rows);
  ExpectOpenFailsNamingTheLog();
}

TEST_F(CorruptRedoLogTest, SetCountLargerThanTheRecord) {
  ByteWriter rows;
  rows.PutVarint(1);
  rows.PutU8(4);  // set<int>
  rows.PutVarint(uint64_t{1000000000000});
  AppendRedoRecord(log(), /*is_delete=*/true, 1, rows);
  ExpectOpenFailsNamingTheLog();
}

// A rejected insert leaves neither a row nor a redo record. A record logged
// ahead of its validation would fail every later Open at replay.
TEST_F(SqlEngineDiskTest, RejectedInsertsLeaveNoRowAndTheEngineReopens) {
  {
    auto engine = SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE(ExecuteSql(&*engine, "CREATE DATABASE db").ok());
    ASSERT_TRUE(ExecuteSql(&*engine,
                           "CREATE TABLE db.t (id INT NOT NULL, "
                           "v VARCHAR(8), PRIMARY KEY (id))")
                    .ok());
    ASSERT_TRUE(engine->Flush().ok());  // the table survives a reopen
    EXPECT_TRUE(
        ExecuteSql(&*engine, "INSERT INTO db.t (id, v) VALUES ('oops', 'x')")
            .status()
            .IsInvalidArgument());
    // Only the second row is bad; the batch applies none of its rows.
    std::vector<SqlRow> rows;
    rows.push_back({Value::Int(1), Value::Text("a")});
    rows.push_back({Value::Text("oops"), Value::Text("b")});
    EXPECT_TRUE(engine->BulkInsert("db", "t", std::move(rows))
                    .IsInvalidArgument());
    EXPECT_EQ((*engine->GetTable("db", "t"))->num_rows(), 0u);
    // Close without a flush: the reopen replays the redo log.
  }
  auto engine = SqlEngine::Open(dir_.string());
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto table = engine->GetTable("db", "t");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), 0u);
}

// A multi-row insert that repeats a key is rejected whole: no row stays in
// the table or its index, and replay applies none either.
TEST_F(SqlEngineDiskTest, DuplicateKeyBatchIsAllOrNothing) {
  {
    auto engine = SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE(ExecuteSql(&*engine, "CREATE DATABASE db").ok());
    ASSERT_TRUE(ExecuteSql(&*engine,
                           "CREATE TABLE db.t (id INT NOT NULL, "
                           "v VARCHAR(8), PRIMARY KEY (id), INDEX (v))")
                    .ok());
    ASSERT_TRUE(engine->Flush().ok());  // the table survives a reopen
    EXPECT_TRUE(ExecuteSql(&*engine,
                           "INSERT INTO db.t (id, v) VALUES "
                           "(1, 'a'), (1, 'b'), (2, 'c')")
                    .status()
                    .IsAlreadyExists());
    auto table = engine->GetTable("db", "t");
    ASSERT_TRUE(table.ok()) << table.status();
    EXPECT_EQ((*table)->num_rows(), 0u);
    auto indexed = (*table)->SelectEq("v", Value::Text("a"));
    ASSERT_TRUE(indexed.ok()) << indexed.status();
    EXPECT_TRUE(indexed->empty());
  }
  auto engine = SqlEngine::Open(dir_.string());
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto table = engine->GetTable("db", "t");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), 0u);
}

// ------------------------------------------------------------------- SQL

class SqlLanguageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ExecuteSql(&engine_, "CREATE DATABASE dwarfdb").ok());
    ASSERT_TRUE(ExecuteSql(&engine_,
                           "CREATE TABLE dwarfdb.dwarf_cell ("
                           "id INT NOT NULL, item_name VARCHAR(64), "
                           "measure INT, leaf BOOL, "
                           "PRIMARY KEY (id))")
                    .ok());
  }
  SqlEngine engine_;
};

TEST_F(SqlLanguageTest, InsertAndSelect) {
  ASSERT_TRUE(ExecuteSql(&engine_,
                         "INSERT INTO dwarfdb.dwarf_cell "
                         "(id, item_name, measure, leaf) "
                         "VALUES (3, 'Fenian St', 3, true)")
                  .ok());
  auto result = ExecuteSql(
      &engine_, "SELECT item_name FROM dwarfdb.dwarf_cell WHERE id = 3");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(*result->rows[0][0].AsText(), "Fenian St");
}

TEST_F(SqlLanguageTest, MultiRowInsert) {
  auto result = ExecuteSql(&engine_,
                           "INSERT INTO dwarfdb.dwarf_cell (id, item_name) "
                           "VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*engine_.GetTable("dwarfdb", "dwarf_cell"))->num_rows(), 3u);
}

TEST_F(SqlLanguageTest, CreateTableWithInlineIndex) {
  auto result = ExecuteSql(&engine_,
                           "CREATE TABLE dwarfdb.node_children ("
                           "id INT NOT NULL, node_id INT, cell_id INT, "
                           "PRIMARY KEY (id), INDEX (node_id))");
  ASSERT_TRUE(result.ok()) << result.status();
  auto table = engine_.GetTable("dwarfdb", "node_children");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->def().secondary_indexes().size(), 1u);
}

TEST_F(SqlLanguageTest, JoinNodeChildren) {
  // The MySQL-DWARF rebuild pattern: cells joined through node_children.
  ASSERT_TRUE(ExecuteSql(&engine_,
                         "CREATE TABLE dwarfdb.node_children ("
                         "id INT NOT NULL, node_id INT, cell_id INT, "
                         "PRIMARY KEY (id))")
                  .ok());
  ASSERT_TRUE(ExecuteSql(&engine_,
                         "INSERT INTO dwarfdb.dwarf_cell (id, item_name) "
                         "VALUES (10, 'Dublin'), (11, 'Cork'), (12, 'Paris')")
                  .ok());
  ASSERT_TRUE(ExecuteSql(&engine_,
                         "INSERT INTO dwarfdb.node_children "
                         "(id, node_id, cell_id) "
                         "VALUES (1, 7, 10), (2, 7, 11), (3, 8, 12)")
                  .ok());
  auto result = ExecuteSql(
      &engine_,
      "SELECT dwarf_cell.item_name FROM dwarfdb.node_children "
      "JOIN dwarfdb.dwarf_cell ON node_children.cell_id = dwarf_cell.id "
      "WHERE node_children.node_id = 7");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(*result->rows[0][0].AsText(), "Dublin");
  EXPECT_EQ(*result->rows[1][0].AsText(), "Cork");
}

TEST_F(SqlLanguageTest, AmbiguousColumnRejected) {
  ASSERT_TRUE(ExecuteSql(&engine_,
                         "CREATE TABLE dwarfdb.other ("
                         "id INT NOT NULL, PRIMARY KEY (id))")
                  .ok());
  ASSERT_TRUE(ExecuteSql(&engine_, "INSERT INTO dwarfdb.other (id) VALUES (3)")
                  .ok());
  ASSERT_TRUE(ExecuteSql(&engine_,
                         "INSERT INTO dwarfdb.dwarf_cell (id) VALUES (3)")
                  .ok());
  auto result = ExecuteSql(&engine_,
                           "SELECT id FROM dwarfdb.dwarf_cell "
                           "JOIN dwarfdb.other ON dwarf_cell.id = other.id");
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();
}

TEST_F(SqlLanguageTest, SetTypeRejectedByDdl) {
  auto result = ExecuteSql(&engine_,
                           "CREATE TABLE dwarfdb.bad ("
                           "id INT, children SET(int), PRIMARY KEY (id))");
  EXPECT_FALSE(result.ok());
}

TEST_F(SqlLanguageTest, ParseErrors) {
  for (const char* bad : {
           "",
           "SELECT FROM dwarfdb.dwarf_cell",
           "INSERT INTO dwarfdb.dwarf_cell (id) VALUES (1), (2, 3)",
           "CREATE TABLE dwarfdb.t (id INT)",
           "SELECT * FROM dwarf_cell",  // unqualified
           "DELETE FROM dwarfdb.dwarf_cell",
       }) {
    EXPECT_TRUE(ExecuteSql(&engine_, bad).status().IsParseError())
        << "input: " << bad;
  }
}

TEST_F(SqlLanguageTest, DuplicateKeyReportedThroughSql) {
  ASSERT_TRUE(
      ExecuteSql(&engine_, "INSERT INTO dwarfdb.dwarf_cell (id) VALUES (1)").ok());
  EXPECT_TRUE(
      ExecuteSql(&engine_, "INSERT INTO dwarfdb.dwarf_cell (id) VALUES (1)")
          .status()
          .IsAlreadyExists());
}

}  // namespace
}  // namespace scdwarf::sql
