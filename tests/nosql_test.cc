#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nosql/cql.h"
#include "nosql/database.h"

namespace scdwarf::nosql {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- Value

TEST(ValueTest, Accessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(*Value::Int(7).AsInt(), 7);
  EXPECT_EQ(*Value::Text("hi").AsText(), "hi");
  EXPECT_EQ(*Value::Bool(true).AsBool(), true);
  EXPECT_EQ(*Value::IntSet({3, 1, 2, 1}).AsIntSet(),
            (std::vector<int64_t>{1, 2, 3}));
}

TEST(ValueTest, TypeMismatchErrors) {
  EXPECT_TRUE(Value::Int(1).AsText().status().IsInvalidArgument());
  EXPECT_TRUE(Value::Text("x").AsInt().status().IsInvalidArgument());
  EXPECT_TRUE(Value::Null().AsBool().status().IsInvalidArgument());
}

TEST(ValueTest, MatchesType) {
  EXPECT_TRUE(Value::Int(1).MatchesType(DataType::kInt));
  EXPECT_TRUE(Value::Int(1).MatchesType(DataType::kBigint));
  EXPECT_FALSE(Value::Int(1).MatchesType(DataType::kText));
  EXPECT_TRUE(Value::Null().MatchesType(DataType::kText));
  EXPECT_TRUE(Value::IntSet({1}).MatchesType(DataType::kIntSet));
  EXPECT_FALSE(Value::Bool(true).MatchesType(DataType::kInt));
}

TEST(ValueTest, CqlLiterals) {
  EXPECT_EQ(Value::Null().ToCqlLiteral(), "null");
  EXPECT_EQ(Value::Int(-3).ToCqlLiteral(), "-3");
  EXPECT_EQ(Value::Text("O'Brien").ToCqlLiteral(), "'O''Brien'");
  EXPECT_EQ(Value::Bool(false).ToCqlLiteral(), "false");
  EXPECT_EQ(Value::IntSet({2, 1}).ToCqlLiteral(), "{1,2}");
}

TEST(ValueTest, BinaryRoundTrip) {
  std::vector<Value> values = {
      Value::Null(),       Value::Bool(true),      Value::Int(0),
      Value::Int(-999999), Value::Text(""),        Value::Text("Fenian St"),
      Value::IntSet({}),   Value::IntSet({5, 1, 9, 1000000}),
  };
  ByteWriter writer;
  for (const Value& value : values) value.EncodeTo(&writer);
  ByteReader reader(writer.data());
  for (const Value& value : values) {
    auto decoded = Value::DecodeFrom(&reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(*decoded, value);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ValueTest, OrderingAndEquality) {
  EXPECT_TRUE(Value::Int(1) < Value::Int(2));
  EXPECT_TRUE(Value::Text("a") < Value::Text("b"));
  EXPECT_EQ(Value::IntSet({1, 2}), Value::IntSet({2, 1}));
  EXPECT_NE(Value::Int(1), Value::Text("1"));
}

TEST(ValueTest, HashStability) {
  EXPECT_EQ(Value::Text("x").Hash(), Value::Text("x").Hash());
  EXPECT_NE(Value::Text("x").Hash(), Value::Text("y").Hash());
  EXPECT_EQ(Value::IntSet({1, 2}).Hash(), Value::IntSet({2, 1}).Hash());
}

TEST(DataTypeTest, ParseNames) {
  EXPECT_EQ(*ParseDataType("int"), DataType::kInt);
  EXPECT_EQ(*ParseDataType("TEXT"), DataType::kText);
  EXPECT_EQ(*ParseDataType("set<int>"), DataType::kIntSet);
  EXPECT_EQ(*ParseDataType("set < int >"), DataType::kIntSet);
  EXPECT_TRUE(ParseDataType("blob").status().IsParseError());
}

// ---------------------------------------------------------------- schema

TableSchema CellSchema() {
  // The paper's DWARF_Cell column family (Table 1-C).
  TableSchema schema(
      "dwarfks", "dwarf_cell",
      {{"id", DataType::kInt},
       {"key", DataType::kText},
       {"measure", DataType::kInt},
       {"parentnode", DataType::kInt},
       {"pointernode", DataType::kInt},
       {"leaf", DataType::kBool},
       {"schema_id", DataType::kInt},
       {"dimension_table_name", DataType::kText}},
      "id");
  return schema;
}

TEST(TableSchemaTest, Validation) {
  EXPECT_TRUE(CellSchema().Validate().ok());

  TableSchema no_pk("ks", "t", {{"a", DataType::kInt}}, "b");
  EXPECT_TRUE(no_pk.Validate().IsInvalidArgument());

  TableSchema dup("ks", "t",
                  {{"a", DataType::kInt}, {"a", DataType::kText}}, "a");
  EXPECT_TRUE(dup.Validate().IsInvalidArgument());

  TableSchema empty("ks", "t", {}, "a");
  EXPECT_TRUE(empty.Validate().IsInvalidArgument());
}

TEST(TableSchemaTest, SecondaryIndexRules) {
  TableSchema schema = CellSchema();
  EXPECT_TRUE(schema.AddSecondaryIndex("parentnode").ok());
  EXPECT_TRUE(schema.AddSecondaryIndex("parentnode").IsAlreadyExists());
  EXPECT_TRUE(schema.AddSecondaryIndex("id").IsInvalidArgument());
  EXPECT_TRUE(schema.AddSecondaryIndex("nope").IsNotFound());
  EXPECT_EQ(schema.secondary_indexes().size(), 1u);
}

TEST(TableSchemaTest, EncodeDecodeRoundTrip) {
  TableSchema schema = CellSchema();
  ASSERT_TRUE(schema.AddSecondaryIndex("parentnode").ok());
  ByteWriter writer;
  schema.EncodeTo(&writer);
  ByteReader reader(writer.data());
  auto decoded = TableSchema::DecodeFrom(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, schema);
}

// ---------------------------------------------------------------- table

Row CellRow(int64_t id, const std::string& key, int64_t measure,
            int64_t parent, Value pointer, bool leaf) {
  return {Value::Int(id),     Value::Text(key),  Value::Int(measure),
          Value::Int(parent), std::move(pointer), Value::Bool(leaf),
          Value::Int(1),      Value::Text("Station")};
}

TEST(TableTest, InsertAndGet) {
  Table table(CellSchema());
  ASSERT_TRUE(
      table.Insert(CellRow(3, "Fenian St", 3, 3, Value::Null(), true)).ok());
  EXPECT_EQ(table.num_rows(), 1u);
  auto row = table.GetByPk(Value::Int(3));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(*(**row)[1].AsText(), "Fenian St");
  EXPECT_TRUE(table.GetByPk(Value::Int(4)).status().IsNotFound());
}

TEST(TableTest, InsertIsUpsert) {
  Table table(CellSchema());
  ASSERT_TRUE(table.Insert(CellRow(1, "a", 1, 0, Value::Null(), true)).ok());
  ASSERT_TRUE(table.Insert(CellRow(1, "b", 2, 0, Value::Null(), true)).ok());
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(*(**table.GetByPk(Value::Int(1)))[1].AsText(), "b");
}

TEST(TableTest, RowValidation) {
  Table table(CellSchema());
  EXPECT_TRUE(table.Insert({Value::Int(1)}).IsInvalidArgument());  // arity
  Row bad_type = CellRow(1, "a", 1, 0, Value::Null(), true);
  bad_type[1] = Value::Int(9);  // key must be text
  EXPECT_TRUE(table.Insert(bad_type).IsInvalidArgument());
  Row null_pk = CellRow(1, "a", 1, 0, Value::Null(), true);
  null_pk[0] = Value::Null();
  EXPECT_TRUE(table.Insert(null_pk).IsInvalidArgument());
}

TEST(TableTest, SelectWithoutIndexRequiresFiltering) {
  Table table(CellSchema());
  ASSERT_TRUE(table.Insert(CellRow(1, "a", 1, 7, Value::Null(), true)).ok());
  EXPECT_TRUE(table.SelectEq("parentnode", Value::Int(7))
                  .status()
                  .IsFailedPrecondition());
  auto rows = table.SelectEq("parentnode", Value::Int(7), true);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST(TableTest, SecondaryIndexServesSelect) {
  Table table(CellSchema());
  ASSERT_TRUE(table.CreateIndex("parentnode").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        table.Insert(CellRow(i, "k", i, i % 3, Value::Null(), true)).ok());
  }
  auto rows = table.SelectEq("parentnode", Value::Int(1));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // ids 1, 4, 7
}

TEST(TableTest, IndexBackfillAndUpsertMaintenance) {
  Table table(CellSchema());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        table.Insert(CellRow(i, "k", i, 100, Value::Null(), true)).ok());
  }
  ASSERT_TRUE(table.CreateIndex("parentnode").ok());  // backfill
  EXPECT_EQ(table.SelectEq("parentnode", Value::Int(100))->size(), 5u);
  // Upsert moves row 2 to parent 200; index must follow.
  ASSERT_TRUE(table.Insert(CellRow(2, "k", 2, 200, Value::Null(), true)).ok());
  EXPECT_EQ(table.SelectEq("parentnode", Value::Int(100))->size(), 4u);
  EXPECT_EQ(table.SelectEq("parentnode", Value::Int(200))->size(), 1u);
}

TEST(TableTest, SetColumnRoundTrip) {
  TableSchema schema("ks", "dwarf_node",
                     {{"id", DataType::kInt},
                      {"parentids", DataType::kIntSet},
                      {"childrenids", DataType::kIntSet},
                      {"root", DataType::kBool},
                      {"schema_id", DataType::kInt}},
                     "id");
  Table table(schema);
  ASSERT_TRUE(table
                  .Insert({Value::Int(1), Value::IntSet({2, 3}),
                           Value::IntSet({4, 5, 6}), Value::Bool(true),
                           Value::Int(1)})
                  .ok());
  auto row = table.GetByPk(Value::Int(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(*(**row)[2].AsIntSet(), (std::vector<int64_t>{4, 5, 6}));
}

TEST(TableTest, SerializeDeserializeRoundTrip) {
  Table table(CellSchema());
  ASSERT_TRUE(table.CreateIndex("parentnode").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(table
                    .Insert(CellRow(i, "station " + std::to_string(i), i * 2,
                                    i / 5, i % 2 ? Value::Int(i) : Value::Null(),
                                    i % 2 == 0))
                    .ok());
  }
  ByteWriter writer;
  table.SerializeTo(&writer);
  ByteReader reader(writer.data());
  auto loaded = Table::Deserialize(&reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ((*loaded)->num_rows(), 50u);
  EXPECT_EQ((*loaded)->schema(), table.schema());
  auto row = (*loaded)->GetByPk(Value::Int(49));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(*(**row)[1].AsText(), "station 49");
  // Index survives reload.
  EXPECT_EQ((*loaded)->SelectEq("parentnode", Value::Int(3))->size(), 5u);
}

TEST(TableTest, SecondaryIndexGrowsSegment) {
  Table plain(CellSchema());
  Table indexed(CellSchema());
  ASSERT_TRUE(indexed.CreateIndex("parentnode").ok());
  ASSERT_TRUE(indexed.CreateIndex("pointernode").ok());
  for (int i = 0; i < 200; ++i) {
    Row row = CellRow(i, "k" + std::to_string(i), i, i / 4, Value::Int(i), false);
    ASSERT_TRUE(plain.Insert(row).ok());
    ASSERT_TRUE(indexed.Insert(row).ok());
  }
  EXPECT_GT(indexed.EstimateSegmentBytes(), plain.EstimateSegmentBytes());
}

// Differential property test of the primary index: random upserts, deletes
// and lookups against a std::map model, with one secondary index and one
// unindexed column read through ALLOW FILTERING. The keys are chosen so
// that their Value::Hash() values share the low kClusterBits bits: they
// crowd into a few home buckets, so probe runs get long and cross each
// other, and a delete inside a run has to move later entries back.
class PrimaryIndexPropertyTest : public ::testing::TestWithParam<DataType> {
 protected:
  static constexpr uint64_t kClusterBits = 4;
  static constexpr size_t kPoolSize = 1500;
  static constexpr int64_t kGroups = 64;
  static constexpr int64_t kTags = 32;

  using Model = std::map<Value, Row>;

  static TableSchema Schema(DataType pk_type) {
    return TableSchema("ks", "kv",
                       {{"id", pk_type},
                        {"grp", DataType::kInt},
                        {"tag", DataType::kInt},
                        {"payload", DataType::kText}},
                       "id");
  }

  static std::vector<Value> KeyPool(DataType pk_type) {
    std::vector<Value> pool;
    for (int64_t i = 0; pool.size() < kPoolSize; ++i) {
      Value key = pk_type == DataType::kInt
                      ? Value::Int(i)
                      : Value::Text("key-" + std::to_string(i));
      if ((key.Hash() & ((uint64_t{1} << kClusterBits) - 1)) == 0) {
        pool.push_back(std::move(key));
      }
    }
    return pool;
  }

  static std::vector<Value> SortedKeys(const std::vector<const Row*>& rows) {
    std::vector<Value> keys;
    for (const Row* row : rows) keys.push_back((*row)[0]);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// Every returned row must be the model's row for its key, and the keys
  /// must be exactly the model keys whose \p column equals \p value.
  static void ExpectSelection(const Model& model, size_t column,
                              const Value& value,
                              const Result<std::vector<const Row*>>& got) {
    ASSERT_TRUE(got.ok()) << got.status();
    std::vector<Value> expected;
    for (const auto& [key, row] : model) {
      if (row[column] == value) expected.push_back(key);
    }
    for (const Row* row : *got) {
      auto it = model.find((*row)[0]);
      ASSERT_NE(it, model.end()) << (*row)[0].ToCqlLiteral();
      EXPECT_EQ(*row, it->second);
    }
    EXPECT_EQ(SortedKeys(*got), expected) << "column " << column << " = "
                                          << value.ToCqlLiteral();
  }

  /// The checks run after every step: the row count, \p key through
  /// GetByPk and primary-key SelectEq, and \p key's group and tag through
  /// the secondary index and an ALLOW FILTERING scan.
  static void CheckStep(const Table& table, const Model& model,
                        const Value& key, int64_t grp, int64_t tag) {
    ASSERT_EQ(table.num_rows(), model.size());
    auto it = model.find(key);
    auto got = table.GetByPk(key);
    auto by_pk = table.SelectEq("id", key);
    ASSERT_TRUE(by_pk.ok()) << by_pk.status();
    if (it == model.end()) {
      EXPECT_TRUE(got.status().IsNotFound()) << key.ToCqlLiteral();
      EXPECT_TRUE(by_pk->empty());
    } else {
      ASSERT_TRUE(got.ok()) << key.ToCqlLiteral();
      EXPECT_EQ(**got, it->second);
      ASSERT_EQ(by_pk->size(), 1u);
      EXPECT_EQ(by_pk->front(), *got);
    }
    ExpectSelection(model, 1, Value::Int(grp),
                    table.SelectEq("grp", Value::Int(grp)));
    ExpectSelection(model, 2, Value::Int(tag),
                    table.SelectEq("tag", Value::Int(tag), true));
  }

  /// Every pool key, every group and every tag, and the full scan.
  static void CheckAll(const Table& table, const Model& model,
                       const std::vector<Value>& pool) {
    ASSERT_EQ(table.num_rows(), model.size());
    for (const Value& key : pool) {
      auto it = model.find(key);
      auto got = table.GetByPk(key);
      if (it == model.end()) {
        ASSERT_TRUE(got.status().IsNotFound()) << key.ToCqlLiteral();
      } else {
        ASSERT_TRUE(got.ok()) << key.ToCqlLiteral();
        ASSERT_EQ(**got, it->second);
      }
    }
    for (int64_t grp = 0; grp < kGroups; ++grp) {
      ExpectSelection(model, 1, Value::Int(grp),
                      table.SelectEq("grp", Value::Int(grp)));
    }
    for (int64_t tag = 0; tag < kTags; ++tag) {
      ExpectSelection(model, 2, Value::Int(tag),
                      table.SelectEq("tag", Value::Int(tag), true));
    }
    std::vector<Value> model_keys;
    for (const auto& [key, row] : model) model_keys.push_back(key);
    EXPECT_EQ(SortedKeys(table.ScanAll()), model_keys);
  }
};

TEST_P(PrimaryIndexPropertyTest, MatchesMapModelThroughGrowthAndDeletes) {
  const DataType pk_type = GetParam();
  const std::vector<Value> pool = KeyPool(pk_type);
  auto table = std::make_unique<Table>(Schema(pk_type));
  ASSERT_TRUE(table->CreateIndex("grp").ok());
  Model model;
  Rng rng(pk_type == DataType::kInt ? 17 : 29);

  // Phases as {steps, upsert %, delete %}; the rest are plain lookups. The
  // first grows the table through several index resizes, the second
  // empties most of it, the third grows it again over the tombstones.
  struct Phase {
    int steps;
    uint64_t upsert_pct;
    uint64_t delete_pct;
  };
  const Phase phases[] = {{3000, 65, 15}, {2500, 15, 70}, {3000, 70, 10}};
  int step = 0;
  for (const Phase& phase : phases) {
    SCOPED_TRACE("phase ending at step " + std::to_string(step + phase.steps));
    for (int i = 0; i < phase.steps; ++i, ++step) {
      const Value& key = pool[rng.NextBelow(pool.size())];
      const uint64_t roll = rng.NextBelow(100);
      const auto it = model.find(key);
      if (roll < phase.upsert_pct) {
        Row row = {key, Value::Int(rng.NextInRange(0, kGroups - 1)),
                   Value::Int(rng.NextInRange(0, kTags - 1)),
                   Value::Text("v" + std::to_string(step))};
        ASSERT_TRUE(table->Insert(row).ok()) << "step " << step;
        model[key] = std::move(row);
      } else if (roll < phase.upsert_pct + phase.delete_pct) {
        Status status = table->DeleteByPk(key);
        if (it == model.end()) {
          ASSERT_TRUE(status.IsNotFound()) << "step " << step << ": " << status;
        } else {
          ASSERT_TRUE(status.ok()) << "step " << step << ": " << status;
          model.erase(it);
        }
      }
      // Lookups (and the after-effects of the mutation above) are checked
      // on every step; the touched row's group and tag, or random ones
      // when the key is absent, drive the secondary reads.
      const auto now = model.find(key);
      const int64_t grp = now != model.end()
                              ? *now->second[1].AsInt()
                              : rng.NextInRange(0, kGroups - 1);
      const int64_t tag = now != model.end() ? *now->second[2].AsInt()
                                             : rng.NextInRange(0, kTags - 1);
      ASSERT_NO_FATAL_FAILURE(CheckStep(*table, model, key, grp, tag))
          << "step " << step;
    }
    ASSERT_NO_FATAL_FAILURE(CheckAll(*table, model, pool));

    ByteWriter writer;
    table->SerializeTo(&writer);
    ByteReader reader(writer.data());
    auto loaded = Table::Deserialize(&reader);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_TRUE(reader.AtEnd());
    ASSERT_NO_FATAL_FAILURE(CheckAll(**loaded, model, pool));
    // The next phase mutates the reloaded table.
    table = std::move(*loaded);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PrimaryKeyTypes, PrimaryIndexPropertyTest,
    ::testing::Values(DataType::kInt, DataType::kText),
    [](const ::testing::TestParamInfo<DataType>& info) {
      return std::string(info.param == DataType::kInt ? "Int" : "Text");
    });

// -------------------------------------------------------------- database

class DatabaseDiskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("scdwarf_nosql_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST(DatabaseTest, KeyspaceAndTableLifecycle) {
  Database db;
  EXPECT_TRUE(db.CreateKeyspace("dwarfks").ok());
  EXPECT_TRUE(db.CreateKeyspace("dwarfks").IsAlreadyExists());
  EXPECT_TRUE(db.CreateTable(CellSchema()).ok());
  EXPECT_TRUE(db.CreateTable(CellSchema()).IsAlreadyExists());
  EXPECT_TRUE(db.GetTable("dwarfks", "dwarf_cell").ok());
  EXPECT_TRUE(db.GetTable("nope", "dwarf_cell").status().IsNotFound());
  EXPECT_TRUE(db.DropTable("dwarfks", "dwarf_cell").ok());
  EXPECT_TRUE(db.GetTable("dwarfks", "dwarf_cell").status().IsNotFound());
}

TEST(DatabaseTest, TableInMissingKeyspaceRejected) {
  Database db;
  EXPECT_TRUE(db.CreateTable(CellSchema()).IsNotFound());
}

TEST_F(DatabaseDiskTest, FlushAndReopen) {
  {
    auto db = Database::Open(dir_.string());
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->CreateKeyspace("dwarfks").ok());
    ASSERT_TRUE(db->CreateTable(CellSchema()).ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db->Insert("dwarfks", "dwarf_cell",
                             CellRow(i, "s" + std::to_string(i), i, 0,
                                     Value::Null(), true))
                      .ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    auto size = db->DiskSizeBytes();
    ASSERT_TRUE(size.ok());
    EXPECT_GT(*size, 0u);
  }
  {
    auto db = Database::Open(dir_.string());
    ASSERT_TRUE(db.ok()) << db.status();
    auto table = db->GetTable("dwarfks", "dwarf_cell");
    ASSERT_TRUE(table.ok()) << table.status();
    EXPECT_EQ((*table)->num_rows(), 20u);
    EXPECT_EQ(*(**(*table)->GetByPk(Value::Int(7)))[1].AsText(), "s7");
  }
}

TEST_F(DatabaseDiskTest, CommitLogReplayRecoversUnflushedWrites) {
  {
    auto db = Database::Open(dir_.string());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->CreateKeyspace("dwarfks").ok());
    ASSERT_TRUE(db->CreateTable(CellSchema()).ok());
    ASSERT_TRUE(db->Flush().ok());  // persist empty table + schema
    // These writes hit the commit log but are never flushed.
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(db->Insert("dwarfks", "dwarf_cell",
                             CellRow(i, "unflushed", i, 0, Value::Null(), true))
                      .ok());
    }
    // No Flush: simulate a crash.
  }
  {
    auto db = Database::Open(dir_.string());
    ASSERT_TRUE(db.ok()) << db.status();
    auto table = db->GetTable("dwarfks", "dwarf_cell");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ((*table)->num_rows(), 5u);
  }
}

TEST_F(DatabaseDiskTest, BulkInsertAppliesAllRows) {
  auto db = Database::Open(dir_.string());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->CreateKeyspace("ks").ok());
  ASSERT_TRUE(db->CreateTable(CellSchema()).IsNotFound());  // wrong keyspace
  TableSchema schema = CellSchema();
  ASSERT_TRUE(db->CreateKeyspace("dwarfks").ok());
  ASSERT_TRUE(db->CreateTable(schema).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(CellRow(i, "bulk", i, 0, Value::Null(), true));
  }
  ASSERT_TRUE(db->BulkInsert("dwarfks", "dwarf_cell", std::move(rows)).ok());
  EXPECT_EQ((*db->GetTable("dwarfks", "dwarf_cell"))->num_rows(), 100u);
}

// A rejected insert leaves neither a row nor a commit-log record. A record
// logged ahead of its validation would fail every later Open at replay.
TEST_F(DatabaseDiskTest, RejectedInsertsLeaveNoRowAndTheStoreReopens) {
  {
    auto db = Database::Open(dir_.string());
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(ExecuteCql(&*db, "CREATE KEYSPACE ks").ok());
    ASSERT_TRUE(
        ExecuteCql(&*db, "CREATE TABLE ks.t (id int, v text, PRIMARY KEY (id))")
            .ok());
    ASSERT_TRUE(db->Flush().ok());  // the table survives a reopen
    EXPECT_TRUE(
        ExecuteCql(&*db, "INSERT INTO ks.t (id, v) VALUES ('oops', 'x')")
            .status()
            .IsInvalidArgument());
    // Only the second row is bad; the batch applies none of its rows.
    std::vector<Row> rows;
    rows.push_back({Value::Int(1), Value::Text("a")});
    rows.push_back({Value::Text("oops"), Value::Text("b")});
    EXPECT_TRUE(db->BulkInsert("ks", "t", std::move(rows)).IsInvalidArgument());
    EXPECT_EQ((*db->GetTable("ks", "t"))->num_rows(), 0u);
    // Close without a flush: the reopen replays the commit log.
  }
  auto db = Database::Open(dir_.string());
  ASSERT_TRUE(db.ok()) << db.status();
  auto table = db->GetTable("ks", "t");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), 0u);
}

// ------------------------------------------------------------------- CQL

class CqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ExecuteCql(&db_, "CREATE KEYSPACE dwarfks").ok());
    ASSERT_TRUE(ExecuteCql(&db_,
                           "CREATE TABLE dwarfks.dwarf_cell ("
                           "id int, key text, measure int, parentNode int, "
                           "pointerNode int, leaf boolean, schema_id int, "
                           "dimension_table_name text, "
                           "PRIMARY KEY (id))")
                    .ok());
  }
  Database db_;
};

TEST_F(CqlTest, Figure3Insert) {
  // The exact transformation output of Fig. 3.
  auto result = ExecuteCql(
      &db_,
      "INSERT INTO dwarfks.DWARF_CELL (id,key,measure,parentNode,"
      "pointerNode,leaf, schema_id, dimension_table_name) "
      "VALUES (3,'Fenian St', 3,3,null,true,1,'Station');");
  ASSERT_TRUE(result.ok()) << result.status();
  auto select =
      ExecuteCql(&db_, "SELECT key, measure FROM dwarfks.dwarf_cell WHERE id = 3");
  ASSERT_TRUE(select.ok()) << select.status();
  ASSERT_EQ(select->rows.size(), 1u);
  EXPECT_EQ(*select->rows[0][0].AsText(), "Fenian St");
  EXPECT_EQ(*select->rows[0][1].AsInt(), 3);
}

TEST_F(CqlTest, SelectStar) {
  ASSERT_TRUE(ExecuteCql(&db_,
                         "INSERT INTO dwarfks.dwarf_cell (id, key) "
                         "VALUES (1, 'x')")
                  .ok());
  auto result = ExecuteCql(&db_, "SELECT * FROM dwarfks.dwarf_cell");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns.size(), 8u);
  EXPECT_EQ(result->rows.size(), 1u);
  // Unset columns are null.
  EXPECT_TRUE(result->rows[0][2].is_null());
}

TEST_F(CqlTest, CreateTableWithSetColumns) {
  auto result = ExecuteCql(&db_,
                           "CREATE TABLE dwarfks.dwarf_node ("
                           "id int, parentIds set<int>, childrenIds set<int>, "
                           "root boolean, schema_id int, PRIMARY KEY (id))");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(ExecuteCql(&db_,
                         "INSERT INTO dwarfks.dwarf_node "
                         "(id, parentIds, childrenIds, root, schema_id) "
                         "VALUES (1, {2,3}, {4,5,6}, true, 1)")
                  .ok());
  auto select = ExecuteCql(
      &db_, "SELECT childrenIds FROM dwarfks.dwarf_node WHERE id = 1");
  ASSERT_TRUE(select.ok());
  EXPECT_EQ(*select->rows[0][0].AsIntSet(), (std::vector<int64_t>{4, 5, 6}));
}

TEST_F(CqlTest, SecondaryIndexViaCql) {
  ASSERT_TRUE(
      ExecuteCql(&db_, "CREATE INDEX ON dwarfks.dwarf_cell (parentNode)").ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(ExecuteCql(&db_, "INSERT INTO dwarfks.dwarf_cell "
                                 "(id, key, parentNode) VALUES (" +
                                     std::to_string(i) + ", 'k', " +
                                     std::to_string(i % 2) + ")")
                    .ok());
  }
  auto result = ExecuteCql(
      &db_, "SELECT id FROM dwarfks.dwarf_cell WHERE parentNode = 0");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), 3u);
}

TEST_F(CqlTest, UnindexedWhereNeedsAllowFiltering) {
  ASSERT_TRUE(ExecuteCql(&db_, "INSERT INTO dwarfks.dwarf_cell (id, key) "
                               "VALUES (1, 'x')")
                  .ok());
  EXPECT_TRUE(
      ExecuteCql(&db_, "SELECT id FROM dwarfks.dwarf_cell WHERE key = 'x'")
          .status()
          .IsFailedPrecondition());
  auto result = ExecuteCql(
      &db_,
      "SELECT id FROM dwarfks.dwarf_cell WHERE key = 'x' ALLOW FILTERING");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u);
}

TEST_F(CqlTest, BatchInsert) {
  auto result = ExecuteCql(&db_,
                           "BEGIN BATCH "
                           "INSERT INTO dwarfks.dwarf_cell (id,key) VALUES (1,'a'); "
                           "INSERT INTO dwarfks.dwarf_cell (id,key) VALUES (2,'b'); "
                           "INSERT INTO dwarfks.dwarf_cell (id,key) VALUES (3,'c'); "
                           "APPLY BATCH");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*db_.GetTable("dwarfks", "dwarf_cell"))->num_rows(), 3u);
}

TEST_F(CqlTest, ParseErrors) {
  for (const char* bad : {
           "",
           "SELEC * FROM a.b",
           "CREATE TABLE missing_keyspace (id int, PRIMARY KEY (id))",
           "INSERT INTO dwarfks.dwarf_cell (id) VALUES (1, 2)",
           "SELECT * FROM dwarfks.dwarf_cell WHERE id > 3",
           "CREATE TABLE dwarfks.t (id int)",  // no primary key
           "INSERT INTO dwarfks.dwarf_cell (id) VALUES ('unterminated",
       }) {
    EXPECT_TRUE(ExecuteCql(&db_, bad).status().IsParseError())
        << "input: " << bad << " -> " << ExecuteCql(&db_, bad).status();
  }
}

TEST_F(CqlTest, ExecutionErrors) {
  EXPECT_TRUE(ExecuteCql(&db_, "SELECT * FROM nope.t").status().IsNotFound());
  EXPECT_TRUE(ExecuteCql(&db_, "INSERT INTO dwarfks.dwarf_cell (nope) VALUES (1)")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(ExecuteCql(&db_, "CREATE KEYSPACE dwarfks").status()
                  .IsAlreadyExists());
}

TEST_F(CqlTest, QueryResultToStringRendersRows) {
  ASSERT_TRUE(ExecuteCql(&db_, "INSERT INTO dwarfks.dwarf_cell (id,key) "
                               "VALUES (1, 'Fenian St')")
                  .ok());
  auto result = ExecuteCql(&db_, "SELECT id, key FROM dwarfks.dwarf_cell");
  ASSERT_TRUE(result.ok());
  std::string rendered = result->ToString();
  EXPECT_NE(rendered.find("Fenian St"), std::string::npos);
  EXPECT_NE(rendered.find("id | key"), std::string::npos);
}

}  // namespace
}  // namespace scdwarf::nosql
