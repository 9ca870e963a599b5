#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"
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

// A std::variant reference model of Value: the order, equality, hash,
// encoding and literal every Value must reproduce exactly. Segments write
// secondary indexes in Value order, so the order is part of the disk format.
using RefValue = std::variant<std::monostate, bool, int64_t, std::string,
                              std::vector<int64_t>>;

uint64_t RefHash(const RefValue& ref) {
  switch (ref.index()) {
    case 0: return 0x6e756c6cULL;
    case 1: return std::get<bool>(ref) ? 0x74727565ULL : 0x66616c73ULL;
    case 2: return MixBits(static_cast<uint64_t>(std::get<int64_t>(ref)));
    case 3: return HashString(std::get<std::string>(ref));
  }
  uint64_t h = 0x736574ULL;
  for (int64_t member : std::get<std::vector<int64_t>>(ref)) {
    h = HashCombine(h, static_cast<uint64_t>(member));
  }
  return h;
}

std::vector<uint8_t> RefEncode(const RefValue& ref) {
  ByteWriter writer;
  writer.PutU8(static_cast<uint8_t>(ref.index()));
  switch (ref.index()) {
    case 0: break;
    case 1: writer.PutU8(std::get<bool>(ref) ? 1 : 0); break;
    case 2: writer.PutSignedVarint(std::get<int64_t>(ref)); break;
    case 3: writer.PutString(std::get<std::string>(ref)); break;
    default: {
      const auto& set = std::get<std::vector<int64_t>>(ref);
      writer.PutVarint(set.size());
      // Deltas wrap modulo 2^64, as two's-complement subtraction does.
      uint64_t previous = 0;
      for (int64_t member : set) {
        const uint64_t bits = static_cast<uint64_t>(member);
        writer.PutSignedVarint(static_cast<int64_t>(bits - previous));
        previous = bits;
      }
    }
  }
  return writer.TakeBuffer();
}

std::string RefCqlLiteral(const RefValue& ref) {
  switch (ref.index()) {
    case 0: return "null";
    case 1: return std::get<bool>(ref) ? "true" : "false";
    case 2: return std::to_string(std::get<int64_t>(ref));
    case 3: return QuoteSqlString(std::get<std::string>(ref));
  }
  std::string out = "{";
  for (int64_t member : std::get<std::vector<int64_t>>(ref)) {
    if (out.size() > 1) out += ",";
    out += std::to_string(member);
  }
  return out + "}";
}

/// A random value and its reference. Small alphabets make equal values,
/// shared prefixes and prefix pairs common, so the order is exercised at
/// every boundary: text around the 14-byte inline limit with bytes >= 0x80
/// and NULs, ints at both ends of int64, sets with extreme members.
std::pair<Value, RefValue> RandomValue(Rng* rng) {
  static const int64_t kInts[] = {INT64_MIN, INT64_MIN + 1, -1, 0, 1, 2,
                                  INT64_MAX - 1, INT64_MAX};
  static const char kChars[] = {'a', 'b', '\0', '\x7f', '\x80', '\xff'};
  static const size_t kLengths[] = {0, 1, 2, 13, 14, 15, 16, 40, 300};
  switch (rng->NextBelow(5)) {
    case 0:
      return {Value::Null(), RefValue{}};
    case 1: {
      const bool v = rng->NextBelow(2) == 1;
      return {Value::Bool(v), RefValue(v)};
    }
    case 2: {
      const int64_t v = rng->NextBelow(2) == 0
                            ? kInts[rng->NextBelow(std::size(kInts))]
                            : static_cast<int64_t>(rng->NextU64());
      return {Value::Int(v), RefValue(v)};
    }
    case 3: {
      const size_t length = kLengths[rng->NextBelow(std::size(kLengths))];
      std::string text;
      for (size_t i = 0; i < length; ++i) {
        text.push_back(kChars[rng->NextBelow(length > 16 ? 2 : 6)]);
      }
      // Long texts draw from two letters and end in any byte, so they
      // share long prefixes and often differ only near their ends.
      if (length > 16) text.back() = kChars[rng->NextBelow(std::size(kChars))];
      return {Value::Text(text), RefValue(text)};
    }
    default: {
      // A few extreme members, duplicated and in any order, or a long run of
      // small members that long sets share as a prefix.
      std::vector<int64_t> members;
      if (rng->NextBelow(4) == 0) {
        const size_t size = 20 + rng->NextBelow(3);
        for (size_t i = 0; i < size; ++i) {
          members.push_back(static_cast<int64_t>(i) * 3 - 30);
        }
      } else {
        for (size_t i = rng->NextBelow(5); i > 0; --i) {
          members.push_back(kInts[rng->NextBelow(std::size(kInts))]);
        }
      }
      std::vector<int64_t> canonical = members;
      std::sort(canonical.begin(), canonical.end());
      canonical.erase(std::unique(canonical.begin(), canonical.end()),
                      canonical.end());
      return {Value::IntSet(std::move(members)), RefValue(canonical)};
    }
  }
}

TEST(ValueTest, MatchesVariantReferenceModel) {
  Rng rng(20);
  std::vector<Value> values;
  std::vector<RefValue> refs;
  // The fixed extremes first, then random values.
  const std::pair<Value, RefValue> fixed[] = {
      {Value::Null(), RefValue{}},
      {Value::Bool(false), RefValue(false)},
      {Value::Bool(true), RefValue(true)},
      {Value::Int(INT64_MIN), RefValue(INT64_MIN)},
      {Value::Int(INT64_MAX), RefValue(INT64_MAX)},
      {Value::Text(""), RefValue(std::string())},
      {Value::Text(std::string(14, '\xff')), RefValue(std::string(14, '\xff'))},
      {Value::Text(std::string(15, '\0')), RefValue(std::string(15, '\0'))},
      {Value::IntSet({}), RefValue(std::vector<int64_t>{})},
      {Value::IntSet({INT64_MAX, -1}),
       RefValue(std::vector<int64_t>{-1, INT64_MAX})},
      {Value::IntSet({INT64_MAX, INT64_MIN, 0}),
       RefValue(std::vector<int64_t>{INT64_MIN, 0, INT64_MAX})},
  };
  for (const auto& [value, ref] : fixed) {
    values.push_back(value);
    refs.push_back(ref);
  }
  while (values.size() < 400) {
    auto [value, ref] = RandomValue(&rng);
    values.push_back(std::move(value));
    refs.push_back(std::move(ref));
  }
  // Two values are equal exactly when their encodings are: a key can be
  // hashed and compared as its encoded bytes.
  std::vector<std::vector<uint8_t>> encodings;
  for (const Value& value : values) {
    ByteWriter writer;
    value.EncodeTo(&writer);
    encodings.push_back(writer.TakeBuffer());
  }

  for (size_t i = 0; i < values.size(); ++i) {
    SCOPED_TRACE("value " + std::to_string(i) + ": " + RefCqlLiteral(refs[i]));
    const Value& value = values[i];
    EXPECT_EQ(value.Hash(), RefHash(refs[i]));
    EXPECT_EQ(value.ToCqlLiteral(), RefCqlLiteral(refs[i]));
    ByteWriter writer;
    value.EncodeTo(&writer);
    const std::vector<uint8_t> expected = RefEncode(refs[i]);
    EXPECT_EQ(writer.data(), expected);
    EXPECT_EQ(value.EncodedSize(), expected.size());
    ByteReader reader(writer.data());
    auto decoded = Value::DecodeFrom(&reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(*decoded, value);
    ByteReader skipper(writer.data());
    ASSERT_TRUE(Value::SkipEncoded(&skipper).ok());
    EXPECT_TRUE(skipper.AtEnd());
    EXPECT_EQ(decoded->Hash(), value.Hash());
    for (size_t j = 0; j < values.size(); ++j) {
      ASSERT_EQ(value < values[j], refs[i] < refs[j]) << "against " << j;
      ASSERT_EQ(value == values[j], refs[i] == refs[j]) << "against " << j;
      ASSERT_EQ(value != values[j], refs[i] != refs[j]) << "against " << j;
      ASSERT_EQ(value == values[j], encodings[i] == encodings[j])
          << "against " << j;
    }

    // Copy, move and self-assignment keep the value; a moved-from value
    // can be assigned to again.
    Value copy = value;
    EXPECT_EQ(copy, value);
    Value moved = std::move(copy);
    EXPECT_EQ(moved, value);
    copy = moved;
    EXPECT_EQ(copy, value);
    Value& alias = copy;
    copy = alias;
    EXPECT_EQ(copy, value);
    Value assigned = values[(i + 1) % values.size()];
    assigned = value;
    EXPECT_EQ(assigned, value);
    assigned = std::move(moved);
    EXPECT_EQ(assigned, value);
    moved = values[(i + 7) % values.size()];
    EXPECT_EQ(moved, values[(i + 7) % values.size()]);
  }
}

TEST(ValueTest, DecodeRejectsASetCountLargerThanItsBytes) {
  ByteWriter writer;
  writer.PutU8(4);  // set<int>
  writer.PutVarint(uint64_t{1000000000000});
  writer.PutSignedVarint(1);
  ByteReader reader(writer.data());
  EXPECT_TRUE(Value::DecodeFrom(&reader).status().IsParseError());
}

TEST(ValueTest, ExtremeSetDeltasWrapWithoutOverflow) {
  // Two INT64_MAX deltas sum past INT64_MAX; the running sum wraps modulo
  // 2^64, to INT64_MAX then -2.
  ByteWriter writer;
  writer.PutU8(4);
  writer.PutVarint(2);
  writer.PutSignedVarint(INT64_MAX);
  writer.PutSignedVarint(INT64_MAX);
  ByteReader reader(writer.data());
  auto decoded = Value::DecodeFrom(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, Value::IntSet({-2, INT64_MAX}));
  // Encoding a set whose members span more than INT64_MAX round-trips.
  const Value wide = Value::IntSet({-1, INT64_MAX});
  ByteWriter encoded;
  wide.EncodeTo(&encoded);
  ByteReader again(encoded.data());
  EXPECT_EQ(*Value::DecodeFrom(&again), wide);
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
  EXPECT_EQ(*(*row)[1].AsText(), "Fenian St");
  EXPECT_TRUE(table.GetByPk(Value::Int(4)).status().IsNotFound());
}

TEST(TableTest, InsertIsUpsert) {
  Table table(CellSchema());
  ASSERT_TRUE(table.Insert(CellRow(1, "a", 1, 0, Value::Null(), true)).ok());
  ASSERT_TRUE(table.Insert(CellRow(1, "b", 2, 0, Value::Null(), true)).ok());
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(*(*table.GetByPk(Value::Int(1)))[1].AsText(), "b");
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
  EXPECT_EQ(*(*row)[2].AsIntSet(), (std::vector<int64_t>{4, 5, 6}));
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
  EXPECT_EQ(*(*row)[1].AsText(), "station 49");
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

TEST(TableTest, OverwrittenRowsAreCompactedAwayAndEveryRowKeepsItsSlot) {
  TableSchema schema("ks", "kv",
                     {{"id", DataType::kInt}, {"payload", DataType::kText}},
                     "id");
  Table table(schema);
  auto row = [](int64_t id, int round) {
    return Row{Value::Int(id),
               Value::Text(std::string(100 + round, 'a' + round))};
  };
  for (int round = 0; round < 10; ++round) {
    for (int64_t id = 0; id < 1000; ++id) {
      ASSERT_TRUE(table.Insert(row(id, round)).ok());
    }
  }
  for (int64_t id = 0; id < 1000; id += 2) {
    ASSERT_TRUE(table.DeleteByPk(Value::Int(id)).ok());
  }
  // Ten rounds wrote about 1.1 MB; the 500 live rows hold about 55 KB, and
  // the slab keeps at most twice the live bytes plus a block's slack.
  EXPECT_LT(table.memtable_bytes(), 400u << 10);
  std::vector<Row> expected;
  for (int64_t id = 1; id < 1000; id += 2) expected.push_back(row(id, 9));
  EXPECT_EQ(table.ScanAll(), expected);  // slot order is insertion order
  EXPECT_EQ(*table.GetByPk(Value::Int(999)), row(999, 9));
  ByteWriter writer;
  table.SerializeTo(&writer);
  ByteReader reader(writer.data());
  auto loaded = Table::Deserialize(&reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->ScanAll(), expected);
}

// Differential property test of the primary index: random upserts, deletes
// and lookups against a std::map model, with one secondary index and one
// unindexed column read through ALLOW FILTERING. The keys are chosen so
// that the hashes of their encodings, which the index hashes, share the low
// kClusterBits bits: they crowd into a few home buckets, so probe runs get
// long and cross each other, and a delete inside a run has to move later
// entries back.
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
      ByteWriter encoded;
      key.EncodeTo(&encoded);
      const uint64_t hash = HashBytes(encoded.data().data(), encoded.size());
      if ((hash & ((uint64_t{1} << kClusterBits) - 1)) == 0) {
        pool.push_back(std::move(key));
      }
    }
    return pool;
  }

  static std::vector<Value> SortedKeys(const std::vector<Row>& rows) {
    std::vector<Value> keys;
    for (const Row& row : rows) keys.push_back(row[0]);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// Every returned row must be the model's row for its key, and the keys
  /// must be exactly the model keys whose \p column equals \p value.
  static void ExpectSelection(const Model& model, size_t column,
                              const Value& value,
                              const Result<std::vector<Row>>& got) {
    ASSERT_TRUE(got.ok()) << got.status();
    std::vector<Value> expected;
    for (const auto& [key, row] : model) {
      if (row[column] == value) expected.push_back(key);
    }
    for (const Row& row : *got) {
      auto it = model.find(row[0]);
      ASSERT_NE(it, model.end()) << row[0].ToCqlLiteral();
      EXPECT_EQ(row, it->second);
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
      EXPECT_EQ(*got, it->second);
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
        ASSERT_EQ(*got, it->second);
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

  /// The rows a segment holds, in the order it holds them.
  static std::vector<Row> SegmentRows(const ByteWriter& segment) {
    ByteReader reader(segment.data());
    EXPECT_TRUE(reader.ReadU32().ok());  // magic
    EXPECT_TRUE(reader.ReadU8().ok());   // version
    auto schema = TableSchema::DecodeFrom(&reader);
    EXPECT_TRUE(schema.ok()) << schema.status();
    auto count = reader.ReadVarint();
    EXPECT_TRUE(count.ok()) << count.status();
    std::vector<Row> rows(count.ok() ? *count : 0);
    for (Row& row : rows) {
      for (size_t c = 0; c < schema->num_columns(); ++c) {
        auto value = Value::DecodeFrom(&reader);
        EXPECT_TRUE(value.ok()) << value.status();
        row.push_back(value.ok() ? std::move(*value) : Value::Null());
      }
    }
    return rows;
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
  // Live keys in slot order, the order segments write rows in: an upsert
  // keeps its key's slot, though its payload, and so its encoded row,
  // changes length; a key inserted again after its delete goes last.
  std::vector<Value> slot_order;
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
        if (it == model.end()) slot_order.push_back(key);
        model[key] = std::move(row);
      } else if (roll < phase.upsert_pct + phase.delete_pct) {
        Status status = table->DeleteByPk(key);
        if (it == model.end()) {
          ASSERT_TRUE(status.IsNotFound()) << "step " << step << ": " << status;
        } else {
          ASSERT_TRUE(status.ok()) << "step " << step << ": " << status;
          model.erase(it);
          slot_order.erase(
              std::find(slot_order.begin(), slot_order.end(), key));
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
    std::vector<Row> in_slot_order;
    for (const Value& key : slot_order) in_slot_order.push_back(model[key]);
    EXPECT_EQ(SegmentRows(writer), in_slot_order);
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
    EXPECT_EQ(*(*(*table)->GetByPk(Value::Int(7)))[1].AsText(), "s7");
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

/// Appends one framed commit-log record to \p path: the delete flag, the
/// table's names, then \p rows (each written as given, arity included).
void AppendLogRecord(const fs::path& path, bool is_delete,
                     const std::vector<std::vector<uint8_t>>& rows,
                     uint64_t declared_rows) {
  ByteWriter record;
  record.PutU8(is_delete ? 1 : 0);
  record.PutString("dwarfks");
  record.PutString("dwarf_cell");
  record.PutVarint(declared_rows);
  for (const std::vector<uint8_t>& row : rows) {
    record.PutRaw(row.data(), row.size());
  }
  // The frame is the record's size as PutU32 writes it, then the record.
  const uint32_t size = static_cast<uint32_t>(record.size());
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(&size), sizeof(size));
  out.write(reinterpret_cast<const char*>(record.data().data()),
            static_cast<std::streamsize>(record.size()));
}

/// One log row: \p arity, then the encoded \p values.
std::vector<uint8_t> LogRow(uint64_t arity, const std::vector<Value>& values) {
  ByteWriter writer;
  writer.PutVarint(arity);
  for (const Value& value : values) value.EncodeTo(&writer);
  return writer.TakeBuffer();
}

/// Corrupt commit-log records make Open return a status that names the
/// log, never crash or throw.
class CorruptCommitLogTest : public DatabaseDiskTest {
 protected:
  void SetUp() override {
    DatabaseDiskTest::SetUp();
    auto db = Database::Open(dir_.string());
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->CreateKeyspace("dwarfks").ok());
    ASSERT_TRUE(db->CreateTable(CellSchema()).ok());
    ASSERT_TRUE(db->Flush().ok());
  }

  void ExpectOpenFailsNamingTheLog() {
    auto db = Database::Open(dir_.string());
    ASSERT_FALSE(db.ok());
    EXPECT_NE(db.status().ToString().find("commitlog.bin"), std::string::npos)
        << db.status();
  }

  fs::path log() const { return dir_ / "commitlog.bin"; }
};

TEST_F(CorruptCommitLogTest, DeleteRowOfArityZero) {
  AppendLogRecord(log(), /*is_delete=*/true, {LogRow(0, {})}, 1);
  ExpectOpenFailsNamingTheLog();
}

TEST_F(CorruptCommitLogTest, RowArityLargerThanTheRecord) {
  AppendLogRecord(log(), /*is_delete=*/false,
                  {LogRow(uint64_t{1} << 62, {Value::Int(1)})}, 1);
  ExpectOpenFailsNamingTheLog();
}

TEST_F(CorruptCommitLogTest, SetCountLargerThanTheRecord) {
  ByteWriter set;
  set.PutU8(4);
  set.PutVarint(uint64_t{1000000000000});
  std::vector<uint8_t> row = LogRow(1, {});
  row.insert(row.end(), set.data().begin(), set.data().end());
  AppendLogRecord(log(), /*is_delete=*/true, {row}, 1);
  ExpectOpenFailsNamingTheLog();
}

TEST_F(CorruptCommitLogTest, RecordIsParsedInsideItsFrame) {
  // The first record declares two rows but frames one; the second row's
  // bytes would come from the next record's frame.
  const std::vector<Value> row = {Value::Int(1), Value::Text("k"),
                                  Value::Int(0), Value::Int(0), Value::Null(),
                                  Value::Bool(true), Value::Int(0),
                                  Value::Text("")};
  AppendLogRecord(log(), /*is_delete=*/false, {LogRow(8, row)}, 2);
  AppendLogRecord(log(), /*is_delete=*/false, {LogRow(8, row)}, 1);
  ExpectOpenFailsNamingTheLog();
}

// A rejected insert leaves neither a row nor a commit-log record. A record
// logged ahead of its validation would fail every later Open at replay.
TEST_F(DatabaseDiskTest, BatchEncodedForADroppedTableAppliesAndLogsNothing) {
  {
    auto db = Database::Open(dir_.string());
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->CreateKeyspace("dwarfks").ok());
    ASSERT_TRUE(db->CreateTable(CellSchema()).ok());
    auto batch = db->EncodeInsert(
        "dwarfks", "dwarf_cell",
        {CellRow(1, "old", 1, 0, Value::Null(), true)});
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_EQ(batch->size(), 1u);
    // The table is re-created between the batch's encode and its apply.
    ASSERT_TRUE(db->DropTable("dwarfks", "dwarf_cell").ok());
    ASSERT_TRUE(db->CreateTable(CellSchema()).ok());
    EXPECT_TRUE(db->ApplyInsert(std::move(*batch)).IsNotFound());
    EXPECT_EQ((*db->GetTable("dwarfks", "dwarf_cell"))->num_rows(), 0u);
    // A bad row rejects its whole batch at encode.
    Row bad = CellRow(2, "bad", 2, 0, Value::Null(), true);
    bad[1] = Value::Int(9);
    EXPECT_TRUE(db->EncodeInsert("dwarfks", "dwarf_cell",
                                 {CellRow(3, "ok", 3, 0, Value::Null(), true),
                                  bad})
                    .status()
                    .IsInvalidArgument());
  }
  // Nothing of either batch reached the commit log.
  auto db = Database::Open(dir_.string());
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db->GetTable("dwarfks", "dwarf_cell"))->num_rows(), 0u);
}

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
