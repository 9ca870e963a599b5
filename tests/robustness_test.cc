// Failure-injection and fuzz-style robustness tests: corrupted store
// contents must produce descriptive errors (never crashes or silent
// misreads), truncated files must be rejected, and the parsers must survive
// arbitrary byte soup.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/rng.h"
#include "clustered/flat_file.h"
#include "dwarf/builder.h"
#include "dwarf/query.h"
#include "dwarf/update.h"
#include "json/json_parser.h"
#include "mapper/id_map.h"
#include "mapper/nosql_dwarf_mapper.h"
#include "mapper/nosql_min_mapper.h"
#include "mapper/sql_dwarf_mapper.h"
#include "mapper/stored_cube.h"
#include "nosql/cql.h"
#include "nosql/database.h"
#include "sql/engine.h"
#include "sql/sql.h"
#include "xml/xml_parser.h"

namespace scdwarf {
namespace {

namespace fs = std::filesystem;

// ----------------------------------------------------- stored-cube repair

mapper::CubeMeta GeoMeta() {
  mapper::CubeMeta meta;
  meta.cube_name = "geo";
  meta.dimension_names = {"Country", "City"};
  meta.dimension_tables = {"", ""};
  meta.measure_name = "m";
  meta.agg = dwarf::AggFn::kSum;
  return meta;
}

/// A well-formed 2-dim stored cube:
///   node 0 (root): cell "IE"(1) -> node 1, ALL(2) -> node 1 (coalesced)
///   node 1 (leaf): cell "Dublin"(3) = 5, ALL(4) = 5
mapper::StoredCube ValidStored() {
  mapper::StoredCube stored;
  stored.meta = GeoMeta();
  stored.entry_node_id = 0;
  stored.cells = {
      {1, "IE", 0, 0, 1, false},
      {2, mapper::kAllCellKey, 0, 0, 1, false},
      {3, "Dublin", 5, 1, -1, true},
      {4, mapper::kAllCellKey, 5, 1, -1, true},
  };
  return stored;
}

TEST(StoredCubeRepairTest, ValidInputRebuilds) {
  auto cube = mapper::RebuildCube(ValidStored());
  ASSERT_TRUE(cube.ok()) << cube.status();
  EXPECT_EQ(cube->num_nodes(), 2u);
  EXPECT_EQ(*dwarf::PointQueryByName(*cube, {"IE", "Dublin"}), 5);
}

TEST(StoredCubeRepairTest, DanglingPointerRejected) {
  mapper::StoredCube stored = ValidStored();
  stored.cells[0].pointer_node = 99;
  auto cube = mapper::RebuildCube(stored);
  ASSERT_TRUE(cube.status().IsParseError());
  EXPECT_NE(cube.status().message().find("unknown node"), std::string::npos);
}

TEST(StoredCubeRepairTest, MissingAllCellRejected) {
  mapper::StoredCube stored = ValidStored();
  stored.cells.erase(stored.cells.begin() + 3);  // leaf node loses its ALL
  EXPECT_TRUE(mapper::RebuildCube(stored).status().IsParseError());
}

TEST(StoredCubeRepairTest, DuplicateAllCellRejected) {
  mapper::StoredCube stored = ValidStored();
  stored.cells.push_back({5, mapper::kAllCellKey, 9, 1, -1, true});
  EXPECT_TRUE(mapper::RebuildCube(stored).status().IsParseError());
}

TEST(StoredCubeRepairTest, UnknownEntryNodeRejected) {
  mapper::StoredCube stored = ValidStored();
  stored.entry_node_id = 42;
  EXPECT_TRUE(mapper::RebuildCube(stored).status().IsParseError());
}

TEST(StoredCubeRepairTest, UnreachableNodeRejected) {
  mapper::StoredCube stored = ValidStored();
  // Node 7 exists but nothing points at it.
  stored.cells.push_back({6, "orphan", 1, 7, -1, true});
  stored.cells.push_back({7, mapper::kAllCellKey, 1, 7, -1, true});
  EXPECT_TRUE(mapper::RebuildCube(stored).status().IsParseError());
}

TEST(StoredCubeRepairTest, LevelConflictRejected) {
  mapper::StoredCube stored = ValidStored();
  // Root's ALL cell points at the root itself -> level conflict/cycle.
  stored.cells[1].pointer_node = 0;
  EXPECT_TRUE(mapper::RebuildCube(stored).status().IsParseError());
}

TEST(StoredCubeRepairTest, CellBelowLeafLevelRejected) {
  mapper::StoredCube stored = ValidStored();
  // Leaf cell claims to point to yet another node.
  stored.cells[2].leaf = false;
  stored.cells[2].pointer_node = 2;
  stored.cells.push_back({8, "deep", 3, 2, -1, true});
  stored.cells.push_back({9, mapper::kAllCellKey, 3, 2, -1, true});
  EXPECT_TRUE(mapper::RebuildCube(stored).status().IsParseError());
}

TEST(StoredCubeRepairTest, InteriorCellWithoutPointerRejected) {
  mapper::StoredCube stored = ValidStored();
  stored.cells[0].pointer_node = -1;
  stored.cells[0].leaf = false;
  EXPECT_TRUE(mapper::RebuildCube(stored).status().IsParseError());
}

// Corruption injected through the actual store: delete a cell row and the
// mapper's Load must fail loudly, not return a wrong cube.
TEST(StoreCorruptionTest, MissingCellRowFailsLoad) {
  nosql::Database db;
  mapper::NoSqlDwarfMapper cube_mapper(&db, "dwarfks");
  dwarf::CubeSchema schema(
      "g", {dwarf::DimensionSpec("a"), dwarf::DimensionSpec("b")}, "m");
  dwarf::DwarfBuilder builder(schema);
  ASSERT_TRUE(builder.AddTuple({"x", "y"}, 1).ok());
  ASSERT_TRUE(builder.AddTuple({"x", "z"}, 2).ok());
  dwarf::DwarfCube cube = std::move(builder).Build().ValueOrDie();
  auto id = cube_mapper.Store(cube);
  ASSERT_TRUE(id.ok());

  // Tamper: repoint a cell's parent to a node id that does not exist.
  auto table = db.GetTable("dwarfks", mapper::NoSqlDwarfMapper::kCellCf);
  ASSERT_TRUE(table.ok());
  auto rows = (*table)->ScanAll();
  ASSERT_FALSE(rows.empty());
  nosql::Row tampered = rows.front();
  tampered[4] = Value::Int(424242);  // pointernode
  tampered[5] = Value::Bool(false);  // leaf
  ASSERT_TRUE((*table)->Insert(tampered).ok());  // upsert by pk

  auto reloaded = cube_mapper.Load(*id);
  EXPECT_FALSE(reloaded.ok());
}

// ------------------------------------------------------ flat-file fuzzing

class FlatFileFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatFileFuzzTest, TruncationsNeverCrash) {
  dwarf::CubeSchema schema(
      "f", {dwarf::DimensionSpec("a"), dwarf::DimensionSpec("b")}, "m");
  dwarf::DwarfBuilder builder(schema);
  Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(builder
                    .AddTuple({"a" + std::to_string(rng.NextBelow(6)),
                               "b" + std::to_string(rng.NextBelow(6))},
                              1)
                    .ok());
  }
  dwarf::DwarfCube cube = std::move(builder).Build().ValueOrDie();
  fs::path dir = fs::temp_directory_path() /
                 ("scdwarf_fuzz_" + std::to_string(::getpid()) + "_" +
                  std::to_string(GetParam()));
  fs::create_directories(dir);
  std::string path = (dir / "cube.dwarf").string();
  ASSERT_TRUE(clustered::WriteDwarfFile(cube, path,
                                        clustered::ClusterLayout::kRecursive)
                  .ok());
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::vector<char> bytes(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  in.close();

  // Truncate at 25 random points and at every small prefix; loading must
  // fail cleanly every time.
  std::vector<size_t> cut_points;
  for (size_t i = 0; i < 16 && i < bytes.size(); ++i) cut_points.push_back(i);
  for (int i = 0; i < 25; ++i) {
    cut_points.push_back(rng.NextBelow(bytes.size()));
  }
  std::string truncated_path = (dir / "trunc.dwarf").string();
  for (size_t cut : cut_points) {
    {
      std::ofstream out(truncated_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    auto loaded = clustered::ReadDwarfFile(truncated_path);
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut << " of " << bytes.size();
  }

  // Random single-byte corruptions: must never crash; either a clean error
  // or a cube (some header bytes are genuinely don't-care).
  for (int i = 0; i < 40; ++i) {
    std::vector<char> mutated = bytes;
    size_t index = rng.NextBelow(mutated.size());
    mutated[index] = static_cast<char>(rng.NextU64());
    {
      std::ofstream out(truncated_path, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    // The outcome may be ok or an error; crash/UB is the failure mode, so a
    // cube that loads is walked end to end by a full roll-up.
    auto loaded = clustered::ReadDwarfFile(truncated_path);
    if (loaded.ok()) (void)dwarf::ExtractBaseTuples(*loaded);
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatFileFuzzTest,
                         ::testing::Values(1001, 2002, 3003));

// ------------------------------------------------------ store-file fuzzing

/// Reads every byte of \p path.
std::vector<uint8_t> ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const fs::path& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Truncates or flips bytes of one file of a real store at a time and
/// reopens the store: Open must return OK or a status, never crash, throw
/// or hit undefined behaviour. Each file is restored before the next trial.
/// Returns how many reopens failed.
template <typename OpenFn>
int FuzzStoreFiles(const fs::path& dir, Rng* rng, const OpenFn& open) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  EXPECT_GE(files.size(), 3u);
  int failures = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const fs::path& file = files[rng->NextBelow(files.size())];
    const std::vector<uint8_t> original = ReadBytes(file);
    if (original.empty()) continue;
    std::vector<uint8_t> mutated = original;
    if (rng->NextBelow(2) == 0) {
      mutated.resize(rng->NextBelow(original.size()));
    } else {
      for (uint64_t flips = 1 + rng->NextBelow(4); flips > 0; --flips) {
        mutated[rng->NextBelow(mutated.size())] =
            static_cast<uint8_t>(rng->NextU64());
      }
    }
    WriteBytes(file, mutated);
    Status status = open(dir.string());
    if (!status.ok()) ++failures;
    WriteBytes(file, original);
  }
  // The untouched store still opens.
  EXPECT_TRUE(open(dir.string()).ok());
  return failures;
}

class StoreFileFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("scdwarf_store_fuzz_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()));
    fs::remove_all(dir_);
    dwarf::CubeSchema schema("f",
                             {dwarf::DimensionSpec("a"),
                              dwarf::DimensionSpec("b"),
                              dwarf::DimensionSpec("c")},
                             "m");
    dwarf::DwarfBuilder builder(schema);
    Rng rng(GetParam());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(builder
                      .AddTuple({"a" + std::to_string(rng.NextBelow(3)),
                                 "b" + std::to_string(rng.NextBelow(4)),
                                 "c" + std::to_string(rng.NextBelow(5))},
                                1)
                      .ok());
    }
    cube_ = std::move(builder).Build().ValueOrDie();
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  dwarf::DwarfCube cube_;
};

TEST_P(StoreFileFuzzTest, CorruptNoSqlFilesNeverCrashOpen) {
  {
    auto db = nosql::Database::Open(dir_.string());
    ASSERT_TRUE(db.ok()) << db.status();
    mapper::NoSqlDwarfMapper dwarf_mapper(&*db, "dwarfks");
    ASSERT_TRUE(dwarf_mapper.Store(cube_).ok());
    mapper::NoSqlMinMapper min_mapper(&*db, "minks");
    ASSERT_TRUE(min_mapper.Store(cube_).ok());
    // Unflushed inserts and deletes leave both kinds of commit-log record.
    const char* cells = mapper::NoSqlDwarfMapper::kCellCf;
    auto table = db->GetTable("dwarfks", cells);
    ASSERT_TRUE(table.ok());
    nosql::Row row = (*table)->ScanAll().front();
    row[0] = Value::Int(100000);
    ASSERT_TRUE(db->Insert("dwarfks", cells, row).ok());
    ASSERT_TRUE(db->BulkDelete("dwarfks", cells,
                               {Value::Int(100000), Value::Int(0)})
                    .ok());
  }
  Rng rng(GetParam() * 7);
  const int failures = FuzzStoreFiles(dir_, &rng, [](const std::string& dir) {
    return nosql::Database::Open(dir).status();
  });
  EXPECT_GT(failures, 0);
}

TEST_P(StoreFileFuzzTest, CorruptSqlFilesNeverCrashOpen) {
  {
    auto engine = sql::SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    mapper::SqlDwarfMapper dwarf_mapper(&*engine, "dwarfdb");
    ASSERT_TRUE(dwarf_mapper.Store(cube_).ok());
    // Unflushed inserts and deletes leave both kinds of redo record.
    const char* nodes = mapper::SqlDwarfMapper::kNodeTable;
    ASSERT_TRUE(engine
                    ->Insert("dwarfdb", nodes,
                             {Value::Int(100000), Value::Bool(false),
                              Value::Int(0)})
                    .ok());
    ASSERT_TRUE(
        engine->BulkDelete("dwarfdb", nodes, {Value::Int(100000)}).ok());
  }
  Rng rng(GetParam() * 11);
  const int failures = FuzzStoreFiles(dir_, &rng, [](const std::string& dir) {
    return sql::SqlEngine::Open(dir).status();
  });
  EXPECT_GT(failures, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreFileFuzzTest,
                         ::testing::Values(7, 77, 777));

// --------------------------------------------------------- parser fuzzing

class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, RandomBytesNeverCrashParsers) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 400; ++trial) {
    size_t length = rng.NextBelow(200);
    std::string input;
    input.reserve(length);
    for (size_t i = 0; i < length; ++i) {
      input.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    (void)xml::ParseXml(input);
    (void)json::ParseJson(input);
  }
}

TEST_P(ParserFuzzTest, StructuredGarbageNeverCrashesParsers) {
  Rng rng(GetParam() ^ 0xdeadULL);
  const char* fragments[] = {"<",    ">",   "</",  "/>",  "station", "\"",
                             "'",    "&",   ";",   "{",   "}",       "[",
                             "]",    ":",   ",",   "=",   "null",    "1e9",
                             "<!--", "-->", "<![CDATA[", "]]>", "&#x41;",
                             "\\u0041"};
  constexpr size_t kNumFragments = sizeof(fragments) / sizeof(fragments[0]);
  for (int trial = 0; trial < 400; ++trial) {
    std::string input;
    size_t pieces = rng.NextBelow(30);
    for (size_t i = 0; i < pieces; ++i) {
      input += fragments[rng.NextBelow(kNumFragments)];
    }
    (void)xml::ParseXml(input);
    (void)json::ParseJson(input);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Values(11, 22, 33));

// --------------------------------------------------- CQL / SQL fuzzing

class QueryLanguageFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryLanguageFuzzTest, RandomStatementsNeverCrash) {
  Rng rng(GetParam());
  const char* tokens[] = {"SELECT", "INSERT", "CREATE",  "TABLE", "FROM",
                          "WHERE",  "INTO",   "VALUES",  "(",     ")",
                          ",",      "*",      "=",       "'x'",   "42",
                          "ks.t",   "a",      "PRIMARY", "KEY",   "int",
                          "set",    "<",      ">",       ";",     "{1,2}",
                          "BATCH",  "APPLY",  "BEGIN",   "JOIN",  "ON"};
  constexpr size_t kNumTokens = sizeof(tokens) / sizeof(tokens[0]);
  nosql::Database db;
  sql::SqlEngine engine;
  for (int trial = 0; trial < 500; ++trial) {
    std::string statement;
    size_t pieces = 1 + rng.NextBelow(18);
    for (size_t i = 0; i < pieces; ++i) {
      statement += tokens[rng.NextBelow(kNumTokens)];
      statement += " ";
    }
    (void)nosql::ExecuteCql(&db, statement);
    (void)sql::ExecuteSql(&engine, statement);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryLanguageFuzzTest,
                         ::testing::Values(5, 55, 555));

}  // namespace
}  // namespace scdwarf
