// Pins every byte the four mappers store. Each case stores Table 2 cubes
// into a fresh durable store and hashes each file it leaves, the logs
// included; the hashes must equal tests/testdata/store_digests.txt line for
// line. A change to the store path that keeps the stored bytes passes
// unedited; one that changes a byte fails, and the failure prints the whole
// list this tree stores, so a deliberate format change can replace the file
// with it.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "citibikes/bike_feed.h"
#include "citibikes/datasets.h"
#include "etl/parallel_pipeline.h"
#include "mapper/nosql_dwarf_mapper.h"
#include "mapper/nosql_min_mapper.h"
#include "mapper/sql_dwarf_mapper.h"
#include "mapper/sql_min_mapper.h"

namespace scdwarf {
namespace {

namespace fs = std::filesystem;

/// The cube of a Table 2 dataset, built once per process.
const dwarf::DwarfCube& DatasetCube(const std::string& name) {
  static auto* const cubes =
      new std::map<std::string, std::unique_ptr<dwarf::DwarfCube>>();
  auto& cube = (*cubes)[name];
  if (cube == nullptr) {
    auto spec = citibikes::FindDataset(name);
    EXPECT_TRUE(spec.ok()) << spec.status();
    citibikes::BikeFeedGenerator feed(citibikes::MakeFeedConfig(*spec));
    auto pipeline = etl::MakeBikesXmlParallelPipeline();
    EXPECT_TRUE(pipeline.ok()) << pipeline.status();
    while (feed.HasNext()) {
      Status status = pipeline->ConsumeXml(feed.NextXml());
      EXPECT_TRUE(status.ok()) << status;
    }
    auto built = std::move(*pipeline).Finish();
    EXPECT_TRUE(built.ok()) << built.status();
    cube = std::make_unique<dwarf::DwarfCube>(std::move(*built));
  }
  return *cube;
}

/// FNV-1a over \p file's path relative to \p dir, then its bytes, as
/// cubebench's HashDirectory mixes each file of a store.
uint64_t HashFile(const fs::path& dir, const fs::path& file) {
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](const std::string& bytes) {
    for (unsigned char c : bytes) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
  };
  std::ifstream in(file, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << file;
  mix(fs::relative(file, dir).string());
  mix(std::string((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>()));
  return hash;
}

/// One line per file under \p dir, in path order:
/// "<label> <relative path> <hash as 16 hex digits>".
std::vector<std::string> DigestLines(const std::string& label,
                                     const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> lines;
  for (const fs::path& file : files) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(HashFile(dir, file)));
    lines.push_back(label + " " + fs::relative(file, dir).string() + " " +
                    hex);
  }
  return lines;
}

/// Stores into a fresh directory (\p store) and returns its digest lines.
std::vector<std::string> StoreDigests(
    const std::string& label,
    const std::function<void(const std::string& dir)>& store) {
  const fs::path dir = fs::temp_directory_path() /
                       ("scdwarf_store_bytes_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  store(dir.string());
  std::vector<std::string> lines = DigestLines(label, dir);
  fs::remove_all(dir);
  return lines;
}

using StoreFn = std::function<void(const std::string& dir,
                                   const dwarf::DwarfCube& cube, int threads)>;

/// The four mappers, each storing one cube into its own store.
const std::vector<std::pair<std::string, StoreFn>>& Mappers() {
  static const auto* const mappers =
      new std::vector<std::pair<std::string, StoreFn>>{
          {"NoSQL-DWARF",
           [](const std::string& dir, const dwarf::DwarfCube& cube,
              int threads) {
             auto db = nosql::Database::Open(dir);
             ASSERT_TRUE(db.ok()) << db.status();
             mapper::NoSqlDwarfMapper cube_mapper(&*db, "dwarfks");
             mapper::NoSqlDwarfMapperOptions options;
             options.num_threads = threads;
             ASSERT_TRUE(cube_mapper.Store(cube, options).ok());
           }},
          {"NoSQL-Min",
           [](const std::string& dir, const dwarf::DwarfCube& cube,
              int threads) {
             auto db = nosql::Database::Open(dir);
             ASSERT_TRUE(db.ok()) << db.status();
             mapper::NoSqlMinMapper cube_mapper(&*db, "minks");
             ASSERT_TRUE(cube_mapper.Store(cube, {threads}).ok());
           }},
          {"MySQL-DWARF",
           [](const std::string& dir, const dwarf::DwarfCube& cube,
              int threads) {
             auto engine = sql::SqlEngine::Open(dir);
             ASSERT_TRUE(engine.ok()) << engine.status();
             mapper::SqlDwarfMapper cube_mapper(&*engine, "dwarfdb");
             ASSERT_TRUE(cube_mapper.Store(cube, {threads}).ok());
           }},
          {"MySQL-Min",
           [](const std::string& dir, const dwarf::DwarfCube& cube,
              int threads) {
             auto engine = sql::SqlEngine::Open(dir);
             ASSERT_TRUE(engine.ok()) << engine.status();
             mapper::SqlMinMapper cube_mapper(&*engine, "mindb");
             ASSERT_TRUE(cube_mapper.Store(cube, {threads}).ok());
           }},
      };
  return *mappers;
}

/// Per engine, Day then Week into one store, then Day deleted and not
/// flushed, so the log holds the deletes and the size record.
template <typename Engine, typename Mapper>
void StoreTwoDeleteFirst(const std::string& dir, const std::string& scope) {
  auto engine = Engine::Open(dir);
  ASSERT_TRUE(engine.ok()) << engine.status();
  Mapper cube_mapper(&*engine, scope);
  auto day = cube_mapper.Store(DatasetCube("Day"));
  ASSERT_TRUE(day.ok()) << day.status();
  ASSERT_TRUE(cube_mapper.Store(DatasetCube("Week")).ok());
  ASSERT_TRUE(cube_mapper.DeleteCube(*day).ok());
}

std::vector<std::string> ExpectedDigests() {
  std::ifstream in(std::string(SCDWARF_TESTDATA_DIR) + "/store_digests.txt");
  EXPECT_TRUE(in.good()) << "cannot read store_digests.txt";
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

TEST(StoreBytesTest, EveryStoredFileMatchesItsPinnedDigest) {
  struct Case {
    std::string dataset;
    int threads;
  };
  const Case cases[] = {{"Day", 4},  {"Week", 4}, {"Month", 4},
                        {"Day", 1},  {"Week", 1}};
  std::vector<std::string> actual;
  for (const Case& c : cases) {
    for (const auto& [name, store] : Mappers()) {
      const std::string label =
          c.dataset + "/" + name + "/t" + std::to_string(c.threads);
      SCOPED_TRACE(label);
      const dwarf::DwarfCube& cube = DatasetCube(c.dataset);
      std::vector<std::string> lines = StoreDigests(
          label, [&](const std::string& dir) { store(dir, cube, c.threads); });
      actual.insert(actual.end(), lines.begin(), lines.end());
    }
  }
  for (const std::vector<std::string>& lines :
       {StoreDigests("DayWeek-delete-Day/NoSQL-DWARF",
                     [](const std::string& dir) {
                       StoreTwoDeleteFirst<nosql::Database,
                                           mapper::NoSqlDwarfMapper>(
                           dir, "dwarfks");
                     }),
        StoreDigests("DayWeek-delete-Day/MySQL-DWARF",
                     [](const std::string& dir) {
                       StoreTwoDeleteFirst<sql::SqlEngine,
                                           mapper::SqlDwarfMapper>(dir,
                                                                   "dwarfdb");
                     })}) {
    actual.insert(actual.end(), lines.begin(), lines.end());
  }

  if (actual != ExpectedDigests()) {
    std::ostringstream list;
    for (const std::string& line : actual) list << line << "\n";
    ADD_FAILURE() << "stored bytes differ from tests/testdata/"
                     "store_digests.txt; this tree stores:\n"
                  << list.str();
  }
}

}  // namespace
}  // namespace scdwarf
