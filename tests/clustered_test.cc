#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "citibikes/bike_feed.h"
#include "clustered/flat_file.h"
#include "dwarf/builder.h"
#include "dwarf/query.h"
#include "etl/parallel_pipeline.h"

namespace scdwarf::clustered {
namespace {

namespace fs = std::filesystem;

class FlatFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("scdwarf_clustered_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static dwarf::DwarfCube BuildGeoCube() {
    dwarf::CubeSchema schema("geo",
                             {dwarf::DimensionSpec("Country"),
                              dwarf::DimensionSpec("City"),
                              dwarf::DimensionSpec("Station")},
                             "bikes");
    dwarf::DwarfBuilder builder(schema);
    EXPECT_TRUE(builder.AddTuple({"Ireland", "Dublin", "Fenian St"}, 3).ok());
    EXPECT_TRUE(builder.AddTuple({"Ireland", "Dublin", "Pearse St"}, 5).ok());
    EXPECT_TRUE(builder.AddTuple({"Ireland", "Cork", "Patrick St"}, 2).ok());
    EXPECT_TRUE(builder.AddTuple({"France", "Paris", "Bastille"}, 7).ok());
    return std::move(builder).Build().ValueOrDie();
  }

  static dwarf::DwarfCube BuildBikesCube(uint64_t records = 500) {
    citibikes::BikeFeedConfig config;
    config.target_records = records;
    citibikes::BikeFeedGenerator feed(config);
    auto pipeline = etl::MakeBikesXmlParallelPipeline();
    EXPECT_TRUE(pipeline.ok());
    while (feed.HasNext()) {
      EXPECT_TRUE(pipeline->ConsumeXml(feed.NextXml()).ok());
    }
    return std::move(*pipeline).Finish().ValueOrDie();
  }

  fs::path dir_;
};

TEST_F(FlatFileTest, FullRoundTripBothLayouts) {
  dwarf::DwarfCube cube = BuildGeoCube();
  for (ClusterLayout layout :
       {ClusterLayout::kHierarchical, ClusterLayout::kRecursive}) {
    std::string path = Path(std::string("geo_") + ClusterLayoutName(layout));
    ASSERT_TRUE(WriteDwarfFile(cube, path, layout).ok());
    auto loaded = ReadDwarfFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_TRUE(loaded->StructurallyEquals(cube))
        << "layout " << ClusterLayoutName(layout);
  }
}

TEST_F(FlatFileTest, BikesCubeRoundTrip) {
  dwarf::DwarfCube cube = BuildBikesCube();
  std::string path = Path("bikes.dwarf");
  ASSERT_TRUE(WriteDwarfFile(cube, path, ClusterLayout::kRecursive).ok());
  auto loaded = ReadDwarfFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->StructurallyEquals(cube));
}

TEST_F(FlatFileTest, EmptyCubeRoundTrip) {
  dwarf::CubeSchema schema("e", {dwarf::DimensionSpec("x")}, "m");
  dwarf::DwarfBuilder builder(schema);
  dwarf::DwarfCube cube = std::move(builder).Build().ValueOrDie();
  std::string path = Path("empty.dwarf");
  ASSERT_TRUE(WriteDwarfFile(cube, path, ClusterLayout::kHierarchical).ok());
  auto loaded = ReadDwarfFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->empty());
}

TEST_F(FlatFileTest, CorruptFileRejected) {
  std::string path = Path("corrupt.dwarf");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a dwarf file at all";
  }
  EXPECT_FALSE(ReadDwarfFile(path).ok());
  EXPECT_FALSE(FlatFileCube::Open(path).ok());
  EXPECT_TRUE(ReadDwarfFile(Path("missing.dwarf")).status().IsIoError());
}

TEST_F(FlatFileTest, PointQueriesWithoutFullLoad) {
  dwarf::DwarfCube cube = BuildGeoCube();
  std::string path = Path("geo.dwarf");
  ASSERT_TRUE(WriteDwarfFile(cube, path, ClusterLayout::kRecursive).ok());
  auto file_cube = FlatFileCube::Open(path);
  ASSERT_TRUE(file_cube.ok()) << file_cube.status();

  EXPECT_EQ(*file_cube->PointQuery({"Ireland", "Dublin", "Fenian St"}), 3);
  EXPECT_EQ(*file_cube->PointQuery({"France", "Paris", "Bastille"}), 7);
  EXPECT_EQ(*file_cube->PointQuery({std::nullopt, std::nullopt, std::nullopt}),
            17);
  EXPECT_EQ(*file_cube->PointQuery({"Ireland", std::nullopt, std::nullopt}),
            10);
  EXPECT_TRUE(file_cube->PointQuery({"Spain", std::nullopt, std::nullopt})
                  .status()
                  .IsNotFound());
  // A point query touches at most one node per level.
  EXPECT_LE(file_cube->stats().node_reads, 5u * 3u);
  EXPECT_LT(file_cube->stats().bytes_read, file_cube->file_size());
}

TEST_F(FlatFileTest, QueriesMatchInMemoryCube) {
  dwarf::DwarfCube cube = BuildBikesCube();
  std::string path = Path("bikes.dwarf");
  ASSERT_TRUE(WriteDwarfFile(cube, path, ClusterLayout::kHierarchical).ok());
  auto file_cube = FlatFileCube::Open(path);
  ASSERT_TRUE(file_cube.ok());

  // Compare a rollup-like sweep: every station key at dimension 5.
  const dwarf::Dictionary& stations = cube.dictionary(5);
  for (dwarf::DimKey id = 0; id < stations.size(); ++id) {
    std::vector<std::optional<std::string>> query(8, std::nullopt);
    query[5] = stations.DecodeUnchecked(id);
    std::vector<std::optional<dwarf::DimKey>> encoded(8, std::nullopt);
    encoded[5] = id;
    EXPECT_EQ(file_cube->PointQuery(query).ValueOr(-1),
              dwarf::PointQuery(cube, encoded).ValueOr(-1));
  }
}

TEST_F(FlatFileTest, AggregateQueriesMatchInMemory) {
  dwarf::DwarfCube cube = BuildGeoCube();
  std::string path = Path("geo.dwarf");
  ASSERT_TRUE(WriteDwarfFile(cube, path, ClusterLayout::kRecursive).ok());
  auto file_cube = FlatFileCube::Open(path);
  ASSERT_TRUE(file_cube.ok());

  dwarf::DimKey ireland = *file_cube->EncodeKey(0, "Ireland");
  dwarf::DimKey france = *file_cube->EncodeKey(0, "France");
  std::vector<dwarf::DimPredicate> predicates = {
      dwarf::DimPredicate::Set({ireland, france}),
      dwarf::DimPredicate::All(),
      dwarf::DimPredicate::All(),
  };
  EXPECT_EQ(*file_cube->AggregateQuery(predicates),
            *dwarf::AggregateQuery(cube, predicates));
}

TEST_F(FlatFileTest, LayoutsDifferInSeekBehaviour) {
  dwarf::DwarfCube cube = BuildBikesCube(800);
  std::string hier_path = Path("h.dwarf");
  std::string rec_path = Path("r.dwarf");
  ASSERT_TRUE(WriteDwarfFile(cube, hier_path, ClusterLayout::kHierarchical).ok());
  ASSERT_TRUE(WriteDwarfFile(cube, rec_path, ClusterLayout::kRecursive).ok());

  auto hier = FlatFileCube::Open(hier_path);
  auto rec = FlatFileCube::Open(rec_path);
  ASSERT_TRUE(hier.ok());
  ASSERT_TRUE(rec.ok());
  // Same bytes on disk regardless of ordering (node indexing, varints aside).
  EXPECT_NEAR(static_cast<double>(hier->file_size()),
              static_cast<double>(rec->file_size()),
              0.02 * static_cast<double>(hier->file_size()));

  // Drill one full point path on both; the recursive layout must not seek
  // more than the hierarchical one for point queries (it is the layout
  // optimised for them in [1]).
  std::vector<std::optional<std::string>> path_query(8, std::nullopt);
  path_query[0] = "January";
  ASSERT_TRUE(hier->PointQuery(path_query).ok());
  ASSERT_TRUE(rec->PointQuery(path_query).ok());
  EXPECT_EQ(hier->stats().node_reads, rec->stats().node_reads);
  EXPECT_GT(hier->stats().seek_distance, 0u);
}

}  // namespace
}  // namespace scdwarf::clustered
