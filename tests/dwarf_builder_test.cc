#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "common/rng.h"
#include "dwarf/builder.h"
#include "dwarf/query.h"

namespace scdwarf::dwarf {
namespace {

CubeSchema GeoSchema(AggFn agg = AggFn::kSum) {
  return CubeSchema("geo",
                    {DimensionSpec("Country"), DimensionSpec("City"),
                     DimensionSpec("Station", "Station")},
                    "bikes", agg);
}

/// The running example of the paper's Fig. 1/Fig. 2: country/city/station.
DwarfCube BuildGeoCube(AggFn agg = AggFn::kSum, BuilderOptions options = {}) {
  DwarfBuilder builder(GeoSchema(agg), options);
  EXPECT_TRUE(builder.AddTuple({"Ireland", "Dublin", "Fenian St"}, 3).ok());
  EXPECT_TRUE(builder.AddTuple({"Ireland", "Dublin", "Pearse St"}, 5).ok());
  EXPECT_TRUE(builder.AddTuple({"Ireland", "Cork", "Patrick St"}, 2).ok());
  EXPECT_TRUE(builder.AddTuple({"France", "Paris", "Bastille"}, 7).ok());
  auto cube = std::move(builder).Build();
  EXPECT_TRUE(cube.ok()) << cube.status();
  return std::move(cube).ValueOrDie();
}

TEST(DwarfBuilderTest, EmptyCube) {
  DwarfBuilder builder(GeoSchema());
  auto cube = std::move(builder).Build();
  ASSERT_TRUE(cube.ok());
  EXPECT_TRUE(cube->empty());
  EXPECT_EQ(cube->num_nodes(), 0u);
}

TEST(DwarfBuilderTest, SingleTuple) {
  DwarfBuilder builder(GeoSchema());
  ASSERT_TRUE(builder.AddTuple({"Ireland", "Dublin", "Fenian St"}, 3).ok());
  auto cube = std::move(builder).Build();
  ASSERT_TRUE(cube.ok()) << cube.status();
  // One node per level; every ALL pointer coalesces onto the single path.
  EXPECT_EQ(cube->num_nodes(), 3u);
  EXPECT_EQ(cube->stats().cell_count, 3u);
  EXPECT_EQ(cube->stats().coalesced_all_count, 2u);
  EXPECT_EQ(*PointQueryByName(*cube, {"Ireland", "Dublin", "Fenian St"}), 3);
  EXPECT_EQ(*PointQueryByName(*cube, {std::nullopt, std::nullopt, std::nullopt}),
            3);
}

TEST(DwarfBuilderTest, SingleDimensionCube) {
  CubeSchema schema("flat", {DimensionSpec("Key")}, "m", AggFn::kSum);
  DwarfBuilder builder(schema);
  ASSERT_TRUE(builder.AddTuple({"a"}, 1).ok());
  ASSERT_TRUE(builder.AddTuple({"b"}, 2).ok());
  ASSERT_TRUE(builder.AddTuple({"c"}, 4).ok());
  auto cube = std::move(builder).Build();
  ASSERT_TRUE(cube.ok()) << cube.status();
  EXPECT_EQ(cube->num_nodes(), 1u);
  const NodeView root = cube->node(cube->root());
  EXPECT_EQ(root.cells.size(), 3u);
  EXPECT_EQ(root.all_measure, 7);
}

TEST(DwarfBuilderTest, GeoCubeStructure) {
  DwarfCube cube = BuildGeoCube();
  EXPECT_EQ(cube.stats().tuple_count, 4u);
  EXPECT_EQ(cube.stats().source_tuple_count, 4u);

  const NodeView root = cube.node(cube.root());
  ASSERT_EQ(root.cells.size(), 2u);  // Ireland, France
  EXPECT_FALSE(root.all_coalesced);

  // France has a single chain, so its city and station ALL cells coalesce.
  EXPECT_GT(cube.stats().coalesced_all_count, 0u);
}

TEST(DwarfBuilderTest, ArityMismatchRejected) {
  DwarfBuilder builder(GeoSchema());
  EXPECT_TRUE(builder.AddTuple({"Ireland", "Dublin"}, 3).IsInvalidArgument());
}

TEST(DwarfBuilderTest, InvalidSchemaRejected) {
  CubeSchema no_dims("bad", {}, "m");
  DwarfBuilder builder(no_dims);
  EXPECT_TRUE(std::move(builder).Build().status().IsInvalidArgument());

  CubeSchema dup("bad2", {DimensionSpec("a"), DimensionSpec("a")}, "m");
  DwarfBuilder builder2(dup);
  EXPECT_TRUE(std::move(builder2).Build().status().IsInvalidArgument());
}

TEST(DwarfBuilderTest, DuplicateTuplesMergeThroughAggregate) {
  DwarfBuilder builder(GeoSchema(AggFn::kSum));
  ASSERT_TRUE(builder.AddTuple({"Ireland", "Dublin", "Fenian St"}, 3).ok());
  ASSERT_TRUE(builder.AddTuple({"Ireland", "Dublin", "Fenian St"}, 4).ok());
  auto cube = std::move(builder).Build();
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->stats().tuple_count, 1u);
  EXPECT_EQ(cube->stats().source_tuple_count, 2u);
  EXPECT_EQ(*PointQueryByName(*cube, {"Ireland", "Dublin", "Fenian St"}), 7);
}

TEST(DwarfBuilderTest, InputOrderDoesNotMatter) {
  DwarfBuilder shuffled(GeoSchema());
  ASSERT_TRUE(shuffled.AddTuple({"France", "Paris", "Bastille"}, 7).ok());
  ASSERT_TRUE(shuffled.AddTuple({"Ireland", "Cork", "Patrick St"}, 2).ok());
  ASSERT_TRUE(shuffled.AddTuple({"Ireland", "Dublin", "Pearse St"}, 5).ok());
  ASSERT_TRUE(shuffled.AddTuple({"Ireland", "Dublin", "Fenian St"}, 3).ok());
  auto cube = std::move(shuffled).Build();
  ASSERT_TRUE(cube.ok());
  EXPECT_TRUE(cube->StructurallyEquals(BuildGeoCube()));
}

TEST(DwarfBuilderTest, AddEncodedTupleValidatesKeys) {
  DwarfBuilder builder(GeoSchema());
  Tuple tuple;
  tuple.keys = {0, 0, 0};
  tuple.measure = 1;
  // No keys encoded yet -> id 0 unknown.
  EXPECT_TRUE(builder.AddEncodedTuple(tuple).IsInvalidArgument());
  ASSERT_TRUE(builder.EncodeKey(0, "Ireland").ok());
  ASSERT_TRUE(builder.EncodeKey(1, "Dublin").ok());
  ASSERT_TRUE(builder.EncodeKey(2, "Fenian St").ok());
  EXPECT_TRUE(builder.AddEncodedTuple(tuple).ok());
  auto cube = std::move(builder).Build();
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(*PointQueryByName(*cube, {"Ireland", "Dublin", "Fenian St"}), 1);
}

TEST(DwarfBuilderTest, CountAggregateCountsTuples) {
  DwarfCube cube = BuildGeoCube(AggFn::kCount);
  EXPECT_EQ(*PointQueryByName(cube, {"Ireland", std::nullopt, std::nullopt}), 3);
  EXPECT_EQ(*PointQueryByName(cube, {std::nullopt, std::nullopt, std::nullopt}),
            4);
}

TEST(DwarfBuilderTest, MinMaxAggregates) {
  DwarfCube min_cube = BuildGeoCube(AggFn::kMin);
  EXPECT_EQ(*PointQueryByName(min_cube,
                              {"Ireland", std::nullopt, std::nullopt}),
            2);
  DwarfCube max_cube = BuildGeoCube(AggFn::kMax);
  EXPECT_EQ(*PointQueryByName(max_cube,
                              {std::nullopt, std::nullopt, std::nullopt}),
            7);
}

TEST(DwarfBuilderTest, SuffixCoalescingReducesNodeCount) {
  DwarfCube coalesced = BuildGeoCube();
  BuilderOptions no_coalesce;
  no_coalesce.enable_suffix_coalescing = false;
  DwarfCube full = BuildGeoCube(AggFn::kSum, no_coalesce);
  EXPECT_LT(coalesced.num_nodes(), full.num_nodes());
  EXPECT_EQ(full.stats().coalesced_all_count, 0u);
  // Same answers either way.
  for (const auto& country :
       std::vector<std::optional<std::string>>{"Ireland", "France",
                                               std::nullopt}) {
    EXPECT_EQ(
        PointQueryByName(coalesced, {country, std::nullopt, std::nullopt})
            .ValueOr(-1),
        PointQueryByName(full, {country, std::nullopt, std::nullopt})
            .ValueOr(-1));
  }
}

TEST(DwarfBuilderTest, DebugStringShowsTree) {
  DwarfCube cube = BuildGeoCube();
  std::string dump = cube.ToDebugString();
  EXPECT_NE(dump.find("Ireland"), std::string::npos);
  EXPECT_NE(dump.find("ALL"), std::string::npos);
  EXPECT_NE(dump.find("Fenian St"), std::string::npos);
}

// ------------------------------------------------------------------
// Property test: for random datasets, every point query (all 2^d ALL
// patterns x sampled keys) must equal a brute-force aggregate over the
// input tuples. This is the central correctness invariant of DWARF.
// ------------------------------------------------------------------

struct PropertyCase {
  AggFn agg;
  bool coalesce;
  bool memoize;
  uint64_t seed;
};

class DwarfPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(DwarfPropertyTest, PointQueriesMatchBruteForce) {
  const PropertyCase& param = GetParam();
  Rng rng(param.seed);
  constexpr size_t kDims = 4;
  const size_t cardinalities[kDims] = {5, 4, 3, 6};

  CubeSchema schema("prop",
                    {DimensionSpec("d0"), DimensionSpec("d1"),
                     DimensionSpec("d2"), DimensionSpec("d3")},
                    "m", param.agg);
  BuilderOptions options;
  options.enable_suffix_coalescing = param.coalesce;
  options.enable_merge_memoization = param.memoize;
  DwarfBuilder builder(schema, options);

  // Raw facts for brute force, keyed by string keys.
  std::vector<std::pair<std::vector<std::string>, Measure>> facts;
  size_t num_tuples = 120;
  for (size_t i = 0; i < num_tuples; ++i) {
    std::vector<std::string> keys(kDims);
    for (size_t d = 0; d < kDims; ++d) {
      keys[d] = "k" + std::to_string(rng.NextBelow(cardinalities[d]));
    }
    Measure measure = rng.NextInRange(-20, 100);
    ASSERT_TRUE(builder.AddTuple(keys, measure).ok());
    facts.emplace_back(std::move(keys), measure);
  }
  auto cube_result = std::move(builder).Build();
  ASSERT_TRUE(cube_result.ok()) << cube_result.status();
  const DwarfCube& cube = *cube_result;

  auto brute_force = [&](const std::vector<std::optional<std::string>>& query)
      -> std::optional<Measure> {
    std::optional<Measure> acc;
    for (const auto& [keys, measure] : facts) {
      bool match = true;
      for (size_t d = 0; d < kDims; ++d) {
        if (query[d].has_value() && *query[d] != keys[d]) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      Measure leaf = AggLeafValue(param.agg, measure);
      acc = acc.has_value() ? AggCombine(param.agg, *acc, leaf) : leaf;
    }
    return acc;
  };

  // All 2^4 ALL-patterns x a sample of key combinations.
  for (uint32_t pattern = 0; pattern < (1u << kDims); ++pattern) {
    for (int sample = 0; sample < 40; ++sample) {
      std::vector<std::optional<std::string>> query(kDims);
      for (size_t d = 0; d < kDims; ++d) {
        if (pattern & (1u << d)) {
          query[d] = "k" + std::to_string(rng.NextBelow(cardinalities[d]));
        }
      }
      std::optional<Measure> expected = brute_force(query);
      Result<Measure> actual = PointQueryByName(cube, query);
      if (expected.has_value()) {
        ASSERT_TRUE(actual.ok()) << actual.status();
        EXPECT_EQ(*actual, *expected);
      } else {
        EXPECT_TRUE(actual.status().IsNotFound());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, DwarfPropertyTest,
    ::testing::Values(PropertyCase{AggFn::kSum, true, true, 1},
                      PropertyCase{AggFn::kSum, true, false, 2},
                      PropertyCase{AggFn::kSum, false, false, 3},
                      PropertyCase{AggFn::kCount, true, true, 4},
                      PropertyCase{AggFn::kMin, true, true, 5},
                      PropertyCase{AggFn::kMax, true, true, 6},
                      PropertyCase{AggFn::kMax, false, false, 7}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      std::string name = AggFnName(info.param.agg);
      name += info.param.coalesce ? "_coalesce" : "_full";
      name += info.param.memoize ? "_memo" : "_nomemo";
      name += "_s" + std::to_string(info.param.seed);
      return name;
    });

// Structural invariants on randomly built cubes.
class DwarfInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DwarfInvariantTest, ArenaIsWellFormed) {
  Rng rng(GetParam());
  CubeSchema schema("inv",
                    {DimensionSpec("a"), DimensionSpec("b"), DimensionSpec("c")},
                    "m");
  DwarfBuilder builder(schema);
  size_t n = 50 + rng.NextBelow(200);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(builder
                    .AddTuple({"a" + std::to_string(rng.NextBelow(8)),
                               "b" + std::to_string(rng.NextBelow(8)),
                               "c" + std::to_string(rng.NextBelow(8))},
                              static_cast<Measure>(rng.NextBelow(50)))
                    .ok());
  }
  auto cube = std::move(builder).Build();
  ASSERT_TRUE(cube.ok());
  for (NodeId id = 0; id < cube->num_nodes(); ++id) {
    const NodeView node = cube->node(id);
    ASSERT_FALSE(node.cells.empty());
    for (size_t c = 1; c < node.cells.size(); ++c) {
      ASSERT_LT(node.cells[c - 1].key, node.cells[c].key);
    }
    if (!cube->IsLeafLevel(node.level)) {
      for (const DwarfCell& cell : node.cells) {
        ASSERT_LT(cell.child, cube->num_nodes());
        ASSERT_EQ(cube->node(cell.child).level, node.level + 1);
      }
      ASSERT_LT(node.all_child, cube->num_nodes());
      ASSERT_EQ(cube->node(node.all_child).level, node.level + 1);
    }
  }
  // Root is last committed node in construction order.
  EXPECT_EQ(cube->root(), cube->num_nodes() - 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DwarfInvariantTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// CubeAssembler::Finish takes levels and keys straight from stored bytes, so
// it must reject every node shape the flat-arena loader rejects: each case
// below is one defect in an otherwise well-formed two-level cube whose
// dictionaries hold one value per dimension.
TEST(CubeAssemblerTest, RejectsNodesTheLoaderRejects) {
  CubeSchema schema("asm", {DimensionSpec("a"), DimensionSpec("b")}, "m");
  auto assemble = [&schema](NodeId root_all_child, DimKey leaf_key,
                            bool root_is_leaf) {
    std::vector<Dictionary> dictionaries(2);
    dictionaries[0].Encode("a0");
    dictionaries[1].Encode("b0");
    CubeAssembler assembler(schema, std::move(dictionaries));
    DwarfNode leaf;
    leaf.level = 1;
    leaf.cells.push_back({leaf_key, kNullNode, 5});
    leaf.all_measure = 5;
    NodeId leaf_id = assembler.AddNode(std::move(leaf));
    DwarfNode root;
    root.level = 0;
    root.cells.push_back({0, leaf_id, 0});
    root.all_child = root_all_child == kNullNode ? leaf_id : root_all_child;
    NodeId root_id = assembler.AddNode(std::move(root));
    assembler.SetRoot(root_is_leaf ? leaf_id : root_id);
    return assembler.Finish();
  };
  ASSERT_TRUE(assemble(kNullNode, 0, false).ok());
  // The root's ALL child is the root itself.
  EXPECT_TRUE(assemble(1, 0, false).status().IsInvalidArgument());
  // A leaf key of 7 under a one-value dictionary.
  EXPECT_TRUE(assemble(kNullNode, 7, false).status().IsInvalidArgument());
  // The root is the level-1 leaf.
  EXPECT_TRUE(assemble(kNullNode, 0, true).status().IsInvalidArgument());
}

}  // namespace
}  // namespace scdwarf::dwarf
