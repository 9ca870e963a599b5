#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "dwarf/builder.h"
#include "dwarf/query.h"
#include "dwarf/update.h"

namespace scdwarf::dwarf {
namespace {

CubeSchema BikesSchema(AggFn agg = AggFn::kSum) {
  return CubeSchema("bikes",
                    {DimensionSpec("Day"), DimensionSpec("Station")}, "bikes",
                    agg);
}

DwarfCube BuildCube(
    const std::vector<std::pair<std::vector<std::string>, Measure>>& tuples,
    AggFn agg = AggFn::kSum) {
  DwarfBuilder builder(BikesSchema(agg));
  for (const auto& [keys, measure] : tuples) {
    EXPECT_TRUE(builder.AddTuple(keys, measure).ok());
  }
  return std::move(builder).Build().ValueOrDie();
}

TEST(ExtractBaseTuplesTest, RoundTripsTheBaseRelation) {
  DwarfCube cube = BuildCube({{{"Mon", "Fenian St"}, 3},
                              {{"Mon", "Pearse St"}, 5},
                              {{"Tue", "Fenian St"}, 4}});
  auto base = ExtractBaseTuples(cube);
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(base->size(), 3u);
  // Rebuilding from the base relation reproduces the cube exactly.
  DwarfBuilder builder(cube.schema());
  for (const SliceRow& row : *base) {
    ASSERT_TRUE(builder.AddAggregatedTuple(row.keys, row.measure).ok());
  }
  DwarfCube rebuilt = std::move(builder).Build().ValueOrDie();
  EXPECT_TRUE(rebuilt.StructurallyEquals(cube));
}

TEST(CubeUpdaterTest, UpdateEqualsBuildFromScratch) {
  std::vector<std::pair<std::vector<std::string>, Measure>> first = {
      {{"Mon", "Fenian St"}, 3}, {{"Mon", "Pearse St"}, 5}};
  std::vector<std::pair<std::vector<std::string>, Measure>> second = {
      {{"Tue", "Fenian St"}, 4}, {{"Mon", "Fenian St"}, 2}};

  DwarfCube incremental = BuildCube(first);
  CubeUpdater updater(std::move(incremental));
  for (const auto& [keys, measure] : second) {
    ASSERT_TRUE(updater.AddTuple(keys, measure).ok());
  }
  EXPECT_EQ(updater.num_pending(), 2u);
  auto updated = std::move(updater).Rebuild();
  ASSERT_TRUE(updated.ok()) << updated.status();

  std::vector<std::pair<std::vector<std::string>, Measure>> all = first;
  all.insert(all.end(), second.begin(), second.end());
  DwarfCube reference = BuildCube(all);
  EXPECT_TRUE(updated->StructurallyEquals(reference));
  EXPECT_EQ(*PointQueryByName(*updated, {"Mon", "Fenian St"}), 5);
}

TEST(CubeUpdaterTest, CountCubesKeepCounting) {
  // The subtle case: COUNT measures must not be re-counted on rebuild.
  std::vector<std::pair<std::vector<std::string>, Measure>> first = {
      {{"Mon", "Fenian St"}, 99}, {{"Mon", "Fenian St"}, 99}};
  DwarfCube cube = BuildCube(first, AggFn::kCount);
  EXPECT_EQ(*PointQueryByName(cube, {"Mon", "Fenian St"}), 2);

  auto updated = MergeTuples(std::move(cube), {{{"Mon", "Fenian St"}, 99}});
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_EQ(*PointQueryByName(*updated, {"Mon", "Fenian St"}), 3);
}

TEST(CubeUpdaterTest, MinMaxUpdates) {
  DwarfCube min_cube = BuildCube({{{"Mon", "Fenian St"}, 5}}, AggFn::kMin);
  auto updated = MergeTuples(std::move(min_cube), {{{"Mon", "Fenian St"}, 2}});
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*PointQueryByName(*updated, {"Mon", "Fenian St"}), 2);

  DwarfCube max_cube = BuildCube({{{"Mon", "Fenian St"}, 5}}, AggFn::kMax);
  auto max_updated =
      MergeTuples(std::move(max_cube), {{{"Mon", "Fenian St"}, 2}});
  ASSERT_TRUE(max_updated.ok());
  EXPECT_EQ(*PointQueryByName(*max_updated, {"Mon", "Fenian St"}), 5);
}

TEST(CubeUpdaterTest, NewDimensionValuesExtendDictionaries) {
  DwarfCube cube = BuildCube({{{"Mon", "Fenian St"}, 3}});
  auto updated = MergeTuples(std::move(cube), {{{"Wed", "Eyre Sq"}, 8}});
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->dictionary(0).size(), 2u);
  EXPECT_EQ(*PointQueryByName(*updated, {"Wed", "Eyre Sq"}), 8);
  EXPECT_EQ(*PointQueryByName(*updated, {std::nullopt, std::nullopt}), 11);
}

TEST(CubeUpdaterTest, EmptyCubeUpdate) {
  DwarfBuilder builder(BikesSchema());
  DwarfCube empty = std::move(builder).Build().ValueOrDie();
  auto updated = MergeTuples(std::move(empty), {{{"Mon", "Fenian St"}, 3}});
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_EQ(*PointQueryByName(*updated, {"Mon", "Fenian St"}), 3);
}

TEST(CubeUpdaterTest, NoPendingTuplesIsIdentity) {
  DwarfCube cube = BuildCube({{{"Mon", "Fenian St"}, 3}});
  DwarfCube copy = BuildCube({{{"Mon", "Fenian St"}, 3}});
  CubeUpdater updater(std::move(cube));
  auto updated = std::move(updater).Rebuild();
  ASSERT_TRUE(updated.ok());
  EXPECT_TRUE(updated->StructurallyEquals(copy));
}

TEST(CubeUpdaterTest, ArityMismatchRejected) {
  DwarfCube cube = BuildCube({{{"Mon", "Fenian St"}, 3}});
  CubeUpdater updater(std::move(cube));
  EXPECT_TRUE(updater.AddTuple({"Mon"}, 1).IsInvalidArgument());
}

TEST(CubeUpdaterTest, ApplyEqualsRebuild) {
  std::vector<std::pair<std::vector<std::string>, Measure>> base = {
      {{"Mon", "Fenian St"}, 3},
      {{"Mon", "Pearse St"}, 5},
      {{"Tue", "Fenian St"}, 4},
      {{"Tue", "Eyre Sq"}, 7}};
  std::vector<std::pair<std::vector<std::string>, Measure>> batch = {
      {{"Tue", "Fenian St"}, 2}, {{"Wed", "Custom House"}, 9}};

  CubeUpdater incremental(BuildCube(base));
  CubeUpdater full(BuildCube(base));
  for (const auto& [keys, measure] : batch) {
    ASSERT_TRUE(incremental.AddTuple(keys, measure).ok());
    ASSERT_TRUE(full.AddTuple(keys, measure).ok());
  }
  auto applied = std::move(incremental).Apply();
  ASSERT_TRUE(applied.ok()) << applied.status();
  auto rebuilt = std::move(full).Rebuild();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();

  EXPECT_TRUE(applied->StructurallyEquals(*rebuilt));
  // Logical stats agree too: the merged cube's reachable counts must not see
  // the dead prior-epoch arena slots.
  EXPECT_EQ(applied->stats().tuple_count, rebuilt->stats().tuple_count);
  EXPECT_EQ(applied->stats().source_tuple_count,
            rebuilt->stats().source_tuple_count);
  EXPECT_EQ(applied->stats().node_count, rebuilt->stats().node_count);
  EXPECT_EQ(applied->stats().cell_count, rebuilt->stats().cell_count);
  EXPECT_EQ(applied->stats().coalesced_all_count,
            rebuilt->stats().coalesced_all_count);
}

// Both update paths count every tuple the cube was ever fed, the ones a
// duplicate path merged included: the compaction step must not reset the
// count to the number of distinct paths.
TEST(CubeUpdaterTest, RebuildCarriesSourceTupleCount) {
  const std::vector<std::pair<std::vector<std::string>, Measure>> base = {
      {{"Mon", "Fenian St"}, 3},
      {{"Mon", "Fenian St"}, 4},
      {{"Tue", "Pearse St"}, 5}};
  CubeUpdater incremental(BuildCube(base));
  CubeUpdater full(BuildCube(base));
  ASSERT_TRUE(incremental.AddTuple({"Wed", "Eyre Sq"}, 2).ok());
  ASSERT_TRUE(full.AddTuple({"Wed", "Eyre Sq"}, 2).ok());
  auto applied = std::move(incremental).Apply();
  ASSERT_TRUE(applied.ok()) << applied.status();
  auto rebuilt = std::move(full).Rebuild();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();

  EXPECT_TRUE(applied->StructurallyEquals(*rebuilt));
  EXPECT_EQ(applied->source_tuple_count(), 4u);
  EXPECT_EQ(rebuilt->source_tuple_count(), 4u);
  EXPECT_EQ(rebuilt->stats().source_tuple_count, 4u);
}

TEST(CubeUpdaterTest, ApplyProfileReportsIncrementalPhases) {
  DwarfCube cube = BuildCube({{{"Mon", "Fenian St"}, 3},
                              {{"Mon", "Pearse St"}, 5},
                              {{"Tue", "Fenian St"}, 4}});
  CubeUpdater updater(std::move(cube));
  ASSERT_TRUE(updater.AddTuple({"Tue", "Pearse St"}, 6).ok());
  UpdateProfile profile;
  auto updated = std::move(updater).Apply(&profile);
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_TRUE(profile.incremental);
  EXPECT_EQ(profile.base_tuples, 3u);
  EXPECT_EQ(profile.new_tuples, 1u);
  EXPECT_EQ(profile.changed_prefixes, 1u);
  // The untouched "Mon" subtree is adopted from the prior epoch wholesale.
  EXPECT_GT(profile.nodes_reused, 0u);
  EXPECT_GE(profile.rebuild_ms, profile.delta_build_ms);
}

TEST(CubeUpdaterTest, ApplySharesArenaAcrossEpochs) {
  DwarfCube cube = BuildCube({{{"Mon", "Fenian St"}, 3},
                              {{"Tue", "Pearse St"}, 5}});
  EXPECT_EQ(cube.arena_chunks(), 1u);
  for (int epoch = 0; epoch < 3; ++epoch) {
    CubeUpdater updater(std::move(cube));
    ASSERT_TRUE(
        updater.AddTuple({"Wed", "Stop " + std::to_string(epoch)}, 1).ok());
    auto updated = std::move(updater).Apply();
    ASSERT_TRUE(updated.ok()) << updated.status();
    cube = std::move(updated).ValueOrDie();
    EXPECT_EQ(cube.arena_chunks(), static_cast<size_t>(epoch + 2));
  }
  // A full rebuild compacts the chain back to a single owned chunk.
  CubeUpdater updater(std::move(cube));
  ASSERT_TRUE(updater.AddTuple({"Thu", "Stop X"}, 1).ok());
  auto rebuilt = std::move(updater).Rebuild();
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt->arena_chunks(), 1u);
}

// Epoch drop frees the arena as whole chunks: chunk counts (not node counts)
// govern allocation lifetime, per-node/per-cell destructors cannot exist
// (static_asserts in dwarf_cube.h pin trivial destructibility), and copying
// or merging a cube shares chunks instead of duplicating nodes.
TEST(CubeUpdaterTest, EpochDropFreesArenaAsWholeChunks) {
  const int64_t baseline = NodeArena::live_instances();
  {
    DwarfCube cube = BuildCube({{{"Mon", "Fenian St"}, 3},
                                {{"Tue", "Pearse St"}, 5}});
    EXPECT_EQ(NodeArena::live_instances(), baseline + 1);
    {
      // Copying shares the chunk — no new arena comes to life.
      DwarfCube copy = cube;
      EXPECT_EQ(NodeArena::live_instances(), baseline + 1);
    }
    EXPECT_EQ(NodeArena::live_instances(), baseline + 1);

    // Each incremental merge appends exactly one tail chunk; the prior
    // epoch's chunks stay shared, not copied.
    CubeUpdater updater(std::move(cube));
    ASSERT_TRUE(updater.AddTuple({"Wed", "Eyre Sq"}, 2).ok());
    auto merged = std::move(updater).Apply();
    ASSERT_TRUE(merged.ok()) << merged.status();
    EXPECT_EQ(merged->arena_chunks(), 2u);
    EXPECT_EQ(NodeArena::live_instances(), baseline + 2);
  }
  // Dropping the last cube of the lineage releases every chunk.
  EXPECT_EQ(NodeArena::live_instances(), baseline);
}

void ExpectSameStats(const CubeStats& actual, const CubeStats& expected) {
  EXPECT_EQ(actual.node_count, expected.node_count);
  EXPECT_EQ(actual.cell_count, expected.cell_count);
  EXPECT_EQ(actual.coalesced_all_count, expected.coalesced_all_count);
  EXPECT_EQ(actual.tuple_count, expected.tuple_count);
  EXPECT_EQ(actual.source_tuple_count, expected.source_tuple_count);
  EXPECT_EQ(actual.approx_bytes, expected.approx_bytes);
}

// A merged cube computes its structural stats on first use, not inside the
// merge. On every path stats() must equal a fresh walk (ComputeStats) and
// the stats of a full Rebuild of the same history: each cube of a chained
// Apply run, a copy taken before its first stats() call (which shares the
// one result), and the empty-delta path.
TEST(CubeUpdaterTest, DeferredStatsMatchComputeStatsAndRebuild) {
  using Batch = std::vector<std::pair<std::vector<std::string>, Measure>>;
  const Batch base = {{{"Mon", "Fenian St"}, 3},
                      {{"Mon", "Pearse St"}, 5},
                      {{"Tue", "Fenian St"}, 4}};
  const std::vector<Batch> batches = {
      {{{"Tue", "Fenian St"}, 2}, {{"Wed", "Eyre Sq"}, 9}},
      {{{"Mon", "Eyre Sq"}, 1}},
      {{{"Wed", "Eyre Sq"}, 4},
       {{"Thu", "Pearse St"}, 6},
       {{"Thu", "Pearse St"}, 1}}};
  auto rebuilt_through = [&](size_t count) {
    CubeUpdater full(BuildCube(base));
    for (size_t b = 0; b < count; ++b) {
      for (const auto& [keys, measure] : batches[b]) {
        EXPECT_TRUE(full.AddTuple(keys, measure).ok());
      }
    }
    return std::move(full).Rebuild().ValueOrDie();
  };

  DwarfCube cube = BuildCube(base);
  for (size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    CubeUpdater updater(std::move(cube));
    for (const auto& [keys, measure] : batches[b]) {
      ASSERT_TRUE(updater.AddTuple(keys, measure).ok());
    }
    auto applied = std::move(updater).Apply();
    ASSERT_TRUE(applied.ok()) << applied.status();
    cube = std::move(applied).ValueOrDie();
    const CubeStats reference = rebuilt_through(b + 1).stats();

    DwarfCube copy = cube;  // before either cube's first stats() call
    ExpectSameStats(copy.stats(), reference);
    EXPECT_EQ(&copy.stats(), &cube.stats());
    ExpectSameStats(cube.stats(), cube.ComputeStats());
  }

  CubeUpdater idle{DwarfCube(cube)};
  auto unchanged = std::move(idle).Apply();
  ASSERT_TRUE(unchanged.ok()) << unchanged.status();
  EXPECT_NE(&unchanged->stats(), &cube.stats());
  ExpectSameStats(unchanged->stats(), unchanged->ComputeStats());
  ExpectSameStats(unchanged->stats(), rebuilt_through(batches.size()).stats());
}

TEST(CubeUpdaterTest, ApplyWithNoPendingTuplesIsIdentity) {
  DwarfCube cube = BuildCube({{{"Mon", "Fenian St"}, 3}});
  DwarfCube copy = BuildCube({{{"Mon", "Fenian St"}, 3}});
  CubeUpdater updater(std::move(cube));
  auto updated = std::move(updater).Apply();
  ASSERT_TRUE(updated.ok());
  EXPECT_TRUE(updated->StructurallyEquals(copy));
  EXPECT_EQ(updated->stats().tuple_count, copy.stats().tuple_count);
}

TEST(MaterializeSubCubeTest, FiltersAndReaggregates) {
  DwarfCube cube = BuildCube({{{"Mon", "Fenian St"}, 3},
                              {{"Mon", "Pearse St"}, 5},
                              {{"Tue", "Fenian St"}, 4}});
  DimKey monday = cube.dictionary(0).Lookup("Mon").ValueOrDie();
  std::vector<DimPredicate> predicates = {DimPredicate::Point(monday),
                                          DimPredicate::All()};
  auto sub = MaterializeSubCube(cube, predicates);
  ASSERT_TRUE(sub.ok()) << sub.status();
  EXPECT_EQ(*PointQueryByName(*sub, {"Mon", "Fenian St"}), 3);
  EXPECT_EQ(*PointQueryByName(*sub, {std::nullopt, std::nullopt}), 8);
  EXPECT_TRUE(
      PointQueryByName(*sub, {"Tue", "Fenian St"}).status().IsNotFound());
  // Schema is preserved.
  EXPECT_EQ(sub->schema().dimensions()[0].name, "Day");
}

TEST(MaterializeSubCubeTest, EmptySelectionYieldsEmptyCube) {
  DwarfCube cube = BuildCube({{{"Mon", "Fenian St"}, 3}});
  std::vector<DimPredicate> predicates = {DimPredicate::Set({}),
                                          DimPredicate::All()};
  auto sub = MaterializeSubCube(cube, predicates);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub->empty());
}

TEST(MaterializeSubCubeTest, ArityChecked) {
  DwarfCube cube = BuildCube({{{"Mon", "Fenian St"}, 3}});
  EXPECT_TRUE(MaterializeSubCube(cube, {DimPredicate::All()})
                  .status()
                  .IsInvalidArgument());
}

// Property: a long random stream split into K batches applied through the
// updater equals the cube built from the full stream in one shot.
class UpdaterPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UpdaterPropertyTest, BatchedEqualsOneShot) {
  Rng rng(GetParam());
  std::vector<std::pair<std::vector<std::string>, Measure>> stream;
  for (int i = 0; i < 300; ++i) {
    stream.push_back(
        {{"d" + std::to_string(rng.NextBelow(5)),
          "s" + std::to_string(rng.NextBelow(12))},
         rng.NextInRange(-10, 50)});
  }
  DwarfCube reference = BuildCube(stream);

  // Apply in 4 batches.
  DwarfBuilder builder(BikesSchema());
  DwarfCube cube = std::move(builder).Build().ValueOrDie();
  size_t batch_size = stream.size() / 4 + 1;
  for (size_t begin = 0; begin < stream.size(); begin += batch_size) {
    size_t end = std::min(stream.size(), begin + batch_size);
    std::vector<std::pair<std::vector<std::string>, Measure>> batch(
        stream.begin() + begin, stream.begin() + end);
    auto updated = MergeTuples(std::move(cube), batch);
    ASSERT_TRUE(updated.ok()) << updated.status();
    cube = std::move(updated).ValueOrDie();
  }
  EXPECT_TRUE(cube.StructurallyEquals(reference));
  // The chained incremental merges must also agree with the one-shot build
  // on every reachability-derived statistic.
  EXPECT_EQ(cube.stats().tuple_count, reference.stats().tuple_count);
  EXPECT_EQ(cube.stats().source_tuple_count,
            reference.stats().source_tuple_count);
  EXPECT_EQ(cube.stats().node_count, reference.stats().node_count);
  EXPECT_EQ(cube.stats().cell_count, reference.stats().cell_count);
  EXPECT_EQ(cube.stats().coalesced_all_count,
            reference.stats().coalesced_all_count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdaterPropertyTest,
                         ::testing::Values(7, 77, 777));

}  // namespace
}  // namespace scdwarf::dwarf
