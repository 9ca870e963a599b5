#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "common/rng.h"
#include "dwarf/builder.h"
#include "dwarf/cursor.h"
#include "dwarf/query.h"
#include "dwarf/update.h"

namespace scdwarf::dwarf {
namespace {

/// 3-dim bikes cube: day x city x station -> available bikes.
DwarfCube BuildBikesCube() {
  CubeSchema schema("bikes",
                    {DimensionSpec("Day"), DimensionSpec("City"),
                     DimensionSpec("Station")},
                    "available", AggFn::kSum);
  DwarfBuilder builder(schema);
  struct Row {
    const char* day;
    const char* city;
    const char* station;
    Measure bikes;
  };
  const Row rows[] = {
      {"Mon", "Dublin", "Fenian St", 3},  {"Mon", "Dublin", "Pearse St", 5},
      {"Mon", "Cork", "Patrick St", 2},   {"Tue", "Dublin", "Fenian St", 4},
      {"Tue", "Cork", "Patrick St", 1},   {"Wed", "Dublin", "Pearse St", 6},
      {"Wed", "Galway", "Eyre Sq", 8},
  };
  for (const Row& row : rows) {
    EXPECT_TRUE(builder.AddTuple({row.day, row.city, row.station}, row.bikes).ok());
  }
  auto cube = std::move(builder).Build();
  EXPECT_TRUE(cube.ok()) << cube.status();
  return std::move(cube).ValueOrDie();
}

class DwarfQueryTest : public ::testing::Test {
 protected:
  DwarfQueryTest() : cube_(BuildBikesCube()) {}

  DimKey Key(size_t dim, const std::string& value) {
    return cube_.dictionary(dim).Lookup(value).ValueOrDie();
  }

  DwarfCube cube_;
};

TEST_F(DwarfQueryTest, FullPointQuery) {
  EXPECT_EQ(*PointQueryByName(cube_, {"Mon", "Dublin", "Fenian St"}), 3);
  EXPECT_EQ(*PointQueryByName(cube_, {"Wed", "Galway", "Eyre Sq"}), 8);
}

TEST_F(DwarfQueryTest, PointQueryMissingCoordinate) {
  EXPECT_TRUE(
      PointQueryByName(cube_, {"Mon", "Galway", "Eyre Sq"}).status().IsNotFound());
  EXPECT_TRUE(PointQueryByName(cube_, {"Sun", "Dublin", "Fenian St"})
                  .status()
                  .IsNotFound());
}

TEST_F(DwarfQueryTest, PointQueryUnknownLabelIsNotFound) {
  EXPECT_TRUE(PointQueryByName(cube_, {"Mon", "Dublin", "Nowhere"})
                  .status()
                  .IsNotFound());
}

TEST_F(DwarfQueryTest, AllWildcards) {
  // Grand total.
  EXPECT_EQ(*PointQueryByName(cube_, {std::nullopt, std::nullopt, std::nullopt}),
            29);
  // Per-day totals through ALL cells.
  EXPECT_EQ(*PointQueryByName(cube_, {"Mon", std::nullopt, std::nullopt}), 10);
  EXPECT_EQ(*PointQueryByName(cube_, {"Tue", std::nullopt, std::nullopt}), 5);
  // Middle-dimension wildcard.
  EXPECT_EQ(*PointQueryByName(cube_, {"Mon", std::nullopt, "Fenian St"}), 3);
  EXPECT_EQ(*PointQueryByName(cube_, {std::nullopt, "Dublin", std::nullopt}), 18);
  EXPECT_EQ(*PointQueryByName(cube_, {std::nullopt, std::nullopt, "Patrick St"}),
            3);
}

TEST_F(DwarfQueryTest, ArityMismatchRejected) {
  EXPECT_TRUE(PointQueryByName(cube_, {"Mon", "Dublin"})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(DwarfQueryTest, EmptyCubeQueries) {
  CubeSchema schema("e", {DimensionSpec("x")}, "m");
  DwarfBuilder builder(schema);
  auto empty = std::move(builder).Build();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(PointQuery(*empty, {std::nullopt}).status().IsNotFound());
  EXPECT_TRUE(
      AggregateQuery(*empty, {DimPredicate::All()}).status().IsNotFound());
}

TEST_F(DwarfQueryTest, AggregateQueryPointEqualsPointQuery) {
  std::vector<DimPredicate> predicates = {
      DimPredicate::Point(Key(0, "Mon")), DimPredicate::Point(Key(1, "Dublin")),
      DimPredicate::All()};
  EXPECT_EQ(*AggregateQuery(cube_, predicates), 8);
}

TEST_F(DwarfQueryTest, AggregateQuerySet) {
  std::vector<DimPredicate> predicates = {
      DimPredicate::Set({Key(0, "Mon"), Key(0, "Tue")}),
      DimPredicate::All(),
      DimPredicate::All(),
  };
  EXPECT_EQ(*AggregateQuery(cube_, predicates), 15);
}

TEST_F(DwarfQueryTest, AggregateQueryRange) {
  // Ids are assigned in first-seen order: Mon=0, Tue=1, Wed=2.
  std::vector<DimPredicate> predicates = {
      DimPredicate::Range(Key(0, "Mon"), Key(0, "Tue")),
      DimPredicate::All(),
      DimPredicate::All(),
  };
  EXPECT_EQ(*AggregateQuery(cube_, predicates), 15);
}

TEST_F(DwarfQueryTest, AggregateQueryNoMatchIsNotFound) {
  std::vector<DimPredicate> predicates = {
      DimPredicate::Point(Key(0, "Mon")),
      DimPredicate::Point(Key(1, "Galway")),
      DimPredicate::All(),
  };
  EXPECT_TRUE(AggregateQuery(cube_, predicates).status().IsNotFound());
}

TEST_F(DwarfQueryTest, AggregateQueryEmptySetMatchesNothing) {
  std::vector<DimPredicate> predicates = {
      DimPredicate::Set({}), DimPredicate::All(), DimPredicate::All()};
  EXPECT_TRUE(AggregateQuery(cube_, predicates).status().IsNotFound());
}

TEST_F(DwarfQueryTest, SliceByCity) {
  auto rows = Slice(cube_, 1, Key(1, "Dublin"));
  ASSERT_TRUE(rows.ok());
  // Rows are (day, station) pairs within Dublin.
  ASSERT_EQ(rows->size(), 4u);
  Measure total = 0;
  for (const SliceRow& row : *rows) {
    ASSERT_EQ(row.keys.size(), 2u);
    total += row.measure;
  }
  EXPECT_EQ(total, 18);
}

TEST_F(DwarfQueryTest, SliceOutOfRangeDim) {
  EXPECT_TRUE(Slice(cube_, 9, 0).status().IsOutOfRange());
}

TEST_F(DwarfQueryTest, RollUpByDay) {
  auto rows = RollUp(cube_, {0});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  std::map<std::string, Measure> by_day;
  for (const SliceRow& row : *rows) by_day[row.keys[0]] = row.measure;
  EXPECT_EQ(by_day["Mon"], 10);
  EXPECT_EQ(by_day["Tue"], 5);
  EXPECT_EQ(by_day["Wed"], 14);
}

TEST_F(DwarfQueryTest, RollUpByCityUsesAllCells) {
  auto rows = RollUp(cube_, {1});
  ASSERT_TRUE(rows.ok());
  std::map<std::string, Measure> by_city;
  for (const SliceRow& row : *rows) by_city[row.keys[0]] = row.measure;
  EXPECT_EQ(by_city["Dublin"], 18);
  EXPECT_EQ(by_city["Cork"], 3);
  EXPECT_EQ(by_city["Galway"], 8);
}

TEST_F(DwarfQueryTest, RollUpTwoDims) {
  auto rows = RollUp(cube_, {0, 1});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 6u);  // distinct (day, city) pairs
  Measure total = 0;
  for (const SliceRow& row : *rows) total += row.measure;
  EXPECT_EQ(total, 29);
}

TEST_F(DwarfQueryTest, RollUpNoDimsIsGrandTotal) {
  auto rows = RollUp(cube_, {});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].measure, 29);
  EXPECT_TRUE((*rows)[0].keys.empty());
}

TEST_F(DwarfQueryTest, RollUpBadDimRejected) {
  EXPECT_TRUE(RollUp(cube_, {7}).status().IsOutOfRange());
}

// Regression: the enumerator emits row keys in ascending cube-dimension
// order, but callers name dims in request order. A {City, Day} roll-up must
// answer (city, day) rows, not (day, city).
TEST_F(DwarfQueryTest, RollUpOutOfOrderDimsKeysFollowRequestOrder) {
  auto rows = RollUp(cube_, {1, 0});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 6u);
  std::map<std::pair<std::string, std::string>, Measure> by_pair;
  for (const SliceRow& row : *rows) {
    ASSERT_EQ(row.keys.size(), 2u);
    by_pair[{row.keys[0], row.keys[1]}] = row.measure;
  }
  // keys[0] must be the City (dim 1), keys[1] the Day (dim 0).
  EXPECT_EQ((by_pair[{"Dublin", "Mon"}]), 8);
  EXPECT_EQ((by_pair[{"Cork", "Tue"}]), 1);
  EXPECT_EQ((by_pair[{"Galway", "Wed"}]), 8);
  EXPECT_EQ((by_pair.count({"Mon", "Dublin"})), 0u);

  // The same request through the ascending spelling returns the same groups
  // with the columns swapped.
  auto ascending = RollUp(cube_, {0, 1});
  ASSERT_TRUE(ascending.ok());
  ASSERT_EQ(ascending->size(), rows->size());
  for (const SliceRow& row : *ascending) {
    EXPECT_EQ((by_pair[{row.keys[1], row.keys[0]}]), row.measure);
  }
}

TEST_F(DwarfQueryTest, RollUpDuplicateDimsRejected) {
  EXPECT_TRUE(RollUp(cube_, {0, 0}).status().IsInvalidArgument());
  EXPECT_TRUE(RollUp(cube_, {1, 0, 1}).status().IsInvalidArgument());
}

// lo > hi is a caller error at every entry point (the wire layer has always
// rejected it; the direct API used to silently answer NotFound).
TEST_F(DwarfQueryTest, RangeLoGreaterThanHiRejected) {
  std::vector<DimPredicate> predicates = {
      DimPredicate::Range(2, 1), DimPredicate::All(), DimPredicate::All()};
  EXPECT_TRUE(AggregateQuery(cube_, predicates).status().IsInvalidArgument());
}

TEST_F(DwarfQueryTest, RankRangeOnUnorderedDimRejected) {
  // The bikes test cube marks no dimension ordered.
  std::vector<DimPredicate> predicates = {
      DimPredicate::RankRange(0, 1), DimPredicate::All(), DimPredicate::All()};
  EXPECT_TRUE(AggregateQuery(cube_, predicates).status().IsInvalidArgument());
}

TEST(DimPredicateTest, Matches) {
  EXPECT_TRUE(DimPredicate::All().Matches(99));
  EXPECT_TRUE(DimPredicate::Point(5).Matches(5));
  EXPECT_FALSE(DimPredicate::Point(5).Matches(6));
  EXPECT_TRUE(DimPredicate::Range(2, 4).Matches(3));
  EXPECT_TRUE(DimPredicate::Range(2, 4).Matches(2));
  EXPECT_TRUE(DimPredicate::Range(2, 4).Matches(4));
  EXPECT_FALSE(DimPredicate::Range(2, 4).Matches(5));
  EXPECT_TRUE(DimPredicate::Set({1, 3}).Matches(3));
  EXPECT_FALSE(DimPredicate::Set({1, 3}).Matches(2));
}

// Property: AggregateQuery over random predicates equals brute force.
class AggregateQueryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggregateQueryPropertyTest, MatchesBruteForce) {
  Rng rng(GetParam());
  constexpr size_t kDims = 3;
  const size_t card = 6;
  CubeSchema schema(
      "p", {DimensionSpec("x"), DimensionSpec("y"), DimensionSpec("z")}, "m");
  DwarfBuilder builder(schema);
  std::vector<std::pair<std::vector<DimKey>, Measure>> facts;
  for (int i = 0; i < 150; ++i) {
    std::vector<std::string> keys(kDims);
    std::vector<DimKey> ids(kDims);
    for (size_t d = 0; d < kDims; ++d) {
      // Pre-encode labels k0..k5 so ids match label indices.
      ids[d] = static_cast<DimKey>(rng.NextBelow(card));
      keys[d] = "k" + std::to_string(ids[d]);
    }
    Measure m = rng.NextInRange(1, 9);
    ASSERT_TRUE(builder.AddTuple(keys, m).ok());
    facts.emplace_back(ids, m);
  }
  auto cube_result = std::move(builder).Build();
  ASSERT_TRUE(cube_result.ok());
  const DwarfCube& cube = *cube_result;

  // Map label -> id per dim, since first-seen encoding need not match k index.
  auto key_id = [&](size_t dim, DimKey label_index) {
    return cube.dictionary(dim)
        .Lookup("k" + std::to_string(label_index))
        .ValueOr(static_cast<DimKey>(-1));
  };

  for (int trial = 0; trial < 60; ++trial) {
    std::vector<DimPredicate> predicates(kDims);
    // Label-space predicates for brute force.
    std::vector<DimPredicate> label_predicates(kDims);
    for (size_t d = 0; d < kDims; ++d) {
      switch (rng.NextBelow(4)) {
        case 0:
          predicates[d] = DimPredicate::All();
          label_predicates[d] = DimPredicate::All();
          break;
        case 1: {
          DimKey label = static_cast<DimKey>(rng.NextBelow(card));
          predicates[d] = DimPredicate::Point(key_id(d, label));
          label_predicates[d] = DimPredicate::Point(label);
          break;
        }
        case 2: {
          std::vector<DimKey> labels, ids;
          for (DimKey label = 0; label < card; ++label) {
            if (rng.NextBool(0.4)) {
              labels.push_back(label);
              ids.push_back(key_id(d, label));
            }
          }
          predicates[d] = DimPredicate::Set(ids);
          label_predicates[d] = DimPredicate::Set(labels);
          break;
        }
        default: {
          // Range over ids: translate to an id set for brute force.
          DimKey lo = static_cast<DimKey>(rng.NextBelow(card));
          DimKey hi = static_cast<DimKey>(lo + rng.NextBelow(card - lo));
          predicates[d] = DimPredicate::Range(lo, hi);
          label_predicates[d] = DimPredicate::Range(lo, hi);
          break;
        }
      }
    }
    // Brute force over encoded facts. Range/Set cases built above operate on
    // different domains (label vs id); normalize: evaluate brute force in id
    // space directly using `predicates` for ranges, label predicates mapped
    // to ids otherwise.
    std::optional<Measure> expected;
    for (const auto& [ids, m] : facts) {
      bool match = true;
      for (size_t d = 0; d < kDims; ++d) {
        const DimPredicate& pred = predicates[d];
        DimKey id = cube.dictionary(d)
                        .Lookup("k" + std::to_string(ids[d]))
                        .ValueOrDie();
        if (!pred.Matches(id)) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      expected = expected.has_value() ? AggCombine(AggFn::kSum, *expected, m) : m;
    }
    Result<Measure> actual = AggregateQuery(cube, predicates);
    if (expected.has_value()) {
      ASSERT_TRUE(actual.ok()) << actual.status();
      EXPECT_EQ(*actual, *expected);
    } else {
      EXPECT_TRUE(actual.status().IsNotFound());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateQueryPropertyTest,
                         ::testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------------
// Row enumeration: Slice, RollUp and RowCursor pages at every page size,
// compared row for row (order included) with a brute-force group-by over
// the input tuples, on a fresh cube and after an incremental Apply.

/// One input tuple, or one result row: decoded keys plus the measure.
using Row = std::pair<std::vector<std::string>, Measure>;

/// A slice pins `fixed_dim` to `key`. A roll-up (`fixed_dim` unset) groups
/// by `group_dims` in requested order, and `window` restricts the ordered
/// dim by value-order rank.
struct RowQuery {
  std::optional<size_t> fixed_dim;
  DimKey key = 0;
  std::vector<size_t> group_dims;
  std::optional<RankWindow> window;
};

class RowEnumerationPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr size_t kDims = 4;

  /// Random tuples. Dim `ordered_` holds ISO dates drawn in random order,
  /// so its first-seen ids are not its value-order ranks; `extra` widens
  /// every dim past the values of earlier batches.
  std::vector<Row> RandomTuples(size_t count, size_t extra) {
    std::vector<Row> tuples;
    for (size_t i = 0; i < count; ++i) {
      std::vector<std::string> keys(kDims);
      for (size_t dim = 0; dim < kDims; ++dim) {
        if (dim == ordered_) {
          uint64_t day = 1 + rng_.NextBelow(12 + extra);
          keys[dim] = day < 10 ? "2013-07-0" : "2013-07-";
          keys[dim] += std::to_string(day);
        } else {
          keys[dim] = "v";
          keys[dim] += std::to_string(rng_.NextBelow(3 + dim + extra));
        }
      }
      tuples.emplace_back(std::move(keys), rng_.NextInRange(1, 9));
    }
    return tuples;
  }

  /// Brute-force answer: the tuples that pass the slice pin or the rank
  /// window, summed per group, in enumeration order — ascending dictionary
  /// ids of the grouped dims, taken in dimension order.
  std::vector<Row> Expected(const DwarfCube& cube,
                            const std::vector<Row>& tuples,
                            const RowQuery& query) const {
    std::vector<size_t> requested = query.group_dims;
    if (query.fixed_dim.has_value()) {
      requested.clear();
      for (size_t dim = 0; dim < kDims; ++dim) {
        if (dim != *query.fixed_dim) requested.push_back(dim);
      }
    }
    std::vector<size_t> ascending = requested;
    std::sort(ascending.begin(), ascending.end());
    std::set<std::string> dates;
    for (const Row& tuple : tuples) dates.insert(tuple.first[ordered_]);

    std::map<std::vector<DimKey>, Row> groups;
    for (const Row& tuple : tuples) {
      if (query.fixed_dim.has_value()) {
        const Dictionary& dict = cube.dictionary(*query.fixed_dim);
        if (query.key >= dict.size() ||
            tuple.first[*query.fixed_dim] != dict.DecodeUnchecked(query.key)) {
          continue;
        }
      }
      if (query.window.has_value()) {
        auto rank = static_cast<DimKey>(std::distance(
            dates.begin(), dates.find(tuple.first[ordered_])));
        if (rank < query.window->lo || rank > query.window->hi) continue;
      }
      std::vector<DimKey> ids;
      for (size_t dim : ascending) {
        ids.push_back(
            cube.dictionary(dim).Lookup(tuple.first[dim]).ValueOrDie());
      }
      Row& row = groups[ids];
      if (row.first.empty()) {
        for (size_t dim : requested) row.first.push_back(tuple.first[dim]);
      }
      row.second += tuple.second;
    }
    std::vector<Row> rows;
    for (auto& [ids, row] : groups) rows.push_back(std::move(row));
    return rows;
  }

  static std::vector<Row> ToRows(const std::vector<SliceRow>& rows) {
    std::vector<Row> out;
    for (const SliceRow& row : rows) out.emplace_back(row.keys, row.measure);
    return out;
  }

  RankFilters Filters(const RowQuery& query) const {
    RankFilters filters(kDims);
    filters[ordered_] = query.window;
    return filters;
  }

  std::vector<Row> OneShot(const DwarfCube& cube, const RowQuery& query) const {
    RankFilters filters = Filters(query);
    Result<std::vector<SliceRow>> rows =
        query.fixed_dim.has_value()
            ? Slice(cube, *query.fixed_dim, query.key)
            : RollUp(cube, query.group_dims,
                     query.window.has_value() ? &filters : nullptr);
    EXPECT_TRUE(rows.ok()) << rows.status();
    return rows.ok() ? ToRows(*rows) : std::vector<Row>{};
  }

  /// Drains a fresh cursor in pages of \p page_size rows: it stops at the
  /// first short page, and a drained cursor is done and stays empty.
  std::vector<Row> Drain(const DwarfCube& cube, const RowQuery& query,
                         size_t page_size) const {
    RankFilters filters = Filters(query);
    Result<RowCursor> cursor =
        query.fixed_dim.has_value()
            ? RowCursor::OverSlice(cube, *query.fixed_dim, query.key)
            : RowCursor::OverRollUp(
                  cube, query.group_dims,
                  query.window.has_value() ? &filters : nullptr);
    EXPECT_TRUE(cursor.ok()) << cursor.status();
    if (!cursor.ok()) return {};
    std::vector<SliceRow> rows;
    for (;;) {
      size_t before = rows.size();
      size_t got = cursor->Next(page_size, &rows);
      EXPECT_EQ(got, rows.size() - before);
      if (got < page_size) break;
    }
    EXPECT_TRUE(cursor->done());
    EXPECT_EQ(cursor->Next(page_size, &rows), 0u);
    return ToRows(rows);
  }

  /// Random slices and roll-ups against \p cube, built or updated from
  /// exactly \p tuples.
  void CheckQueries(const DwarfCube& cube, const std::vector<Row>& tuples) {
    const auto num_ranks =
        static_cast<DimKey>(cube.dictionary(ordered_).size());
    std::vector<RowQuery> queries;
    for (size_t trial = 0; trial < 24; ++trial) {
      RowQuery slice;
      slice.fixed_dim = rng_.NextBelow(kDims);
      // Up to one id past the end of the dictionary, which no cell holds.
      slice.key = static_cast<DimKey>(
          rng_.NextBelow(cube.dictionary(*slice.fixed_dim).size() + 1));
      queries.push_back(slice);

      // A random permutation of a random number of dims; the first two
      // trials group by no dim and by every dim.
      RowQuery rollup;
      std::vector<size_t> dims = {0, 1, 2, 3};
      for (size_t i = dims.size(); i > 1; --i) {
        std::swap(dims[i - 1], dims[rng_.NextBelow(i)]);
      }
      size_t count = trial == 0   ? 0
                     : trial == 1 ? kDims
                                  : rng_.NextBelow(kDims + 1);
      rollup.group_dims.assign(dims.begin(), dims.begin() + count);
      bool ordered_grouped =
          std::find(rollup.group_dims.begin(), rollup.group_dims.end(),
                    ordered_) != rollup.group_dims.end();
      if (ordered_grouped && rng_.NextBool(0.6)) {
        auto lo = static_cast<DimKey>(rng_.NextBelow(num_ranks + 1));
        // One window in four is empty (lo > hi); others may run past the
        // last rank.
        auto hi = static_cast<DimKey>(
            lo > 0 && rng_.NextBool(0.25)
                ? rng_.NextBelow(lo)
                : lo + rng_.NextBelow(num_ranks - lo + 1));
        rollup.window = RankWindow{lo, hi};
      }
      queries.push_back(rollup);
    }
    for (const RowQuery& query : queries) {
      std::vector<Row> want = Expected(cube, tuples, query);
      EXPECT_EQ(OneShot(cube, query), want);
      for (size_t page_size : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                               std::numeric_limits<size_t>::max()}) {
        EXPECT_EQ(Drain(cube, query, page_size), want)
            << "page size " << page_size;
      }
    }
  }

  Rng rng_{GetParam()};
  size_t ordered_ = rng_.NextBelow(kDims);
};

TEST_P(RowEnumerationPropertyTest, MatchesBruteForceGroupBy) {
  std::vector<DimensionSpec> dims;
  for (size_t dim = 0; dim < kDims; ++dim) {
    dims.emplace_back("d" + std::to_string(dim), "", dim == ordered_);
  }
  std::vector<Row> tuples = RandomTuples(60, 0);
  DwarfBuilder builder(CubeSchema("rows", dims, "m", AggFn::kSum));
  for (const Row& tuple : tuples) {
    ASSERT_TRUE(builder.AddTuple(tuple.first, tuple.second).ok());
  }
  auto built = std::move(builder).Build();
  ASSERT_TRUE(built.ok()) << built.status();
  const Dictionary& dates = built->dictionary(ordered_);
  bool ids_in_value_order = true;
  for (DimKey id = 0; id < dates.size(); ++id) {
    ids_in_value_order = ids_in_value_order && dates.RankOf(id) == id;
  }
  EXPECT_FALSE(ids_in_value_order);
  CheckQueries(*built, tuples);

  // An incremental publish with new values in every dim: the merged cube
  // spans two arena chunks, and the walk crosses both.
  std::vector<Row> delta = RandomTuples(25, 2);
  CubeUpdater updater(std::move(built).ValueOrDie());
  for (const Row& tuple : delta) {
    ASSERT_TRUE(updater.AddTuple(tuple.first, tuple.second).ok());
  }
  auto applied = std::move(updater).Apply();
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_GT(applied->arena_chunks(), 1u);
  tuples.insert(tuples.end(), delta.begin(), delta.end());
  CheckQueries(*applied, tuples);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowEnumerationPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// A page that ends on the last row leaves the cursor open, and the next call
// returns no rows and reports done — unless the walk ended at the root, as
// it does on a one-dimension cube. A cursor session's "done" flag is this.
TEST(RowCursorTest, DoneComesWithTheWalksEndNotItsLastRow) {
  DwarfCube cube = BuildBikesCube();
  for (const std::vector<size_t>& dims : {std::vector<size_t>{},
                                          std::vector<size_t>{0}}) {
    Result<RowCursor> cursor = RowCursor::OverRollUp(cube, dims);
    ASSERT_TRUE(cursor.ok());
    std::vector<SliceRow> rows;
    size_t count = dims.empty() ? 1 : 3;
    EXPECT_EQ(cursor->Next(count, &rows), count);
    EXPECT_FALSE(cursor->done());
    EXPECT_EQ(cursor->Next(count, &rows), 0u);
    EXPECT_TRUE(cursor->done());
  }

  DwarfBuilder builder(CubeSchema("one", {DimensionSpec("x")}, "m"));
  ASSERT_TRUE(builder.AddTuple({"a"}, 4).ok());
  auto one_dim = std::move(builder).Build();
  ASSERT_TRUE(one_dim.ok());
  for (Result<RowCursor> cursor : {RowCursor::OverRollUp(*one_dim, {}),
                                   RowCursor::OverSlice(*one_dim, 0, 0)}) {
    ASSERT_TRUE(cursor.ok());
    std::vector<SliceRow> rows;
    EXPECT_EQ(cursor->Next(1, &rows), 1u);
    EXPECT_TRUE(cursor->done());
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].measure, 4);
  }
}

// ---------------------------------------------------------------------------
// Ordered dimensions: value-order rank ranges and roll-up rank filters —
// differentially checked against a naive tuple evaluator across
// incremental publishes.

using Fact = std::pair<std::vector<std::string>, Measure>;

/// Station (unordered) x Date (ordered). The ordered dim sits BELOW the
/// root level, so a date window filters inside every station subtree.
/// Dates are fed OUT of chronological order, so dictionary ids and
/// value-order ranks genuinely differ.
DwarfCube BuildOrderedCube(const std::vector<Fact>& facts) {
  CubeSchema schema("od",
                    {DimensionSpec("Station"),
                     DimensionSpec("Date", "", /*ordered_in=*/true)},
                    "m", AggFn::kSum);
  DwarfBuilder builder(schema);
  for (const Fact& fact : facts) {
    EXPECT_TRUE(builder.AddTuple(fact.first, fact.second).ok());
  }
  auto cube = std::move(builder).Build();
  EXPECT_TRUE(cube.ok()) << cube.status();
  return std::move(cube).ValueOrDie();
}

Measure NaiveDateRangeSum(const std::vector<Fact>& facts,
                          const std::string& lo, const std::string& hi,
                          bool* any) {
  Measure sum = 0;
  *any = false;
  for (const Fact& fact : facts) {
    const std::string& date = fact.first[1];
    if (date < lo || date > hi) continue;
    sum += fact.second;
    *any = true;
  }
  return sum;
}

/// Resolves a value range to a RankRange predicate over the Date dim,
/// mirroring the wire layer's LowerBoundRank/UpperBoundRank resolution.
std::optional<DimPredicate> ResolveDateRange(const DwarfCube& cube,
                                             const std::string& lo,
                                             const std::string& hi) {
  const Dictionary& dict = cube.dictionary(1);
  DimKey lo_rank = dict.LowerBoundRank(lo);
  DimKey hi_excl = dict.UpperBoundRank(hi);
  if (lo_rank >= hi_excl) return std::nullopt;  // covers no stored value
  return DimPredicate::RankRange(lo_rank, hi_excl - 1);
}

TEST(OrderedDimTest, RankViewFollowsValueOrderNotIdOrder) {
  DwarfCube cube = BuildOrderedCube({{{"S1", "2013-07-03"}, 1},
                                     {{"S2", "2013-07-01"}, 2},
                                     {{"S1", "2013-07-05"}, 3}});
  const Dictionary& dict = cube.dictionary(1);
  ASSERT_TRUE(dict.has_rank_view());
  // Ids are first-seen order (07-03=0, 07-01=1, 07-05=2); ranks are value
  // order.
  EXPECT_EQ(dict.RankOf(dict.Lookup("2013-07-01").ValueOrDie()), 0u);
  EXPECT_EQ(dict.RankOf(dict.Lookup("2013-07-03").ValueOrDie()), 1u);
  EXPECT_EQ(dict.RankOf(dict.Lookup("2013-07-05").ValueOrDie()), 2u);
  EXPECT_EQ(dict.IdAtRank(0), dict.Lookup("2013-07-01").ValueOrDie());
  // The unordered dim gets no rank view.
  EXPECT_FALSE(cube.dictionary(0).has_rank_view());
}

TEST(OrderedDimTest, RankRangeMatchesNaiveAcrossPublishes) {
  std::vector<Fact> facts = {
      {{"S1", "2013-07-10"}, 4}, {{"S2", "2013-07-02"}, 7},
      {{"S1", "2013-07-06"}, 1}, {{"S1", "2013-07-02"}, 3},
      {{"S3", "2013-07-14"}, 9},
  };
  DwarfCube cube = BuildOrderedCube(facts);

  // Two incremental publishes, each interleaving new dates between existing
  // ranks (and extending both ends).
  const std::vector<std::vector<Fact>> publishes = {
      {{{"S2", "2013-07-04"}, 5}, {{"S1", "2013-07-01"}, 2}},
      {{{"S3", "2013-07-08"}, 6}, {{"S1", "2013-07-20"}, 8},
       {{"S2", "2013-07-06"}, 1}},
  };
  const std::vector<std::pair<std::string, std::string>> ranges = {
      {"2013-07-01", "2013-07-31"},  // everything
      {"2013-07-02", "2013-07-06"},  // interior window
      {"2013-07-03", "2013-07-05"},  // hits only late-published dates
      {"2013-07-15", "2013-07-19"},  // gap: covers no stored date
      {"2013-07-14", "2013-07-14"},  // single day, one station's subtree
  };

  for (size_t epoch = 0;; ++epoch) {
    // Both the ALL fast path and an explicit fan-out over every station id.
    std::vector<DimKey> all_stations;
    for (DimKey id = 0; id < cube.dictionary(0).size(); ++id) {
      all_stations.push_back(id);
    }
    for (const auto& [lo, hi] : ranges) {
      bool any = false;
      Measure expected = NaiveDateRangeSum(facts, lo, hi, &any);
      std::optional<DimPredicate> range = ResolveDateRange(cube, lo, hi);
      if (!range.has_value()) {
        EXPECT_FALSE(any) << lo << ".." << hi;
        continue;
      }
      for (const DimPredicate& station :
           {DimPredicate::All(), DimPredicate::Set(all_stations)}) {
        Result<Measure> actual = AggregateQuery(cube, {station, *range});
        if (any) {
          ASSERT_TRUE(actual.ok()) << actual.status();
          EXPECT_EQ(*actual, expected)
              << lo << ".." << hi << " epoch " << epoch;
        } else {
          EXPECT_TRUE(actual.status().IsNotFound());
        }
      }
    }
    if (epoch == publishes.size()) break;
    // Publish the next delta through the incremental merge path; ids of
    // existing values must survive, and the rank view must absorb the new
    // interleaved dates.
    std::vector<DimKey> ids_before;
    for (const Fact& fact : facts) {
      ids_before.push_back(
          cube.dictionary(1).Lookup(fact.first[1]).ValueOrDie());
    }
    auto merged = MergeTuples(std::move(cube), publishes[epoch]);
    ASSERT_TRUE(merged.ok()) << merged.status();
    cube = std::move(merged).ValueOrDie();
    for (size_t i = 0; i < facts.size(); ++i) {
      EXPECT_EQ(cube.dictionary(1).Lookup(facts[i].first[1]).ValueOrDie(),
                ids_before[i]);
    }
    facts.insert(facts.end(), publishes[epoch].begin(),
                 publishes[epoch].end());
  }
}

TEST(OrderedDimTest, RollUpRankFiltersMatchManualFilter) {
  std::vector<Fact> facts = {
      {{"S1", "2013-07-10"}, 4}, {{"S2", "2013-07-02"}, 7},
      {{"S1", "2013-07-06"}, 1}, {{"S1", "2013-07-02"}, 3},
      {{"S3", "2013-07-14"}, 9},
  };
  DwarfCube cube = BuildOrderedCube(facts);
  const Dictionary& dict = cube.dictionary(1);

  RankFilters filters(cube.num_dimensions());
  filters[1] = RankWindow{dict.LowerBoundRank("2013-07-02"),
                          static_cast<DimKey>(
                              dict.UpperBoundRank("2013-07-10") - 1)};
  auto rows = RollUp(cube, {0, 1}, &filters);
  ASSERT_TRUE(rows.ok()) << rows.status();
  std::map<std::pair<std::string, std::string>, Measure> by_pair;
  for (const SliceRow& row : *rows) {
    EXPECT_GE(row.keys[1], "2013-07-02");
    EXPECT_LE(row.keys[1], "2013-07-10");
    by_pair[{row.keys[0], row.keys[1]}] = row.measure;
  }
  EXPECT_EQ(by_pair.size(), 4u);  // S3's 07-14 row filtered out
  EXPECT_EQ((by_pair[{"S1", "2013-07-02"}]), 3);
  EXPECT_EQ((by_pair[{"S1", "2013-07-10"}]), 4);

  // An empty window (lo > hi) matches nothing: zero rows, not an error.
  filters[1] = RankWindow{1, 0};
  auto empty = RollUp(cube, {0, 1}, &filters);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  // A filter on a non-grouped dim is a caller error.
  filters[1] = RankWindow{0, 1};
  EXPECT_TRUE(RollUp(cube, {0}, &filters).status().IsInvalidArgument());
  // As is a filter on an unordered dim.
  RankFilters station_filter(cube.num_dimensions());
  station_filter[0] = RankWindow{0, 1};
  EXPECT_TRUE(
      RollUp(cube, {0, 1}, &station_filter).status().IsInvalidArgument());
}

TEST(OrderedDimTest, MaterializeSubCubeHonorsRankRanges) {
  DwarfCube cube = BuildOrderedCube({{{"S1", "2013-07-03"}, 1},
                                     {{"S2", "2013-07-01"}, 2},
                                     {{"S1", "2013-07-05"}, 3}});
  std::optional<DimPredicate> range =
      ResolveDateRange(cube, "2013-07-01", "2013-07-03");
  ASSERT_TRUE(range.has_value());
  auto sub = MaterializeSubCube(cube, {DimPredicate::All(), *range});
  ASSERT_TRUE(sub.ok()) << sub.status();
  EXPECT_EQ(sub->stats().tuple_count, 2u);
}

}  // namespace
}  // namespace scdwarf::dwarf
