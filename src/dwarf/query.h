/// \file query.h
/// \brief Query primitives over a DwarfCube: point queries with ALL
/// wildcards, range/set aggregate queries and slice extraction. These are the
/// "efficient query primitives" the paper's conclusion targets for cube
/// updates and retrieval.

#ifndef SCDWARF_DWARF_QUERY_H_
#define SCDWARF_DWARF_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "dwarf/dwarf_cube.h"

namespace scdwarf::dwarf {

/// \brief Per-dimension predicate of an aggregate query.
///
/// A kRange predicate comes in two bound spaces: plain Range() bounds are
/// encoded dictionary ids (first-seen feed order), RankRange() bounds are
/// value-order ranks over an *ordered* dimension's rank view (lexicographic
/// value order — "2013-07-01".."2013-07-31" selects July). Rank ranges need
/// the cube's dictionary to evaluate, so Matches() covers id-space
/// predicates only; use MatchesInCube() when the predicate may be by_rank.
struct DimPredicate {
  enum class Kind { kAll, kPoint, kRange, kSet };

  Kind kind = Kind::kAll;
  DimKey point = 0;          ///< kPoint
  DimKey lo = 0, hi = 0;     ///< kRange, inclusive bounds (ids or ranks)
  bool by_rank = false;      ///< kRange: bounds are value-order ranks
  std::vector<DimKey> keys;  ///< kSet

  static DimPredicate All() { return {}; }
  static DimPredicate Point(DimKey key) {
    DimPredicate p;
    p.kind = Kind::kPoint;
    p.point = key;
    return p;
  }
  static DimPredicate Range(DimKey lo, DimKey hi) {
    DimPredicate p;
    p.kind = Kind::kRange;
    p.lo = lo;
    p.hi = hi;
    return p;
  }
  /// Range over value-order ranks of an ordered dimension (inclusive).
  static DimPredicate RankRange(DimKey lo, DimKey hi) {
    DimPredicate p;
    p.kind = Kind::kRange;
    p.lo = lo;
    p.hi = hi;
    p.by_rank = true;
    return p;
  }
  static DimPredicate Set(std::vector<DimKey> keys) {
    DimPredicate p;
    p.kind = Kind::kSet;
    p.keys = std::move(keys);
    return p;
  }

  /// True when \p key satisfies this predicate. Valid for id-space
  /// predicates only (by_rank ranges need a dictionary; see MatchesInCube).
  bool Matches(DimKey key) const;

  /// Matches() with rank resolution: a by_rank range tests the key's
  /// value-order rank in \p dict (which must carry a rank view).
  bool MatchesInCube(DimKey key, const Dictionary& dict) const;
};

/// \brief Validates \p predicates against \p cube: one predicate per
/// dimension, lo <= hi for every range (InvalidArgument otherwise — the
/// wire layer rejects lo > hi the same way, so both entry points agree),
/// and by_rank ranges only on dimensions the schema marks ordered.
Status ValidatePredicates(const DwarfCube& cube,
                          const std::vector<DimPredicate>& predicates);

/// \brief Point query: one key or ALL (`std::nullopt`) per dimension.
/// Navigates a single root-to-leaf path (ALL follows the precomputed
/// aggregate pointer — the DWARF fast path). Returns NotFound when the
/// requested coordinate has no data.
Result<Measure> PointQuery(const DwarfCube& cube,
                           const std::vector<std::optional<DimKey>>& keys);

/// \brief Point query on decoded string keys ("Ireland", std::nullopt, ...).
Result<Measure> PointQueryByName(
    const DwarfCube& cube,
    const std::vector<std::optional<std::string>>& keys);

/// \brief General aggregate query: applies one predicate per dimension and
/// aggregates all matching leaf measures with the cube's aggregate function.
/// ALL predicates use the precomputed ALL sub-dwarfs; other predicates fan
/// out over matching cells — id ranges binary-search the sorted cell
/// window, rank ranges test each cell's value-order rank. Returns NotFound when nothing matches; InvalidArgument for a range with
/// lo > hi or a rank range on an unordered dimension.
Result<Measure> AggregateQuery(const DwarfCube& cube,
                               const std::vector<DimPredicate>& predicates);

/// \brief One row of a slice result: decoded keys of the non-fixed
/// dimensions plus the aggregated measure.
struct SliceRow {
  std::vector<std::string> keys;
  Measure measure = 0;
};

/// \brief Materializes the sub-cube where dimension \p fixed_dim equals
/// \p key, grouped by every remaining dimension (a classic OLAP slice).
/// Slice and RollUp drain a RowCursor (cursor.h) in one page.
Result<std::vector<SliceRow>> Slice(const DwarfCube& cube, size_t fixed_dim,
                                    DimKey key);

/// \brief Inclusive value-order rank window restricting one grouped
/// dimension of a roll-up. A window with lo > hi matches nothing (the
/// wire layer produces it when a value range falls between dictionary
/// entries) — the roll-up then has zero rows.
struct RankWindow {
  DimKey lo = 0;
  DimKey hi = 0;
};

/// One optional window per cube dimension; windows are only meaningful on
/// grouped (enumerated) dims, and require the dim to be schema-ordered.
using RankFilters = std::vector<std::optional<RankWindow>>;

/// \brief Group-by over a subset of dimensions (roll-up of the rest):
/// returns one row per distinct combination of \p group_dims values, with
/// all other dimensions rolled up through their ALL cells. Row keys are in
/// *requested* \p group_dims order (not cube dimension order); duplicate
/// group dims are InvalidArgument.
///
/// \p filters, when non-null, restricts grouped ordered dims to rank
/// windows, tested per cell at the window's level (an empty window yields
/// no rows without a walk). Filters on non-grouped or unordered dims are
/// InvalidArgument.
Result<std::vector<SliceRow>> RollUp(const DwarfCube& cube,
                                     const std::vector<size_t>& group_dims,
                                     const RankFilters* filters = nullptr);

}  // namespace scdwarf::dwarf

#endif  // SCDWARF_DWARF_QUERY_H_
