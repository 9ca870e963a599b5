/// \file update.h
/// \brief Cube updates — the paper's stated next step ("Our current focus is
/// on cube updates", §7). New feed batches are merged into an existing cube
/// by re-aggregating its base tuples together with the new ones: correct for
/// every distributive aggregate the library supports, and bounded by the
/// size of the *compressed* cube rather than the original stream.

#ifndef SCDWARF_DWARF_UPDATE_H_
#define SCDWARF_DWARF_UPDATE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "dwarf/builder.h"
#include "dwarf/query.h"

namespace scdwarf::dwarf {

/// \brief The cube's base relation: one row per distinct dimension
/// combination with its aggregated measure (equivalent to a group-by over
/// every dimension). COUNT cubes return counts as measures.
Result<std::vector<SliceRow>> ExtractBaseTuples(const DwarfCube& cube);

/// \brief Volume and wall-clock profile of one CubeUpdater publish —
/// either a full Rebuild() or an incremental Apply().
struct UpdateProfile {
  uint64_t base_tuples = 0;  ///< distinct tuples in the pre-update cube
  uint64_t new_tuples = 0;   ///< tuples staged through AddTuple
  uint64_t changed_prefixes = 0;  ///< |ChangedKeyPrefixes()| of the batch
  double rebuild_ms = 0;     ///< end-to-end publish wall time (either path)
  bool incremental = false;  ///< true when Apply() took the delta-merge path
  double delta_build_ms = 0;  ///< Apply(): building the delta DWARF
  double merge_ms = 0;        ///< Apply(): merging delta into the base cube
  uint64_t nodes_reused = 0;  ///< Apply(): base subtrees adopted unrebuilt
};

/// \brief Applies batches of new tuples to an existing cube.
///
/// \code
///   CubeUpdater updater(std::move(cube));
///   updater.AddTuple({"Ireland", "Dublin", "Fenian St"}, 4);
///   SCD_ASSIGN_OR_RETURN(cube, std::move(updater).Rebuild());
/// \endcode
///
/// Rebuild() re-runs DWARF construction over the cube's base tuples plus the
/// added ones. Because already-aggregated measures re-enter construction,
/// the updater feeds them through a raw path that bypasses the COUNT
/// leaf-value mapping (a re-counted count would collapse to 1).
class CubeUpdater {
 public:
  /// Takes over \p cube. Fails only later, at Rebuild(), never here.
  explicit CubeUpdater(DwarfCube cube) : cube_(std::move(cube)) {}

  /// Stages one new source tuple (measure semantics identical to
  /// DwarfBuilder::AddTuple, including COUNT counting tuples).
  Status AddTuple(const std::vector<std::string>& keys, Measure measure);

  /// Number of staged tuples.
  size_t num_pending() const { return pending_.size(); }

  /// \brief The changed dimension-key prefixes of the staged batch: the
  /// deduped, sorted decoded key paths of every pending tuple. Publishing
  /// this set alongside an epoch lets the serving layer revalidate cached
  /// results whose queries provably miss every changed path instead of
  /// invalidating its cache wholesale.
  std::vector<std::vector<std::string>> ChangedKeyPrefixes() const;

  /// Builds the updated cube by re-running DWARF construction over the base
  /// tuples plus the staged ones — O(history) per publish, but the reference
  /// path every other strategy must match. Consumes the updater. When
  /// \p profile is non-null it receives the rebuild profile on success.
  Result<DwarfCube> Rebuild(UpdateProfile* profile = nullptr) &&;

  /// \brief Incremental publish: builds a small *delta* DWARF from just the
  /// staged tuples (dictionaries seeded from the live cube, so ids stay
  /// stable) and merges it into the live structure, re-aggregating only the
  /// subtrees whose prefixes actually changed and sharing every untouched
  /// subtree with the prior epoch (see dwarf/merge.h). Cost is
  /// O(delta x depth) instead of O(history); the result is equal to
  /// Rebuild() — same query answers, and byte-identical stored segments.
  /// Consumes the updater.
  Result<DwarfCube> Apply(UpdateProfile* profile = nullptr) &&;

 private:
  DwarfCube cube_;
  std::vector<std::pair<std::vector<std::string>, Measure>> pending_;
};

/// \brief Materializes the sub-cube of tuples matching \p predicates (same
/// schema, re-aggregated). This is the "DWARF cube constructed from querying
/// a DWARF schema" that Table 1-A's is_cube flag marks when stored.
Result<DwarfCube> MaterializeSubCube(const DwarfCube& cube,
                                     const std::vector<DimPredicate>& predicates);

/// \brief One-shot convenience: merge \p new_tuples into \p cube.
Result<DwarfCube> MergeTuples(
    DwarfCube cube,
    const std::vector<std::pair<std::vector<std::string>, Measure>>&
        new_tuples);

}  // namespace scdwarf::dwarf

#endif  // SCDWARF_DWARF_UPDATE_H_
