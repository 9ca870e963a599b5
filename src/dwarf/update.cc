#include "dwarf/update.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "dwarf/merge.h"

namespace scdwarf::dwarf {

namespace {

/// True when the cube already holds a tuple at exactly \p keys (decoded).
bool CubeContainsPath(const DwarfCube& cube,
                      const std::vector<std::string>& keys) {
  if (cube.empty()) return false;
  NodeId id = cube.root();
  for (size_t dim = 0; dim < keys.size(); ++dim) {
    auto key = cube.dictionary(dim).Lookup(keys[dim]);
    if (!key.ok()) return false;
    const NodeView node = cube.node(id);
    const DwarfCell* cell = node.FindCell(*key);
    if (cell == nullptr) return false;
    if (!cube.IsLeafLevel(node.level)) id = cell->child;
  }
  return true;
}

/// A builder over \p cube's schema, seeded with the cube's dictionaries so
/// every existing value keeps its id (new values append past them). Both
/// update paths build through it: one id space lets the merge compare keys
/// directly, and stable ids keep cell order — and therefore slice/rollup row
/// order — stable for untouched subtrees, which the serving layer's
/// delta-epoch cache revalidation relies on.
Result<DwarfBuilder> SeededBuilder(const DwarfCube& cube) {
  DwarfBuilder builder(cube.schema());
  SCD_RETURN_IF_ERROR(builder.ImportDictionaries(cube.dictionaries()));
  return builder;
}

}  // namespace

Result<std::vector<SliceRow>> ExtractBaseTuples(const DwarfCube& cube) {
  // A group-by over every dimension enumerates exactly the distinct leaf
  // coordinates with their aggregated measures.
  std::vector<size_t> all_dims(cube.num_dimensions());
  for (size_t dim = 0; dim < all_dims.size(); ++dim) all_dims[dim] = dim;
  return RollUp(cube, all_dims);
}

Status CubeUpdater::AddTuple(const std::vector<std::string>& keys,
                             Measure measure) {
  if (keys.size() != cube_.num_dimensions()) {
    return Status::InvalidArgument(
        "update tuple has " + std::to_string(keys.size()) +
        " keys, cube has " + std::to_string(cube_.num_dimensions()) +
        " dimensions");
  }
  pending_.emplace_back(keys, measure);
  return Status::OK();
}

std::vector<std::vector<std::string>> CubeUpdater::ChangedKeyPrefixes() const {
  std::vector<std::vector<std::string>> changed;
  changed.reserve(pending_.size());
  for (const auto& [keys, measure] : pending_) changed.push_back(keys);
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  return changed;
}

Result<DwarfCube> CubeUpdater::Rebuild(UpdateProfile* profile) && {
  static metrics::Counter* const rebuilds_total =
      metrics::GlobalRegistry().GetCounter(
          "dwarf_update_rebuilds_total", {},
          "full from-scratch cube update publishes");
  rebuilds_total->Increment();
  trace::ScopedSpan span("dwarf.rebuild");
  Stopwatch watch;
  SCD_ASSIGN_OR_RETURN(std::vector<SliceRow> base, ExtractBaseTuples(cube_));
  SCD_ASSIGN_OR_RETURN(DwarfBuilder builder, SeededBuilder(cube_));
  for (const SliceRow& row : base) {
    SCD_RETURN_IF_ERROR(builder.AddAggregatedTuple(row.keys, row.measure));
  }
  for (const auto& [keys, measure] : pending_) {
    SCD_RETURN_IF_ERROR(builder.AddTuple(keys, measure));
  }
  UpdateProfile local;
  local.base_tuples = base.size();
  local.new_tuples = pending_.size();
  local.changed_prefixes = ChangedKeyPrefixes().size();
  SCD_ASSIGN_OR_RETURN(DwarfCube updated, std::move(builder).Build());
  // The builder counts one source tuple per re-fed distinct path; the cube's
  // history counts every tuple it was fed, as Apply carries it.
  updated.stats_.source_tuple_count =
      cube_.source_tuple_count() + pending_.size();
  local.rebuild_ms = watch.ElapsedMillis();
  if (profile != nullptr) *profile = local;
  return updated;
}

Result<DwarfCube> CubeUpdater::Apply(UpdateProfile* profile) && {
  static metrics::Counter* const applies_total =
      metrics::GlobalRegistry().GetCounter(
          "dwarf_update_applies_total", {},
          "incremental delta-merge cube update publishes");
  static metrics::Counter* const reused_total =
      metrics::GlobalRegistry().GetCounter(
          "dwarf_merge_nodes_reused_total", {},
          "prior-epoch subtrees adopted unrebuilt by delta merges");
  static FixedBucketHistogram* const delta_build_us =
      metrics::GlobalRegistry().GetHistogram(
          "dwarf_delta_build_us", {},
          "delta DWARF construction time per incremental publish (us)");
  static FixedBucketHistogram* const merge_us =
      metrics::GlobalRegistry().GetHistogram(
          "dwarf_merge_us", {},
          "delta-into-base merge time per incremental publish (us)");

  applies_total->Increment();
  Stopwatch watch;
  UpdateProfile local;
  local.incremental = true;
  local.base_tuples = cube_.tuple_count();
  local.new_tuples = pending_.size();
  std::vector<std::vector<std::string>> changed = ChangedKeyPrefixes();
  local.changed_prefixes = changed.size();

  // Stage the batch into a delta cube over the live cube's id space.
  Stopwatch phase_watch;
  DwarfCube delta;
  {
    trace::ScopedSpan span("dwarf.delta_build");
    SCD_ASSIGN_OR_RETURN(DwarfBuilder builder, SeededBuilder(cube_));
    for (const auto& [keys, measure] : pending_) {
      SCD_RETURN_IF_ERROR(builder.AddTuple(keys, measure));
    }
    SCD_ASSIGN_OR_RETURN(delta, std::move(builder).Build());
  }
  local.delta_build_ms = phase_watch.ElapsedMillis();
  delta_build_us->Record(local.delta_build_ms * 1000.0);

  // The merged tuple count is the base count plus the changed paths the base
  // cube does not already hold — probed directly, O(delta x depth).
  uint64_t tuple_count = cube_.tuple_count();
  for (const auto& path : changed) {
    if (!CubeContainsPath(cube_, path)) ++tuple_count;
  }
  uint64_t source_tuple_count = cube_.source_tuple_count() + pending_.size();

  phase_watch.Restart();
  DwarfCube merged;
  {
    trace::ScopedSpan span("dwarf.merge");
    CubeMerger merger(cube_, delta);
    SCD_ASSIGN_OR_RETURN(
        merged, merger.Merge(tuple_count, source_tuple_count,
                             &local.nodes_reused));
  }
  local.merge_ms = phase_watch.ElapsedMillis();
  merge_us->Record(local.merge_ms * 1000.0);
  reused_total->Increment(local.nodes_reused);

  local.rebuild_ms = watch.ElapsedMillis();
  if (profile != nullptr) *profile = local;
  return merged;
}

Result<DwarfCube> MaterializeSubCube(
    const DwarfCube& cube, const std::vector<DimPredicate>& predicates) {
  if (predicates.size() != cube.num_dimensions()) {
    return Status::InvalidArgument("sub-cube predicate arity mismatch");
  }
  SCD_RETURN_IF_ERROR(ValidatePredicates(cube, predicates));
  SCD_ASSIGN_OR_RETURN(std::vector<SliceRow> base, ExtractBaseTuples(cube));
  DwarfBuilder builder(cube.schema());
  for (const SliceRow& row : base) {
    bool match = true;
    for (size_t dim = 0; dim < predicates.size(); ++dim) {
      // Base tuples carry decoded keys; translate through the dictionary.
      // MatchesInCube resolves by_rank ranges against the rank view.
      auto key = cube.dictionary(dim).Lookup(row.keys[dim]);
      if (!key.ok() || !predicates[dim].MatchesInCube(*key, cube.dictionary(dim))) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    SCD_RETURN_IF_ERROR(builder.AddAggregatedTuple(row.keys, row.measure));
  }
  return std::move(builder).Build();
}

Result<DwarfCube> MergeTuples(
    DwarfCube cube,
    const std::vector<std::pair<std::vector<std::string>, Measure>>&
        new_tuples) {
  CubeUpdater updater(std::move(cube));
  for (const auto& [keys, measure] : new_tuples) {
    SCD_RETURN_IF_ERROR(updater.AddTuple(keys, measure));
  }
  // The incremental path is the production default; its equality with
  // Rebuild() is covered by the update and fuzz test suites.
  return std::move(updater).Apply();
}

}  // namespace scdwarf::dwarf
