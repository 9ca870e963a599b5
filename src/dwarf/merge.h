/// \file merge.h
/// \brief Node-level merge of a small *delta* DWARF into a live cube — the
/// incremental-publish primitive behind CubeUpdater::Apply().
///
/// The delta cube must be built with dictionaries seeded from the base cube
/// (DwarfBuilder::ImportDictionaries), so both cubes index dimension values
/// in one id space and cell orders line up. The merge walks the two cubes in
/// lockstep: key prefixes present only in the base adopt the base subtree id
/// unchanged (structural sharing across epochs — this is where the
/// O(delta x depth) bound comes from), prefixes only in the delta are copied
/// in, and common prefixes recurse, re-aggregating measures with the cube's
/// aggregate. The merged arena shares every chunk of the base cube and
/// appends one new chunk holding only the rebuilt nodes
/// (DwarfCube::ShareArenaAndAppend).
///
/// Aggregate sub-dwarfs merge pairwise too: the ALL sub-dwarf of a union is
/// the merge of the two ALL sub-dwarfs, because every source tuple
/// contributes exactly once on each side and the aggregates are commutative
/// and associative. Merge results are memoized per (base id, delta id) pair,
/// which reproduces the from-scratch builder's suffix-coalescing sharing:
/// wherever the from-scratch build would share one aggregate node between
/// two parents, both parents reach the same (base, delta) pair here.

#ifndef SCDWARF_DWARF_MERGE_H_
#define SCDWARF_DWARF_MERGE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "dwarf/dwarf_cube.h"

namespace scdwarf::dwarf {

/// \brief One-shot merger of a delta cube into a base cube. See file comment.
class CubeMerger {
 public:
  /// Both cubes must share the schema, and \p delta's dictionaries must be
  /// extensions of \p base's (guaranteed when the delta builder imported the
  /// base dictionaries before adding tuples).
  CubeMerger(const DwarfCube& base, const DwarfCube& delta)
      : base_(base), delta_(delta) {}

  /// Builds the merged cube. \p tuple_count / \p source_tuple_count are the
  /// merged cube's logical tuple stats (the merger cannot derive them
  /// structurally — dead base slots hide how many distinct paths are new).
  /// The structural stats are left to the merged cube's first stats() call,
  /// so the merge stays O(delta x depth).
  /// When \p nodes_reused is non-null it receives the number of base
  /// subtrees adopted wholesale instead of rebuilt.
  Result<DwarfCube> Merge(uint64_t tuple_count, uint64_t source_tuple_count,
                          uint64_t* nodes_reused);

 private:
  NodeId MergeNodes(NodeId base_id, NodeId delta_id);
  NodeId ImportSubtree(NodeId delta_id);
  NodeId Commit(DwarfNode node);

  const DwarfCube& base_;
  const DwarfCube& delta_;
  std::vector<DwarfNode> tail_;  ///< new nodes; ids offset by base extent
  uint64_t reused_ = 0;
  /// Memo for MergeNodes, keyed (base_id << 32) | delta_id.
  std::unordered_map<uint64_t, NodeId> merge_memo_;
  /// Memo for ImportSubtree, keyed on the delta id (preserves delta-internal
  /// sharing in the copy).
  std::unordered_map<NodeId, NodeId> import_memo_;
};

}  // namespace scdwarf::dwarf

#endif  // SCDWARF_DWARF_MERGE_H_
