/// \file traversal.h
/// \brief Full-cube traversal with a visited lookup table.
///
/// A DWARF has multiple inheritance: coalesced sub-dwarfs are reachable
/// through several parent cells. Section 4 of the paper therefore guards the
/// store transformation with a lookup table "which records each Node and Cell
/// visited by assigning them a unique ID". TraverseCube implements exactly
/// that: every reachable node is delivered to the visitor exactly once, in
/// either the paper's top-down order or true breadth-first order.

#ifndef SCDWARF_DWARF_TRAVERSAL_H_
#define SCDWARF_DWARF_TRAVERSAL_H_

#include <functional>
#include <span>
#include <vector>

#include "common/result.h"
#include "dwarf/dwarf_cube.h"

namespace scdwarf::dwarf {

enum class TraversalOrder {
  /// Root, then each cell's sub-dwarf fully before the next cell — the order
  /// §4 describes ("Ireland and all of its descendants, then France ...").
  kDepthFirst,
  /// Level-by-level.
  kBreadthFirst,
};

/// \brief Callbacks invoked during traversal. Any non-OK return aborts the
/// walk and is propagated.
struct CubeVisitor {
  /// Called once per reachable node, before its cells.
  std::function<Status(NodeId id, const NodeView& node)> on_node;

  /// Called once per regular cell of each visited node. \p leaf is true on
  /// the bottom level where the cell carries a measure.
  std::function<Status(NodeId parent_id, const DwarfCell& cell, bool leaf)>
      on_cell;

  /// Called once per node for its ALL cell. For interior nodes
  /// \p all_child is the aggregate sub-dwarf; for leaves \p all_measure
  /// carries the aggregate.
  std::function<Status(NodeId parent_id, const NodeView& node, bool leaf)>
      on_all_cell;
};

/// \brief Walks every node reachable from the root exactly once.
Status TraverseCube(const DwarfCube& cube, TraversalOrder order,
                    const CubeVisitor& visitor);

/// \brief Returns the ids of all reachable nodes in traversal order.
std::vector<NodeId> CollectReachableNodes(const DwarfCube& cube,
                                          TraversalOrder order);

/// \brief Every node's parents, the ids of the nodes holding a cell (or ALL
/// pointer) that references it — the DWARF_Node.parentIds field of Table
/// 1-B — in one flat array: node n's parents are ids[offsets[n],
/// offsets[n + 1]), ascending and deduplicated.
struct ParentIds {
  std::vector<size_t> offsets;  ///< num_nodes() + 1 entries
  std::vector<NodeId> ids;

  /// The parents of \p node; empty for the root and for nodes no reachable
  /// node references (the dead slots of a merged cube's arena).
  std::span<const NodeId> of(NodeId node) const {
    return {ids.data() + offsets[node], ids.data() + offsets[node + 1]};
  }
};

/// \brief Computes every node's parents from the reachable nodes only.
ParentIds ComputeParentIds(const DwarfCube& cube);

}  // namespace scdwarf::dwarf

#endif  // SCDWARF_DWARF_TRAVERSAL_H_
