/// \file id_map.h
/// \brief The §4 "lookup table": assigns store-unique ids to every node and
/// cell of a cube during one traversal, so that coalesced structures (which
/// are reachable through several parents) are transformed exactly once.
///
/// The ALL cell of each node is materialized as a regular cell row with the
/// reserved key "ALL" (Table 1-C has no is-ALL flag; the reserved key keeps
/// the paper's column families unchanged while making the mapping lossless).

#ifndef SCDWARF_MAPPER_ID_MAP_H_
#define SCDWARF_MAPPER_ID_MAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dwarf/dwarf_cube.h"
#include "dwarf/traversal.h"

namespace scdwarf::mapper {

/// Reserved DWARF_Cell.key spelling for ALL cells.
inline constexpr const char* kAllCellKey = "ALL";

/// \brief Store ids for one cube. Node and cell ids live in separate id
/// spaces (they key different column families / tables).
struct CubeIdMap {
  /// Store id per arena NodeId (index), kInvalidId when unreachable.
  std::vector<int64_t> node_ids;
  /// Store id of each node's first cell per arena NodeId, kInvalidId when
  /// unreachable. A node's cells are numbered consecutively: cell c is
  /// first_cell_id + c, and its ALL cell first_cell_id + cells.size().
  std::vector<int64_t> first_cell_id;
  /// Nodes in traversal (assignment) order.
  std::vector<dwarf::NodeId> visit_order;

  int64_t next_node_id = 0;  ///< one past the last assigned node id
  int64_t next_cell_id = 0;  ///< one past the last assigned cell id

  static constexpr int64_t kInvalidId = -1;
};

/// \brief Walks the cube in the paper's top-down order and assigns ids
/// starting from \p node_base / \p cell_base (the "next id" values obtained
/// by querying the store, so multiple cubes can share column families).
CubeIdMap AssignIds(const dwarf::DwarfCube& cube, int64_t node_base,
                    int64_t cell_base);

/// \brief Calls \p fn(id, key, measure, pointer_node) for each cell of
/// \p node_id and then its ALL cell, as every schema stores them: a
/// leaf-level cell keeps its measure and points at no node (-1), any other
/// cell stores measure 0 and points at its child's store id.
template <typename Fn>
void ForEachStoredCell(const dwarf::DwarfCube& cube, const CubeIdMap& ids,
                       dwarf::NodeId node_id, Fn&& fn) {
  const dwarf::NodeView node = cube.node(node_id);
  const bool leaf = cube.IsLeafLevel(node.level);
  const int64_t first_cell = ids.first_cell_id[node_id];
  for (size_t c = 0; c < node.cells.size(); ++c) {
    const dwarf::DwarfCell& cell = node.cells[c];
    fn(first_cell + static_cast<int64_t>(c),
       cube.dictionary(node.level).DecodeUnchecked(cell.key),
       leaf ? cell.measure : 0, leaf ? -1 : ids.node_ids[cell.child]);
  }
  fn(first_cell + static_cast<int64_t>(node.cells.size()), kAllCellKey,
     leaf ? node.all_measure : 0, leaf ? -1 : ids.node_ids[node.all_child]);
}

/// \brief Rejects cubes whose dictionaries contain the reserved ALL key —
/// such a cube would be ambiguous after storage. Call before any Store().
Status ValidateNoReservedKeys(const dwarf::DwarfCube& cube);

}  // namespace scdwarf::mapper

#endif  // SCDWARF_MAPPER_ID_MAP_H_
