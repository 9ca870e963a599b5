#include "mapper/id_map.h"

namespace scdwarf::mapper {

CubeIdMap AssignIds(const dwarf::DwarfCube& cube, int64_t node_base,
                    int64_t cell_base) {
  CubeIdMap map;
  map.node_ids.assign(cube.num_nodes(), CubeIdMap::kInvalidId);
  map.first_cell_id.assign(cube.num_nodes(), CubeIdMap::kInvalidId);
  map.visit_order =
      dwarf::CollectReachableNodes(cube, dwarf::TraversalOrder::kDepthFirst);
  map.next_node_id = node_base;
  map.next_cell_id = cell_base;
  for (dwarf::NodeId id : map.visit_order) {
    map.node_ids[id] = map.next_node_id++;
    map.first_cell_id[id] = map.next_cell_id;
    map.next_cell_id += static_cast<int64_t>(cube.node(id).cells.size()) + 1;
  }
  return map;
}

Status ValidateNoReservedKeys(const dwarf::DwarfCube& cube) {
  for (size_t dim = 0; dim < cube.num_dimensions(); ++dim) {
    if (cube.dictionary(dim).Lookup(kAllCellKey).ok()) {
      return Status::InvalidArgument(
          "dimension '" + cube.schema().dimensions()[dim].name +
          "' contains the reserved key \"" + std::string(kAllCellKey) +
          "\"; it cannot be stored losslessly");
    }
  }
  return Status::OK();
}

}  // namespace scdwarf::mapper
