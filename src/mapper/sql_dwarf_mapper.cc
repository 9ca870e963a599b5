#include "mapper/sql_dwarf_mapper.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "common/trace.h"
#include "mapper/id_map.h"
#include "mapper/store_rows.h"
#include "mapper/stored_cube.h"

namespace scdwarf::mapper {

using sql::SqlRow;

Status SqlDwarfMapper::EnsureSchema() {
  return scope_.EnsureTables(
      {{kCubeTable,
        {{"id", DataType::kInt},
         {"node_count", DataType::kInt},
         {"cell_count", DataType::kInt},
         {"size_as_mb", DataType::kInt},
         {"entry_node_id", DataType::kInt}}},
       {kNodeTable,
        {{"id", DataType::kInt},
         {"root", DataType::kBool},
         {"cube_id", DataType::kInt}}},
       {kCellTable,
        {{"id", DataType::kInt},
         {"key_text", DataType::kText},
         {"measure", DataType::kInt},
         {"leaf", DataType::kBool},
         {"cube_id", DataType::kInt},
         {"dimension_table_name", DataType::kText}}},
       // One row per node -> contained cell edge.
       {kNodeChildrenTable,
        {{"id", DataType::kInt},
         {"node_id", DataType::kInt},
         {"cell_id", DataType::kInt}}},
       // One row per cell -> pointed node edge.
       {kCellChildrenTable,
        {{"id", DataType::kInt},
         {"cell_id", DataType::kInt},
         {"node_id", DataType::kInt}}}});
}

Result<int64_t> SqlDwarfMapper::Store(const dwarf::DwarfCube& cube,
                                      StoreOptions options,
                                      SqlDwarfStoreStats* stats) {
  SCD_RETURN_IF_ERROR(EnsureSchema());
  SCD_RETURN_IF_ERROR(ValidateNoReservedKeys(cube));
  SCD_ASSIGN_OR_RETURN(int64_t cube_id, scope_.NextId(kCubeTable));
  SCD_ASSIGN_OR_RETURN(int64_t node_base, scope_.NextId(kNodeTable));
  SCD_ASSIGN_OR_RETURN(int64_t cell_base, scope_.NextId(kCellTable));
  SCD_ASSIGN_OR_RETURN(int64_t node_children_base,
                       scope_.NextId(kNodeChildrenTable));
  SCD_ASSIGN_OR_RETURN(int64_t cell_children_base,
                       scope_.NextId(kCellChildrenTable));

  CubeIdMap ids;
  {
    trace::ScopedSpan span("mapper.assign_ids");
    ids = AssignIds(cube, node_base, cell_base);
  }

  // The edge tables draw their ids from sequential counters. So chunks can
  // serialize independently, prefix-count the edges each node contributes:
  // every cell (incl. ALL) adds one NODE_CHILDREN row, and non-leaf nodes
  // add one CELL_CHILDREN row per cell. Chunk [b, e) then starts its edge
  // ids at base + prefix[b] — identical ids to the serial counters.
  size_t n = ids.visit_order.size();
  std::vector<uint64_t> nc_prefix(n + 1, 0);
  std::vector<uint64_t> cc_prefix(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const dwarf::NodeView node = cube.node(ids.visit_order[i]);
    uint64_t cells = node.cells.size() + 1;  // + the ALL cell
    nc_prefix[i + 1] = nc_prefix[i] + cells;
    cc_prefix[i + 1] =
        cc_prefix[i] + (cube.IsLeafLevel(node.level) ? 0 : cells);
  }

  // The four tables go through the one store path (store_rows.h), each on
  // its own lane, in batches of at least kSqlRowsPerInsert rows.
  auto generate = [&](size_t begin, size_t end) {
    std::vector<Rows> out(4);
    std::vector<SqlRow>& node_rows = out[0];
    std::vector<SqlRow>& cell_rows = out[1];
    std::vector<SqlRow>& node_children_rows = out[2];
    std::vector<SqlRow>& cell_children_rows = out[3];
    int64_t nc_id = node_children_base + static_cast<int64_t>(nc_prefix[begin]);
    int64_t cc_id = cell_children_base + static_cast<int64_t>(cc_prefix[begin]);
    for (size_t i = begin; i < end; ++i) {
      const dwarf::NodeId node_id = ids.visit_order[i];
      const dwarf::NodeView node = cube.node(node_id);
      const bool leaf = cube.IsLeafLevel(node.level);
      const std::string& dim_table =
          cube.schema().dimensions()[node.level].dimension_table;
      const int64_t node_store_id = ids.node_ids[node_id];
      AddRow(&node_rows, Value::Int(node_store_id),
             Value::Bool(node_id == cube.root()), Value::Int(cube_id));
      ForEachStoredCell(cube, ids, node_id,
                        [&](int64_t cell_id, const std::string& key,
                            dwarf::Measure measure, int64_t pointer_node) {
        AddRow(&cell_rows, Value::Int(cell_id), Value::Text(key),
               Value::Int(measure), Value::Bool(leaf), Value::Int(cube_id),
               Value::Text(dim_table));
        AddRow(&node_children_rows, Value::Int(nc_id++),
               Value::Int(node_store_id), Value::Int(cell_id));
        if (pointer_node >= 0) {
          AddRow(&cell_children_rows, Value::Int(cc_id++),
                 Value::Int(cell_id), Value::Int(pointer_node));
        }
      });
    }
    return out;
  };
  SCD_RETURN_IF_ERROR(scope_.StoreRows(
      options.num_threads, n,
      {kNodeTable, kCellTable, kNodeChildrenTable, kCellChildrenTable},
      generate));

  // One node row per node; one cell row and one NODE_CHILDREN row per cell.
  if (stats != nullptr) {
    stats->node_rows = n;
    stats->cell_rows = nc_prefix[n];
    stats->node_children_rows = nc_prefix[n];
    stats->cell_children_rows = cc_prefix[n];
  }

  SqlRow cube_row = {Value::Int(cube_id), Value::Int(static_cast<int64_t>(n)),
                     Value::Int(static_cast<int64_t>(nc_prefix[n])),
                     Value::Int(0),
                     cube.empty() ? Value::Null()
                                  : Value::Int(ids.node_ids[cube.root()])};
  SCD_RETURN_IF_ERROR(scope_.Insert(kCubeTable, {cube_row}));
  SCD_RETURN_IF_ERROR(scope_.WriteMeta(cube_id, cube.schema()));
  SCD_RETURN_IF_ERROR(
      scope_.RecordSize(kCubeTable, std::move(cube_row)).status());
  return cube_id;
}

Status SqlDwarfMapper::DeleteCube(int64_t cube_id) {
  SCD_RETURN_IF_ERROR(scope_.GetRow(kCubeTable, cube_id).status());
  // The join tables carry no cube id; resolve their rows through the cube's
  // cell ids.
  std::set<int64_t> cell_ids;
  SCD_RETURN_IF_ERROR(scope_.ForEachRow(
      kCellTable, "cube_id", cube_id, [&cell_ids](const SqlRow& row) -> Status {
        SCD_ASSIGN_OR_RETURN(int64_t id, row[0].AsInt());
        cell_ids.insert(id);
        return Status::OK();
      }));
  sql::SqlEngine* engine = scope_.engine();
  auto delete_edges = [&](const char* table, size_t cell_column) -> Status {
    SCD_ASSIGN_OR_RETURN(std::shared_ptr<const sql::HeapTable> t,
                         engine->GetTable(scope_.name(), table));
    std::vector<Value> keys;
    for (const SqlRow* row : t->ScanAll()) {
      SCD_ASSIGN_OR_RETURN(int64_t cell_id, (*row)[cell_column].AsInt());
      if (cell_ids.count(cell_id) > 0) keys.push_back((*row)[0]);
    }
    return engine->BulkDelete(scope_.name(), table, keys);
  };
  // NODE_CHILDREN stores (node_id, cell_id), CELL_CHILDREN (cell_id, node_id).
  SCD_RETURN_IF_ERROR(delete_edges(kNodeChildrenTable, 2));
  SCD_RETURN_IF_ERROR(delete_edges(kCellChildrenTable, 1));
  return scope_.DeleteCube(kCubeTable, cube_id,
                           {{kCellTable, "cube_id"}, {kNodeTable, "cube_id"}});
}

Result<dwarf::DwarfCube> SqlDwarfMapper::Load(int64_t cube_id) const {
  SCD_ASSIGN_OR_RETURN(SqlRow cube_row, scope_.GetRow(kCubeTable, cube_id));
  StoredCube stored;
  SCD_ASSIGN_OR_RETURN(stored.entry_node_id, NodeIdOrNone(cube_row[4]));
  SCD_ASSIGN_OR_RETURN(stored.meta, scope_.ReadMeta(cube_id));

  // The relational rebuild stitches three tables: cells joined to their
  // owning node through NODE_CHILDREN and to their pointed node through
  // CELL_CHILDREN. Both map a cell id to a node id.
  const sql::SqlEngine& engine = *scope_.engine();
  auto edges = [&](const char* table, size_t cell_column,
                   size_t node_column) -> Result<std::map<int64_t, int64_t>> {
    SCD_ASSIGN_OR_RETURN(std::shared_ptr<const sql::HeapTable> t,
                         engine.GetTable(scope_.name(), table));
    std::map<int64_t, int64_t> node_of_cell;
    for (const SqlRow* row : t->ScanAll()) {
      SCD_ASSIGN_OR_RETURN(int64_t cell_id, (*row)[cell_column].AsInt());
      SCD_ASSIGN_OR_RETURN(node_of_cell[cell_id], (*row)[node_column].AsInt());
    }
    return node_of_cell;
  };
  SCD_ASSIGN_OR_RETURN(auto owner_of_cell, edges(kNodeChildrenTable, 2, 1));
  SCD_ASSIGN_OR_RETURN(auto pointed_by_cell, edges(kCellChildrenTable, 1, 2));

  SCD_RETURN_IF_ERROR(scope_.ForEachRow(
      kCellTable, "cube_id", cube_id, [&](const SqlRow& row) -> Status {
        StoredCell cell;
        SCD_ASSIGN_OR_RETURN(cell.id, row[0].AsInt());
        SCD_ASSIGN_OR_RETURN(cell.key, row[1].AsText());
        SCD_ASSIGN_OR_RETURN(cell.measure, row[2].AsInt());
        SCD_ASSIGN_OR_RETURN(cell.leaf, row[3].AsBool());
        auto owner = owner_of_cell.find(cell.id);
        if (owner == owner_of_cell.end()) {
          return Status::ParseError("cell " + std::to_string(cell.id) +
                                    " has no NODE_CHILDREN row");
        }
        cell.parent_node = owner->second;
        auto pointed = pointed_by_cell.find(cell.id);
        cell.pointer_node =
            pointed == pointed_by_cell.end() ? -1 : pointed->second;
        stored.cells.push_back(std::move(cell));
        return Status::OK();
      }));
  return RebuildCube(stored);
}

}  // namespace scdwarf::mapper
