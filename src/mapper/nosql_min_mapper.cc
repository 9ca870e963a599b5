#include "mapper/nosql_min_mapper.h"

#include "common/trace.h"
#include "mapper/id_map.h"

namespace scdwarf::mapper {

namespace {

/// "the absence of a DWARF Node table ... necessitates the addition of two
/// secondary indexes on the DWARF Cell table" (§5.1): Cassandra filters
/// only through an index, MySQL with or without one.
std::vector<std::string> CellIndexes(const nosql::Database*) {
  return {"parentnodeid", "childnodeid"};
}
std::vector<std::string> CellIndexes(const sql::SqlEngine*) { return {}; }

/// Only the NoSQL store can pre-size a table.
Status Reserve(nosql::Database* db, const std::string& keyspace,
               const std::string& table, size_t rows) {
  return db->Reserve(keyspace, table, rows);
}
Status Reserve(sql::SqlEngine*, const std::string&, const std::string&,
               size_t) {
  return Status::OK();
}

}  // namespace

template <typename Engine>
Status MinMapper<Engine>::EnsureSchema() {
  return scope_.EnsureTables(
      {{kCubeTable,
        {{"id", DataType::kInt},
         {"node_count", DataType::kInt},
         {"cell_count", DataType::kInt},
         {"size_as_mb", DataType::kInt}}},
       // Table 3's DWARF_Cell, plus the measure column the text implies
       // (cells carry the leaf aggregates that make node rows unnecessary).
       {kCellTable,
        {{"id", DataType::kInt},
         {"item_name", DataType::kText},
         {"measure", DataType::kInt},
         {"leaf", DataType::kBool},
         {"root", DataType::kBool},
         {"cubeid", DataType::kInt},
         {"parentnodeid", DataType::kInt},
         {"childnodeid", DataType::kInt}},
        create_secondary_indexes_ ? CellIndexes(scope_.engine())
                                  : std::vector<std::string>{}}});
}

template <typename Engine>
Result<int64_t> MinMapper<Engine>::Store(const dwarf::DwarfCube& cube,
                                         StoreOptions options) {
  SCD_RETURN_IF_ERROR(EnsureSchema());
  SCD_RETURN_IF_ERROR(ValidateNoReservedKeys(cube));
  SCD_ASSIGN_OR_RETURN(int64_t cube_id, scope_.NextId(kCubeTable));
  SCD_ASSIGN_OR_RETURN(int64_t node_base, scope_.NextId(kCellTable));
  // Node ids never materialize as rows but must not collide with other
  // cubes' ids within the shared cell table's id space; cells and nodes
  // draw from one counter here.
  const int64_t cell_base = node_base + static_cast<int64_t>(cube.num_nodes());
  CubeIdMap ids;
  {
    trace::ScopedSpan span("mapper.assign_ids");
    ids = AssignIds(cube, node_base, cell_base);
  }

  // One cell row per cell and ALL cell, each of which AssignIds numbered.
  // The count is known before the first insert, so the cell table is
  // reserved once and no chunk's insert grows or rehashes it.
  const int64_t num_cell_rows = ids.next_cell_id - cell_base;
  SCD_RETURN_IF_ERROR(Reserve(scope_.engine(), scope_.name(), kCellTable,
                              static_cast<size_t>(num_cell_rows)));

  // Cell rows go through the one store path (store_rows.h), on the cell
  // table's lane.
  auto generate = [&](size_t begin, size_t end) {
    std::vector<Rows> out(1);
    Rows& cell_rows = out[0];
    for (size_t i = begin; i < end; ++i) {
      const dwarf::NodeId node_id = ids.visit_order[i];
      const bool leaf = cube.IsLeafLevel(cube.node(node_id).level);
      const bool is_root = node_id == cube.root();
      ForEachStoredCell(cube, ids, node_id,
                        [&](int64_t id, const std::string& key,
                            dwarf::Measure measure, int64_t pointer_node) {
        AddRow(&cell_rows, Value::Int(id), Value::Text(key),
               Value::Int(measure), Value::Bool(leaf), Value::Bool(is_root),
               Value::Int(cube_id), Value::Int(ids.node_ids[node_id]),
               pointer_node < 0 ? Value::Null() : Value::Int(pointer_node));
      });
    }
    return out;
  };
  SCD_RETURN_IF_ERROR(scope_.StoreRows(
      options.num_threads, ids.visit_order.size(), {kCellTable}, generate));

  std::vector<Value> cube_row = {
      Value::Int(cube_id), Value::Int(static_cast<int64_t>(cube.num_nodes())),
      Value::Int(num_cell_rows), Value::Int(0)};
  SCD_RETURN_IF_ERROR(scope_.Insert(kCubeTable, {cube_row}));
  SCD_RETURN_IF_ERROR(scope_.WriteMeta(cube_id, cube.schema()));
  SCD_RETURN_IF_ERROR(
      scope_.RecordSize(kCubeTable, std::move(cube_row)).status());
  return cube_id;
}

template <typename Engine>
Status MinMapper<Engine>::DeleteCube(int64_t cube_id) {
  return scope_.DeleteCube(kCubeTable, cube_id, {{kCellTable, "cubeid"}});
}

template <typename Engine>
Result<dwarf::DwarfCube> MinMapper<Engine>::Load(int64_t cube_id) const {
  SCD_RETURN_IF_ERROR(scope_.GetRow(kCubeTable, cube_id).status());
  StoredCube stored;
  SCD_ASSIGN_OR_RETURN(stored.meta, scope_.ReadMeta(cube_id));
  stored.entry_node_id = -1;
  SCD_RETURN_IF_ERROR(scope_.ForEachRow(
      kCellTable, "cubeid", cube_id,
      [&](const std::vector<Value>& row) -> Status {
        StoredCell cell;
        SCD_ASSIGN_OR_RETURN(cell.id, row[0].AsInt());
        SCD_ASSIGN_OR_RETURN(cell.key, row[1].AsText());
        SCD_ASSIGN_OR_RETURN(cell.measure, row[2].AsInt());
        SCD_ASSIGN_OR_RETURN(cell.leaf, row[3].AsBool());
        SCD_ASSIGN_OR_RETURN(bool is_root, row[4].AsBool());
        SCD_ASSIGN_OR_RETURN(cell.parent_node, row[6].AsInt());
        SCD_ASSIGN_OR_RETURN(cell.pointer_node, NodeIdOrNone(row[7]));
        if (is_root) {
          if (stored.entry_node_id >= 0 &&
              stored.entry_node_id != cell.parent_node) {
            return Status::ParseError("cube " + std::to_string(cube_id) +
                                      " has conflicting root markers");
          }
          stored.entry_node_id = cell.parent_node;
        }
        stored.cells.push_back(std::move(cell));
        return Status::OK();
      }));
  if (!stored.cells.empty() && stored.entry_node_id < 0) {
    return Status::ParseError("cube " + std::to_string(cube_id) +
                              " has no root cells");
  }
  return RebuildCube(stored);
}

template class MinMapper<nosql::Database>;
template class MinMapper<sql::SqlEngine>;

}  // namespace scdwarf::mapper
