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
using sql::SqlTableDef;

Status SqlDwarfMapper::EnsureSchema() {
  if (!engine_->HasDatabase(database_)) {
    SCD_RETURN_IF_ERROR(engine_->CreateDatabase(database_));
  }
  auto create_if_missing = [this](const SqlTableDef& def) -> Status {
    Status status = engine_->CreateTable(def);
    if (status.IsAlreadyExists()) return Status::OK();
    return status;
  };
  SCD_RETURN_IF_ERROR(create_if_missing(SqlTableDef(
      database_, kCubeTable,
      {{"id", DataType::kInt, false},
       {"node_count", DataType::kInt},
       {"cell_count", DataType::kInt},
       {"size_as_mb", DataType::kInt},
       {"entry_node_id", DataType::kInt}},
      "id")));
  SCD_RETURN_IF_ERROR(create_if_missing(SqlTableDef(
      database_, kNodeTable,
      {{"id", DataType::kInt, false},
       {"root", DataType::kBool},
       {"cube_id", DataType::kInt}},
      "id")));
  SCD_RETURN_IF_ERROR(create_if_missing(SqlTableDef(
      database_, kCellTable,
      {{"id", DataType::kInt, false},
       {"key_text", DataType::kText},
       {"measure", DataType::kInt},
       {"leaf", DataType::kBool},
       {"cube_id", DataType::kInt},
       {"dimension_table_name", DataType::kText}},
      "id")));
  // One row per node -> contained cell edge.
  SCD_RETURN_IF_ERROR(create_if_missing(SqlTableDef(
      database_, kNodeChildrenTable,
      {{"id", DataType::kInt, false},
       {"node_id", DataType::kInt},
       {"cell_id", DataType::kInt}},
      "id")));
  // One row per cell -> pointed node edge.
  SCD_RETURN_IF_ERROR(create_if_missing(SqlTableDef(
      database_, kCellChildrenTable,
      {{"id", DataType::kInt, false},
       {"cell_id", DataType::kInt},
       {"node_id", DataType::kInt}},
      "id")));
  SCD_RETURN_IF_ERROR(create_if_missing(SqlTableDef(
      database_, kMetaTable,
      {{"id", DataType::kInt, false},
       {"cube_id", DataType::kInt},
       {"kind", DataType::kText},
       {"idx", DataType::kInt},
       {"value", DataType::kText}},
      "id")));
  return Status::OK();
}

Result<int64_t> SqlDwarfMapper::NextId(const std::string& table) const {
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const sql::HeapTable> t,
                       static_cast<const sql::SqlEngine*>(engine_)->GetTable(
                           database_, table));
  // Rows scan in primary-key order: the last row has the max id.
  auto rows = t->ScanAll();
  if (rows.empty()) return int64_t{0};
  SCD_ASSIGN_OR_RETURN(int64_t max_id, (*rows.back())[0].AsInt());
  return max_id + 1;
}

Result<int64_t> SqlDwarfMapper::Store(const dwarf::DwarfCube& cube,
                                      SqlDwarfStoreStats* stats) {
  SCD_RETURN_IF_ERROR(EnsureSchema());
  SCD_RETURN_IF_ERROR(ValidateNoReservedKeys(cube));
  SCD_ASSIGN_OR_RETURN(int64_t cube_id, NextId(kCubeTable));
  SCD_ASSIGN_OR_RETURN(int64_t node_base, NextId(kNodeTable));
  SCD_ASSIGN_OR_RETURN(int64_t cell_base, NextId(kCellTable));
  SCD_ASSIGN_OR_RETURN(int64_t node_children_base, NextId(kNodeChildrenTable));
  SCD_ASSIGN_OR_RETURN(int64_t cell_children_base, NextId(kCellChildrenTable));

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
    auto emit_cell = [&](int64_t cell_id, const std::string& key,
                         dwarf::Measure measure, bool leaf, int64_t node_id,
                         int64_t pointed_node, const std::string& dim_table) {
      cell_rows.push_back(
          {Value::Int(cell_id), Value::Text(key), Value::Int(measure),
           Value::Bool(leaf), Value::Int(cube_id), Value::Text(dim_table)});
      node_children_rows.push_back(
          {Value::Int(nc_id++), Value::Int(node_id), Value::Int(cell_id)});
      if (pointed_node >= 0) {
        cell_children_rows.push_back(
            {Value::Int(cc_id++), Value::Int(cell_id),
             Value::Int(pointed_node)});
      }
    };
    for (size_t i = begin; i < end; ++i) {
      dwarf::NodeId node_id = ids.visit_order[i];
      const dwarf::NodeView node = cube.node(node_id);
      bool leaf = cube.IsLeafLevel(node.level);
      const std::string& dim_table =
          cube.schema().dimensions()[node.level].dimension_table;
      node_rows.push_back({Value::Int(ids.node_ids[node_id]),
                           Value::Bool(node_id == cube.root()),
                           Value::Int(cube_id)});
      const int64_t first_cell = ids.first_cell_id[node_id];
      for (size_t c = 0; c < node.cells.size(); ++c) {
        const dwarf::DwarfCell& cell = node.cells[c];
        const std::string& key =
            cube.dictionary(node.level).DecodeUnchecked(cell.key);
        emit_cell(first_cell + static_cast<int64_t>(c), key,
                  leaf ? cell.measure : 0, leaf, ids.node_ids[node_id],
                  leaf ? -1 : ids.node_ids[cell.child], dim_table);
      }
      emit_cell(first_cell + static_cast<int64_t>(node.cells.size()),
                kAllCellKey,
                leaf ? node.all_measure : 0, leaf, ids.node_ids[node_id],
                leaf ? -1 : ids.node_ids[node.all_child], dim_table);
    }
    return out;
  };
  SCD_RETURN_IF_ERROR(StoreRows(
      num_threads_, n,
      {kNodeTable, kCellTable, kNodeChildrenTable, kCellChildrenTable},
      kSqlRowsPerInsert, generate,
      [this](const std::string& table, std::vector<SqlRow> rows) {
        return engine_->BulkInsert(database_, table, std::move(rows));
      }));

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
  SCD_RETURN_IF_ERROR(engine_->BulkInsert(database_, kCubeTable, {cube_row}));

  SCD_ASSIGN_OR_RETURN(int64_t meta_base, NextId(kMetaTable));
  std::vector<SqlRow> meta_rows;
  for (const MetaRow& row : MetaToRows(CubeMeta::FromSchema(cube.schema()))) {
    meta_rows.push_back({Value::Int(meta_base++), Value::Int(cube_id),
                         Value::Text(row.kind), Value::Int(row.idx),
                         Value::Text(row.value)});
  }
  SCD_RETURN_IF_ERROR(
      engine_->BulkInsert(database_, kMetaTable, std::move(meta_rows)));

  SCD_RETURN_IF_ERROR(engine_->Flush());
  SCD_ASSIGN_OR_RETURN(uint64_t disk_bytes, engine_->DiskSizeBytes());
  uint64_t size_bytes =
      engine_->data_dir().empty() ? engine_->EstimateBytes() : disk_bytes;
  // MySQL INSERT has no upsert here: update by delete-free overwrite is not
  // available, so the size row is written through a fresh insert id... the
  // engine rejects duplicate keys, so instead store the measured size in the
  // metadata table alongside the logical schema.
  SCD_ASSIGN_OR_RETURN(int64_t size_meta_id, NextId(kMetaTable));
  SCD_RETURN_IF_ERROR(engine_->BulkInsert(
      database_, kMetaTable,
      {{Value::Int(size_meta_id), Value::Int(cube_id), Value::Text("size_mb"),
        Value::Int(0),
        Value::Text(std::to_string(size_bytes >> 20))}}));
  return cube_id;
}

Status SqlDwarfMapper::DeleteCube(int64_t cube_id) {
  const sql::SqlEngine* engine = engine_;
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const sql::HeapTable> cube_table,
                       engine->GetTable(database_, kCubeTable));
  SCD_RETURN_IF_ERROR(cube_table->GetByPk(Value::Int(cube_id)).status());

  auto delete_matching = [this, engine](const char* table, const char* column,
                                        int64_t id) -> Status {
    SCD_ASSIGN_OR_RETURN(std::shared_ptr<const sql::HeapTable> t,
                         engine->GetTable(database_, table));
    SCD_ASSIGN_OR_RETURN(std::vector<const sql::SqlRow*> rows,
                         t->SelectEq(column, Value::Int(id)));
    std::vector<Value> keys;
    keys.reserve(rows.size());
    for (const sql::SqlRow* row : rows) keys.push_back((*row)[0]);
    return engine_->BulkDelete(database_, table, keys);
  };
  // The join tables carry no cube id; resolve their rows through the cube's
  // cell and node ids.
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const sql::HeapTable> cells,
                       engine->GetTable(database_, kCellTable));
  SCD_ASSIGN_OR_RETURN(std::vector<const sql::SqlRow*> cell_rows,
                       cells->SelectEq("cube_id", Value::Int(cube_id)));
  std::set<int64_t> cell_ids;
  for (const sql::SqlRow* row : cell_rows) {
    SCD_ASSIGN_OR_RETURN(int64_t id, (*row)[0].AsInt());
    cell_ids.insert(id);
  }
  auto delete_edges = [this, engine, &cell_ids](const char* table) -> Status {
    SCD_ASSIGN_OR_RETURN(std::shared_ptr<const sql::HeapTable> t,
                         engine->GetTable(database_, table));
    std::vector<Value> keys;
    for (const sql::SqlRow* row : t->ScanAll()) {
      SCD_ASSIGN_OR_RETURN(int64_t cell_id, (*row)[1].AsInt());
      if (cell_ids.count(cell_id) > 0) keys.push_back((*row)[0]);
    }
    return engine_->BulkDelete(database_, table, keys);
  };
  // NODE_CHILDREN stores (node_id, cell_id): the cell reference is column 2.
  {
    SCD_ASSIGN_OR_RETURN(std::shared_ptr<const sql::HeapTable> t,
                         engine->GetTable(database_, kNodeChildrenTable));
    std::vector<Value> keys;
    for (const sql::SqlRow* row : t->ScanAll()) {
      SCD_ASSIGN_OR_RETURN(int64_t cell_id, (*row)[2].AsInt());
      if (cell_ids.count(cell_id) > 0) keys.push_back((*row)[0]);
    }
    SCD_RETURN_IF_ERROR(engine_->BulkDelete(database_, kNodeChildrenTable, keys));
  }
  SCD_RETURN_IF_ERROR(delete_edges(kCellChildrenTable));
  SCD_RETURN_IF_ERROR(delete_matching(kCellTable, "cube_id", cube_id));
  SCD_RETURN_IF_ERROR(delete_matching(kNodeTable, "cube_id", cube_id));
  SCD_RETURN_IF_ERROR(delete_matching(kMetaTable, "cube_id", cube_id));
  return engine_->Delete(database_, kCubeTable, Value::Int(cube_id));
}

Result<dwarf::DwarfCube> SqlDwarfMapper::Load(int64_t cube_id) const {
  const sql::SqlEngine* engine = engine_;
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const sql::HeapTable> cube_table,
                       engine->GetTable(database_, kCubeTable));
  SCD_ASSIGN_OR_RETURN(const SqlRow* cube_row,
                       cube_table->GetByPk(Value::Int(cube_id)));

  StoredCube stored;
  if ((*cube_row)[4].is_null()) {
    stored.entry_node_id = -1;
  } else {
    SCD_ASSIGN_OR_RETURN(stored.entry_node_id, (*cube_row)[4].AsInt());
  }

  // Metadata (skipping the size_mb row).
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const sql::HeapTable> meta_table,
                       engine->GetTable(database_, kMetaTable));
  std::vector<MetaRow> meta_rows;
  SCD_ASSIGN_OR_RETURN(std::vector<const SqlRow*> meta_matches,
                       meta_table->SelectEq("cube_id", Value::Int(cube_id)));
  for (const SqlRow* row : meta_matches) {
    MetaRow meta;
    SCD_ASSIGN_OR_RETURN(meta.kind, (*row)[2].AsText());
    if (meta.kind == "size_mb") continue;
    SCD_ASSIGN_OR_RETURN(meta.idx, (*row)[3].AsInt());
    SCD_ASSIGN_OR_RETURN(meta.value, (*row)[4].AsText());
    meta_rows.push_back(std::move(meta));
  }
  SCD_ASSIGN_OR_RETURN(stored.meta, MetaFromRows(meta_rows));

  // The relational rebuild stitches three tables: cells joined to their
  // owning node through NODE_CHILDREN and to their pointed node through
  // CELL_CHILDREN.
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const sql::HeapTable> cell_table,
                       engine->GetTable(database_, kCellTable));
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const sql::HeapTable> node_children,
                       engine->GetTable(database_, kNodeChildrenTable));
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const sql::HeapTable> cell_children,
                       engine->GetTable(database_, kCellChildrenTable));

  std::map<int64_t, int64_t> owner_of_cell;     // cell id -> node id
  for (const SqlRow* row : node_children->ScanAll()) {
    SCD_ASSIGN_OR_RETURN(int64_t node_id, (*row)[1].AsInt());
    SCD_ASSIGN_OR_RETURN(int64_t cell_id, (*row)[2].AsInt());
    owner_of_cell[cell_id] = node_id;
  }
  std::map<int64_t, int64_t> pointed_by_cell;   // cell id -> node id
  for (const SqlRow* row : cell_children->ScanAll()) {
    SCD_ASSIGN_OR_RETURN(int64_t cell_id, (*row)[1].AsInt());
    SCD_ASSIGN_OR_RETURN(int64_t node_id, (*row)[2].AsInt());
    pointed_by_cell[cell_id] = node_id;
  }

  SCD_ASSIGN_OR_RETURN(std::vector<const SqlRow*> cell_matches,
                       cell_table->SelectEq("cube_id", Value::Int(cube_id)));
  for (const SqlRow* row : cell_matches) {
    StoredCell cell;
    SCD_ASSIGN_OR_RETURN(cell.id, (*row)[0].AsInt());
    SCD_ASSIGN_OR_RETURN(cell.key, (*row)[1].AsText());
    SCD_ASSIGN_OR_RETURN(cell.measure, (*row)[2].AsInt());
    SCD_ASSIGN_OR_RETURN(cell.leaf, (*row)[3].AsBool());
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
  }
  return RebuildCube(stored);
}

}  // namespace scdwarf::mapper
