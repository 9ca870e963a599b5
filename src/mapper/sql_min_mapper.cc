#include "mapper/sql_min_mapper.h"

#include <algorithm>

#include "common/trace.h"
#include "mapper/id_map.h"
#include "mapper/store_rows.h"
#include "mapper/stored_cube.h"

namespace scdwarf::mapper {

using sql::SqlRow;
using sql::SqlTableDef;

Status SqlMinMapper::EnsureSchema() {
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
       {"size_as_mb", DataType::kInt}},
      "id")));
  SCD_RETURN_IF_ERROR(create_if_missing(SqlTableDef(
      database_, kCellTable,
      {{"id", DataType::kInt, false},
       {"item_name", DataType::kText},
       {"measure", DataType::kInt},
       {"leaf", DataType::kBool},
       {"root", DataType::kBool},
       {"cubeid", DataType::kInt},
       {"parentnodeid", DataType::kInt},
       {"childnodeid", DataType::kInt}},
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

Result<int64_t> SqlMinMapper::NextId(const std::string& table) const {
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const sql::HeapTable> t,
                       static_cast<const sql::SqlEngine*>(engine_)->GetTable(
                           database_, table));
  auto rows = t->ScanAll();
  if (rows.empty()) return int64_t{0};
  SCD_ASSIGN_OR_RETURN(int64_t max_id, (*rows.back())[0].AsInt());
  return max_id + 1;
}

Result<int64_t> SqlMinMapper::Store(const dwarf::DwarfCube& cube) {
  SCD_RETURN_IF_ERROR(EnsureSchema());
  SCD_RETURN_IF_ERROR(ValidateNoReservedKeys(cube));
  SCD_ASSIGN_OR_RETURN(int64_t cube_id, NextId(kCubeTable));
  SCD_ASSIGN_OR_RETURN(int64_t node_base, NextId(kCellTable));
  const int64_t cell_base = node_base + static_cast<int64_t>(cube.num_nodes());
  CubeIdMap ids;
  {
    trace::ScopedSpan span("mapper.assign_ids");
    ids = AssignIds(cube, node_base, cell_base);
  }

  // Cell rows go through the one store path (store_rows.h), on the cell
  // table's lane, in batches of at least kSqlRowsPerInsert rows.
  auto generate = [&](size_t begin, size_t end) {
    std::vector<Rows> out(1);
    std::vector<SqlRow>& cell_rows = out[0];
    for (size_t i = begin; i < end; ++i) {
      dwarf::NodeId node_id = ids.visit_order[i];
      const dwarf::NodeView node = cube.node(node_id);
      bool leaf = cube.IsLeafLevel(node.level);
      bool is_root = node_id == cube.root();
      const int64_t first_cell = ids.first_cell_id[node_id];
      for (size_t c = 0; c < node.cells.size(); ++c) {
        const dwarf::DwarfCell& cell = node.cells[c];
        const std::string& key =
            cube.dictionary(node.level).DecodeUnchecked(cell.key);
        cell_rows.push_back(
            {Value::Int(first_cell + static_cast<int64_t>(c)),
             Value::Text(key),
             Value::Int(leaf ? cell.measure : 0), Value::Bool(leaf),
             Value::Bool(is_root), Value::Int(cube_id),
             Value::Int(ids.node_ids[node_id]),
             leaf ? Value::Null() : Value::Int(ids.node_ids[cell.child])});
      }
      cell_rows.push_back(
          {Value::Int(first_cell + static_cast<int64_t>(node.cells.size())),
           Value::Text(kAllCellKey), Value::Int(leaf ? node.all_measure : 0),
           Value::Bool(leaf), Value::Bool(is_root), Value::Int(cube_id),
           Value::Int(ids.node_ids[node_id]),
           leaf ? Value::Null() : Value::Int(ids.node_ids[node.all_child])});
    }
    return out;
  };
  SCD_RETURN_IF_ERROR(StoreRows(
      num_threads_, ids.visit_order.size(), {kCellTable}, kSqlRowsPerInsert,
      generate,
      [this](const std::string& table, std::vector<SqlRow> rows) {
        return engine_->BulkInsert(database_, table, std::move(rows));
      }));
  // One cell row per cell and ALL cell, each of which AssignIds numbered.
  const int64_t cell_rows = ids.next_cell_id - cell_base;

  SCD_RETURN_IF_ERROR(engine_->BulkInsert(
      database_, kCubeTable,
      {{Value::Int(cube_id), Value::Int(static_cast<int64_t>(cube.num_nodes())),
        Value::Int(cell_rows), Value::Int(0)}}));

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
  SCD_ASSIGN_OR_RETURN(int64_t size_meta_id, NextId(kMetaTable));
  SCD_RETURN_IF_ERROR(engine_->BulkInsert(
      database_, kMetaTable,
      {{Value::Int(size_meta_id), Value::Int(cube_id), Value::Text("size_mb"),
        Value::Int(0), Value::Text(std::to_string(size_bytes >> 20))}}));
  return cube_id;
}

Status SqlMinMapper::DeleteCube(int64_t cube_id) {
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
  SCD_RETURN_IF_ERROR(delete_matching(kCellTable, "cubeid", cube_id));
  SCD_RETURN_IF_ERROR(delete_matching(kMetaTable, "cube_id", cube_id));
  return engine_->Delete(database_, kCubeTable, Value::Int(cube_id));
}

Result<dwarf::DwarfCube> SqlMinMapper::Load(int64_t cube_id) const {
  const sql::SqlEngine* engine = engine_;
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const sql::HeapTable> cube_table,
                       engine->GetTable(database_, kCubeTable));
  SCD_RETURN_IF_ERROR(cube_table->GetByPk(Value::Int(cube_id)).status());

  StoredCube stored;
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

  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const sql::HeapTable> cell_table,
                       engine->GetTable(database_, kCellTable));
  SCD_ASSIGN_OR_RETURN(std::vector<const SqlRow*> cell_matches,
                       cell_table->SelectEq("cubeid", Value::Int(cube_id)));
  stored.entry_node_id = -1;
  for (const SqlRow* row : cell_matches) {
    StoredCell cell;
    SCD_ASSIGN_OR_RETURN(cell.id, (*row)[0].AsInt());
    SCD_ASSIGN_OR_RETURN(cell.key, (*row)[1].AsText());
    SCD_ASSIGN_OR_RETURN(cell.measure, (*row)[2].AsInt());
    SCD_ASSIGN_OR_RETURN(cell.leaf, (*row)[3].AsBool());
    SCD_ASSIGN_OR_RETURN(bool is_root, (*row)[4].AsBool());
    SCD_ASSIGN_OR_RETURN(cell.parent_node, (*row)[6].AsInt());
    if ((*row)[7].is_null()) {
      cell.pointer_node = -1;
    } else {
      SCD_ASSIGN_OR_RETURN(cell.pointer_node, (*row)[7].AsInt());
    }
    if (is_root) {
      if (stored.entry_node_id >= 0 &&
          stored.entry_node_id != cell.parent_node) {
        return Status::ParseError("cube " + std::to_string(cube_id) +
                                  " has conflicting root markers");
      }
      stored.entry_node_id = cell.parent_node;
    }
    stored.cells.push_back(std::move(cell));
  }
  if (!stored.cells.empty() && stored.entry_node_id < 0) {
    return Status::ParseError("cube " + std::to_string(cube_id) +
                              " has no root cells");
  }
  return RebuildCube(stored);
}

}  // namespace scdwarf::mapper
