#include "mapper/nosql_min_mapper.h"

#include <algorithm>

#include "common/trace.h"
#include "mapper/id_map.h"
#include "mapper/store_rows.h"
#include "mapper/stored_cube.h"

namespace scdwarf::mapper {

using scdwarf::DataType;
using nosql::Row;
using nosql::Table;
using nosql::TableSchema;
using scdwarf::Value;

Status NoSqlMinMapper::EnsureSchema() {
  if (!db_->HasKeyspace(keyspace_)) {
    SCD_RETURN_IF_ERROR(db_->CreateKeyspace(keyspace_));
  }
  auto create_if_missing = [this](TableSchema schema) -> Status {
    Status status = db_->CreateTable(schema);
    if (status.IsAlreadyExists()) return Status::OK();
    return status;
  };
  SCD_RETURN_IF_ERROR(create_if_missing(TableSchema(
      keyspace_, kCubeCf,
      {{"id", DataType::kInt},
       {"node_count", DataType::kInt},
       {"cell_count", DataType::kInt},
       {"size_as_mb", DataType::kInt}},
      "id")));
  // Table 3's DWARF_Cell, plus the measure column the text implies (cells
  // carry the leaf aggregates that make node rows unnecessary).
  TableSchema cell_schema(keyspace_, kCellCf,
                          {{"id", DataType::kInt},
                           {"item_name", DataType::kText},
                           {"measure", DataType::kInt},
                           {"leaf", DataType::kBool},
                           {"root", DataType::kBool},
                           {"cubeid", DataType::kInt},
                           {"parentnodeid", DataType::kInt},
                           {"childnodeid", DataType::kInt}},
                          "id");
  Status status = db_->CreateTable(cell_schema);
  if (!status.ok() && !status.IsAlreadyExists()) return status;
  if (status.ok() && options_.create_secondary_indexes) {
    // "the absence of a DWARF Node table ... necessitates the addition of
    // two secondary indexes on the DWARF Cell table" (§5.1).
    SCD_RETURN_IF_ERROR(db_->CreateIndex(keyspace_, kCellCf, "parentnodeid"));
    SCD_RETURN_IF_ERROR(db_->CreateIndex(keyspace_, kCellCf, "childnodeid"));
  }
  SCD_RETURN_IF_ERROR(create_if_missing(TableSchema(
      keyspace_, kMetaCf,
      {{"id", DataType::kInt},
       {"cube_id", DataType::kInt},
       {"kind", DataType::kText},
       {"idx", DataType::kInt},
       {"value", DataType::kText}},
      "id")));
  return Status::OK();
}

Result<int64_t> NoSqlMinMapper::NextId(const std::string& table) const {
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> t,
                       static_cast<const nosql::Database*>(db_)->GetTable(
                           keyspace_, table));
  int64_t max_id = -1;
  for (const Row* row : t->ScanAll()) {
    SCD_ASSIGN_OR_RETURN(int64_t id, (*row)[0].AsInt());
    max_id = std::max(max_id, id);
  }
  return max_id + 1;
}

Result<int64_t> NoSqlMinMapper::Store(const dwarf::DwarfCube& cube) {
  SCD_RETURN_IF_ERROR(EnsureSchema());
  SCD_RETURN_IF_ERROR(ValidateNoReservedKeys(cube));
  SCD_ASSIGN_OR_RETURN(int64_t cube_id, NextId(kCubeCf));
  SCD_ASSIGN_OR_RETURN(int64_t node_base, NextId(kCellCf));
  // Node ids never materialize as rows but must not collide with other
  // cubes' ids within the shared cell family id space; cells and nodes draw
  // from one counter here.
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
  SCD_RETURN_IF_ERROR(
      db_->Reserve(keyspace_, kCellCf, static_cast<size_t>(num_cell_rows)));

  // Cell rows go through the one store path (store_rows.h), on the cell
  // table's lane, one BulkInsert per chunk.
  auto generate = [&](size_t begin, size_t end) {
    std::vector<Rows> out(1);
    std::vector<Row>& cell_rows = out[0];
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
      options_.num_threads, ids.visit_order.size(), {kCellCf},
      /*rows_per_insert=*/1, generate,
      [this](const std::string& table, std::vector<Row> rows) {
        return db_->BulkInsert(keyspace_, table, std::move(rows));
      }));

  Row cube_row = {Value::Int(cube_id),
                  Value::Int(static_cast<int64_t>(cube.num_nodes())),
                  Value::Int(num_cell_rows),
                  Value::Int(0)};
  SCD_RETURN_IF_ERROR(db_->BulkInsert(keyspace_, kCubeCf, {cube_row}));

  SCD_ASSIGN_OR_RETURN(int64_t meta_base, NextId(kMetaCf));
  std::vector<Row> meta_rows;
  for (const MetaRow& row : MetaToRows(CubeMeta::FromSchema(cube.schema()))) {
    meta_rows.push_back({Value::Int(meta_base++), Value::Int(cube_id),
                         Value::Text(row.kind), Value::Int(row.idx),
                         Value::Text(row.value)});
  }
  SCD_RETURN_IF_ERROR(db_->BulkInsert(keyspace_, kMetaCf, std::move(meta_rows)));

  SCD_RETURN_IF_ERROR(db_->Flush());
  SCD_ASSIGN_OR_RETURN(uint64_t disk_bytes, db_->DiskSizeBytes());
  uint64_t size_bytes = db_->data_dir().empty() ? db_->EstimateBytes()
                                                : disk_bytes;
  cube_row[3] = Value::Int(static_cast<int64_t>(size_bytes >> 20));
  SCD_RETURN_IF_ERROR(db_->Insert(keyspace_, kCubeCf, cube_row));
  return cube_id;
}

Status NoSqlMinMapper::DeleteCube(int64_t cube_id) {
  const nosql::Database* db = db_;
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> cube_cf, db->GetTable(keyspace_, kCubeCf));
  SCD_RETURN_IF_ERROR(cube_cf->GetByPk(Value::Int(cube_id)).status());
  auto delete_matching = [this, db](const char* table, const char* column,
                                    int64_t id) -> Status {
    SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> t, db->GetTable(keyspace_, table));
    SCD_ASSIGN_OR_RETURN(std::vector<const Row*> rows,
                         t->SelectEq(column, Value::Int(id),
                                     /*allow_filtering=*/true));
    std::vector<Value> keys;
    keys.reserve(rows.size());
    for (const Row* row : rows) keys.push_back((*row)[0]);
    return db_->BulkDelete(keyspace_, table, keys);
  };
  SCD_RETURN_IF_ERROR(delete_matching(kCellCf, "cubeid", cube_id));
  SCD_RETURN_IF_ERROR(delete_matching(kMetaCf, "cube_id", cube_id));
  return db_->Delete(keyspace_, kCubeCf, Value::Int(cube_id));
}

Result<dwarf::DwarfCube> NoSqlMinMapper::Load(int64_t cube_id) const {
  const nosql::Database* db = db_;
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> cube_cf, db->GetTable(keyspace_, kCubeCf));
  SCD_RETURN_IF_ERROR(cube_cf->GetByPk(Value::Int(cube_id)).status());

  StoredCube stored;
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> meta_cf, db->GetTable(keyspace_, kMetaCf));
  std::vector<MetaRow> meta_rows;
  SCD_ASSIGN_OR_RETURN(std::vector<const Row*> meta_matches,
                       meta_cf->SelectEq("cube_id", Value::Int(cube_id),
                                         /*allow_filtering=*/true));
  for (const Row* row : meta_matches) {
    MetaRow meta;
    SCD_ASSIGN_OR_RETURN(meta.kind, (*row)[2].AsText());
    SCD_ASSIGN_OR_RETURN(meta.idx, (*row)[3].AsInt());
    SCD_ASSIGN_OR_RETURN(meta.value, (*row)[4].AsText());
    meta_rows.push_back(std::move(meta));
  }
  SCD_ASSIGN_OR_RETURN(stored.meta, MetaFromRows(meta_rows));

  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> cell_cf, db->GetTable(keyspace_, kCellCf));
  SCD_ASSIGN_OR_RETURN(std::vector<const Row*> cell_matches,
                       cell_cf->SelectEq("cubeid", Value::Int(cube_id),
                                         /*allow_filtering=*/true));
  stored.entry_node_id = -1;
  for (const Row* row : cell_matches) {
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
