#include "mapper/nosql_dwarf_mapper.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/trace.h"
#include "mapper/id_map.h"
#include "mapper/store_rows.h"
#include "mapper/stored_cube.h"
#include "nosql/cql.h"

namespace scdwarf::mapper {

using scdwarf::DataType;
using nosql::Row;
using nosql::Table;
using nosql::TableSchema;
using scdwarf::Value;

Status NoSqlDwarfMapper::EnsureSchema() {
  if (!db_->HasKeyspace(keyspace_)) {
    SCD_RETURN_IF_ERROR(db_->CreateKeyspace(keyspace_));
  }
  auto create_if_missing = [this](const TableSchema& schema) -> Status {
    Status status = db_->CreateTable(schema);
    if (status.IsAlreadyExists()) return Status::OK();
    return status;
  };
  // Table 1-A.
  SCD_RETURN_IF_ERROR(create_if_missing(TableSchema(
      keyspace_, kSchemaCf,
      {{"id", DataType::kInt},
       {"node_count", DataType::kInt},
       {"cell_count", DataType::kInt},
       {"size_as_mb", DataType::kInt},
       {"entry_node_id", DataType::kInt},
       {"is_cube", DataType::kBool}},
      "id")));
  // Table 1-B.
  SCD_RETURN_IF_ERROR(create_if_missing(TableSchema(
      keyspace_, kNodeCf,
      {{"id", DataType::kInt},
       {"parentids", DataType::kIntSet},
       {"childrenids", DataType::kIntSet},
       {"root", DataType::kBool},
       {"schema_id", DataType::kInt}},
      "id")));
  // Table 1-C.
  SCD_RETURN_IF_ERROR(create_if_missing(TableSchema(
      keyspace_, kCellCf,
      {{"id", DataType::kInt},
       {"key", DataType::kText},
       {"measure", DataType::kInt},
       {"parentnode", DataType::kInt},
       {"pointernode", DataType::kInt},
       {"leaf", DataType::kBool},
       {"schema_id", DataType::kInt},
       {"dimension_table_name", DataType::kText}},
      "id")));
  // Metadata extension (see stored_cube.h).
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

Result<int64_t> NoSqlDwarfMapper::NextId(const std::string& table,
                                         size_t id_column) const {
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> t,
                       static_cast<const nosql::Database*>(db_)->GetTable(
                           keyspace_, table));
  int64_t max_id = -1;
  for (const Row* row : t->ScanAll()) {
    SCD_ASSIGN_OR_RETURN(int64_t id, (*row)[id_column].AsInt());
    max_id = std::max(max_id, id);
  }
  return max_id + 1;
}

Result<int64_t> NoSqlDwarfMapper::Store(const dwarf::DwarfCube& cube,
                                        NoSqlDwarfMapperOptions options,
                                        NoSqlStoreStats* stats) {
  SCD_RETURN_IF_ERROR(EnsureSchema());
  SCD_RETURN_IF_ERROR(ValidateNoReservedKeys(cube));
  // §4: "The id field is obtained by querying the DWARF_Schema column
  // family ... to determine the next id to be used." Node/cell ids likewise
  // continue after existing rows so several cubes share the families.
  SCD_ASSIGN_OR_RETURN(int64_t schema_id, NextId(kSchemaCf, 0));
  SCD_ASSIGN_OR_RETURN(int64_t node_base, NextId(kNodeCf, 0));
  SCD_ASSIGN_OR_RETURN(int64_t cell_base, NextId(kCellCf, 0));
  SCD_ASSIGN_OR_RETURN(int64_t meta_base, NextId(kMetaCf, 0));

  CubeIdMap ids;
  dwarf::ParentIds parents;
  {
    trace::ScopedSpan span("mapper.assign_ids");
    ids = AssignIds(cube, node_base, cell_base);
    parents = dwarf::ComputeParentIds(cube);
  }

  NoSqlStoreStats local_stats;

  const std::vector<std::string> kSchemaCols = {
      "id", "node_count", "cell_count", "size_as_mb", "entry_node_id",
      "is_cube"};
  const std::vector<std::string> kNodeCols = {"id", "parentids", "childrenids",
                                              "root", "schema_id"};
  const std::vector<std::string> kCellCols = {
      "id",   "key",       "measure", "parentnode", "pointernode",
      "leaf", "schema_id", "dimension_table_name"};

  // §4 / Fig. 3 statement mode: render each row as a textual CQL INSERT and
  // execute it; bulk mode applies each generated chunk as one mutation
  // batch per column family.
  auto insert_cql = [this, &local_stats](const std::string& table,
                                         const std::vector<std::string>& cols,
                                         const Row& row) -> Status {
    std::string stmt = "INSERT INTO " + keyspace_ + "." + table + " (";
    stmt += StrJoin(cols, ",");
    stmt += ") VALUES (";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) stmt += ",";
      stmt += row[i].ToCqlLiteral();
    }
    stmt += ")";
    ++local_stats.statements;
    return nosql::ExecuteCql(db_, stmt).status();
  };

  // Every node contributes one node row, and one cell row per cell plus its
  // ALL cell, each of which AssignIds numbered.
  local_stats.node_rows = ids.visit_order.size();
  local_stats.cell_rows = static_cast<uint64_t>(ids.next_cell_id - cell_base);
  Row schema_row = {Value::Int(schema_id),
                    Value::Int(static_cast<int64_t>(local_stats.node_rows)),
                    Value::Int(static_cast<int64_t>(local_stats.cell_rows)),
                    Value::Int(0),  // size_as_mb updated after flush
                    cube.empty() ? Value::Null()
                                 : Value::Int(ids.node_ids[cube.root()]),
                    Value::Bool(options.is_derived_cube)};
  if (options.via_cql_statements) {
    SCD_RETURN_IF_ERROR(insert_cql(kSchemaCf, kSchemaCols, schema_row));
  } else {
    SCD_RETURN_IF_ERROR(db_->BulkInsert(keyspace_, kSchemaCf, {schema_row}));
  }

  // Node and cell rows go through the one store path (store_rows.h): every
  // chunk becomes one BulkInsert per column family, on that family's lane.
  auto generate = [&](size_t begin, size_t end) {
    std::vector<Rows> out(2);
    std::vector<Row>& node_rows = out[0];
    std::vector<Row>& cell_rows = out[1];
    node_rows.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      dwarf::NodeId node_id = ids.visit_order[i];
      const dwarf::NodeView node = cube.node(node_id);
      bool leaf = cube.IsLeafLevel(node.level);
      const std::string& dim_table =
          cube.schema().dimensions()[node.level].dimension_table;

      // DWARF_Node row. Its children are its cells and its ALL cell, which
      // AssignIds numbered consecutively from first_cell.
      const int64_t first_cell = ids.first_cell_id[node_id];
      const std::span<const dwarf::NodeId> node_parents = parents.of(node_id);
      std::vector<int64_t> parent_ids;
      parent_ids.reserve(node_parents.size());
      for (dwarf::NodeId parent : node_parents) {
        parent_ids.push_back(ids.node_ids[parent]);
      }
      std::vector<int64_t> children_ids(node.cells.size() + 1);
      std::iota(children_ids.begin(), children_ids.end(), first_cell);
      node_rows.push_back({Value::Int(ids.node_ids[node_id]),
                           Value::IntSet(std::move(parent_ids)),
                           Value::IntSet(std::move(children_ids)),
                           Value::Bool(node_id == cube.root()),
                           Value::Int(schema_id)});

      // Regular cells.
      for (size_t c = 0; c < node.cells.size(); ++c) {
        const dwarf::DwarfCell& cell = node.cells[c];
        const std::string& key =
            cube.dictionary(node.level).DecodeUnchecked(cell.key);
        cell_rows.push_back(
            {Value::Int(first_cell + static_cast<int64_t>(c)),
             Value::Text(key),
             Value::Int(leaf ? cell.measure : 0),
             Value::Int(ids.node_ids[node_id]),
             leaf ? Value::Null() : Value::Int(ids.node_ids[cell.child]),
             Value::Bool(leaf), Value::Int(schema_id), Value::Text(dim_table)});
      }
      // ALL cell (reserved key, see id_map.h).
      cell_rows.push_back(
          {Value::Int(first_cell + static_cast<int64_t>(node.cells.size())),
           Value::Text(kAllCellKey), Value::Int(leaf ? node.all_measure : 0),
           Value::Int(ids.node_ids[node_id]),
           leaf ? Value::Null() : Value::Int(ids.node_ids[node.all_child]),
           Value::Bool(leaf), Value::Int(schema_id), Value::Text(dim_table)});
    }
    return out;
  };
  auto apply = [&](const std::string& table, std::vector<Row> rows) -> Status {
    if (!options.via_cql_statements) {
      return db_->BulkInsert(keyspace_, table, std::move(rows));
    }
    const std::vector<std::string>& cols =
        table == kNodeCf ? kNodeCols : kCellCols;
    for (const Row& row : rows) {
      SCD_RETURN_IF_ERROR(insert_cql(table, cols, row));
    }
    return Status::OK();
  };
  // Both families' row counts are known: reserving each once means no
  // chunk's insert grows a row array or rehashes a primary index.
  SCD_RETURN_IF_ERROR(db_->Reserve(keyspace_, kNodeCf, local_stats.node_rows));
  SCD_RETURN_IF_ERROR(db_->Reserve(keyspace_, kCellCf, local_stats.cell_rows));
  Stopwatch apply_watch;
  // Statement mode stays serial: it exists to measure per-statement cost.
  SCD_RETURN_IF_ERROR(StoreRows(
      options.via_cql_statements ? 1 : options.num_threads,
      ids.visit_order.size(), {kNodeCf, kCellCf}, /*rows_per_insert=*/1,
      generate, apply));
  local_stats.apply_ms = apply_watch.ElapsedMillis();

  // Metadata extension rows.
  std::vector<Row> meta_rows;
  for (const MetaRow& row : MetaToRows(CubeMeta::FromSchema(cube.schema()))) {
    meta_rows.push_back({Value::Int(meta_base++), Value::Int(schema_id),
                         Value::Text(row.kind), Value::Int(row.idx),
                         Value::Text(row.value)});
  }
  SCD_RETURN_IF_ERROR(db_->BulkInsert(keyspace_, kMetaCf, std::move(meta_rows)));

  // §4: "when all column families have been populated, the NoSQL store is
  // queried to determine the size of the DWARF structure and the size_as_mb
  // field ... is updated."
  Stopwatch flush_watch;
  SCD_RETURN_IF_ERROR(db_->Flush());
  local_stats.flush_ms = flush_watch.ElapsedMillis();
  SCD_ASSIGN_OR_RETURN(uint64_t disk_bytes, db_->DiskSizeBytes());
  uint64_t size_bytes = db_->data_dir().empty() ? db_->EstimateBytes()
                                                : disk_bytes;
  schema_row[3] = Value::Int(static_cast<int64_t>(size_bytes >> 20));
  SCD_RETURN_IF_ERROR(db_->Insert(keyspace_, kSchemaCf, schema_row));

  if (stats != nullptr) *stats = local_stats;
  return schema_id;
}

Result<dwarf::DwarfCube> NoSqlDwarfMapper::Load(int64_t schema_id) const {
  const nosql::Database* db = db_;
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> schema_cf,
                       db->GetTable(keyspace_, kSchemaCf));
  SCD_ASSIGN_OR_RETURN(const Row* schema_row,
                       schema_cf->GetByPk(Value::Int(schema_id)));

  StoredCube stored;
  if ((*schema_row)[4].is_null()) {
    stored.entry_node_id = -1;
  } else {
    SCD_ASSIGN_OR_RETURN(stored.entry_node_id, (*schema_row)[4].AsInt());
  }

  // Metadata.
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> meta_cf, db->GetTable(keyspace_, kMetaCf));
  std::vector<MetaRow> meta_rows;
  SCD_ASSIGN_OR_RETURN(
      std::vector<const Row*> meta_matches,
      meta_cf->SelectEq("cube_id", Value::Int(schema_id),
                        /*allow_filtering=*/true));
  for (const Row* row : meta_matches) {
    MetaRow meta;
    SCD_ASSIGN_OR_RETURN(meta.kind, (*row)[2].AsText());
    SCD_ASSIGN_OR_RETURN(meta.idx, (*row)[3].AsInt());
    SCD_ASSIGN_OR_RETURN(meta.value, (*row)[4].AsText());
    meta_rows.push_back(std::move(meta));
  }
  SCD_ASSIGN_OR_RETURN(stored.meta, MetaFromRows(meta_rows));

  // Cells. (Node rows are redundant for reconstruction — the paper's
  // NoSQL-Min schema demonstrates exactly that — but their ids validate.)
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> cell_cf, db->GetTable(keyspace_, kCellCf));
  SCD_ASSIGN_OR_RETURN(
      std::vector<const Row*> cell_matches,
      cell_cf->SelectEq("schema_id", Value::Int(schema_id),
                        /*allow_filtering=*/true));
  stored.cells.reserve(cell_matches.size());
  for (const Row* row : cell_matches) {
    StoredCell cell;
    SCD_ASSIGN_OR_RETURN(cell.id, (*row)[0].AsInt());
    SCD_ASSIGN_OR_RETURN(cell.key, (*row)[1].AsText());
    SCD_ASSIGN_OR_RETURN(cell.measure, (*row)[2].AsInt());
    SCD_ASSIGN_OR_RETURN(cell.parent_node, (*row)[3].AsInt());
    if ((*row)[4].is_null()) {
      cell.pointer_node = -1;
    } else {
      SCD_ASSIGN_OR_RETURN(cell.pointer_node, (*row)[4].AsInt());
    }
    SCD_ASSIGN_OR_RETURN(cell.leaf, (*row)[5].AsBool());
    stored.cells.push_back(std::move(cell));
  }
  return RebuildCube(stored);
}

Result<bool> NoSqlDwarfMapper::IsDerivedCube(int64_t schema_id) const {
  const nosql::Database* db = db_;
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> schema_cf,
                       db->GetTable(keyspace_, kSchemaCf));
  SCD_ASSIGN_OR_RETURN(const Row* row, schema_cf->GetByPk(Value::Int(schema_id)));
  return (*row)[5].AsBool();
}

Status NoSqlDwarfMapper::DeleteCube(int64_t schema_id) {
  const nosql::Database* db = db_;
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> schema_cf,
                       db->GetTable(keyspace_, kSchemaCf));
  SCD_RETURN_IF_ERROR(schema_cf->GetByPk(Value::Int(schema_id)).status());

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
  SCD_RETURN_IF_ERROR(delete_matching(kCellCf, "schema_id", schema_id));
  SCD_RETURN_IF_ERROR(delete_matching(kNodeCf, "schema_id", schema_id));
  SCD_RETURN_IF_ERROR(delete_matching(kMetaCf, "cube_id", schema_id));
  return db_->Delete(keyspace_, kSchemaCf, Value::Int(schema_id));
}

Result<std::vector<int64_t>> NoSqlDwarfMapper::ListSchemas() const {
  const nosql::Database* db = db_;
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> schema_cf,
                       db->GetTable(keyspace_, kSchemaCf));
  std::vector<int64_t> ids;
  for (const Row* row : schema_cf->ScanAll()) {
    SCD_ASSIGN_OR_RETURN(int64_t id, (*row)[0].AsInt());
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace scdwarf::mapper
