#include "mapper/nosql_dwarf_mapper.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>

#include "common/stopwatch.h"
#include "common/trace.h"
#include "mapper/id_map.h"
#include "nosql/cql.h"

namespace scdwarf::mapper {

using nosql::Row;
using nosql::Table;

namespace {

/// Table 1-A, 1-B and 1-C.
const std::vector<TableDecl>& Tables() {
  static const auto* const tables = new std::vector<TableDecl>{
      {NoSqlDwarfMapper::kSchemaCf,
       {{"id", DataType::kInt},
        {"node_count", DataType::kInt},
        {"cell_count", DataType::kInt},
        {"size_as_mb", DataType::kInt},
        {"entry_node_id", DataType::kInt},
        {"is_cube", DataType::kBool}}},
      {NoSqlDwarfMapper::kNodeCf,
       {{"id", DataType::kInt},
        {"parentids", DataType::kIntSet},
        {"childrenids", DataType::kIntSet},
        {"root", DataType::kBool},
        {"schema_id", DataType::kInt}}},
      {NoSqlDwarfMapper::kCellCf,
       {{"id", DataType::kInt},
        {"key", DataType::kText},
        {"measure", DataType::kInt},
        {"parentnode", DataType::kInt},
        {"pointernode", DataType::kInt},
        {"leaf", DataType::kBool},
        {"schema_id", DataType::kInt},
        {"dimension_table_name", DataType::kText}}}};
  return *tables;
}

}  // namespace

Status NoSqlDwarfMapper::EnsureSchema() {
  return scope_.EnsureTables(Tables());
}

Result<int64_t> NoSqlDwarfMapper::Store(const dwarf::DwarfCube& cube,
                                        NoSqlDwarfMapperOptions options,
                                        NoSqlStoreStats* stats) {
  SCD_RETURN_IF_ERROR(EnsureSchema());
  SCD_RETURN_IF_ERROR(ValidateNoReservedKeys(cube));
  // §4: "The id field is obtained by querying the DWARF_Schema column
  // family ... to determine the next id to be used." Node/cell ids likewise
  // continue after existing rows so several cubes share the families.
  SCD_ASSIGN_OR_RETURN(int64_t schema_id, scope_.NextId(kSchemaCf));
  SCD_ASSIGN_OR_RETURN(int64_t node_base, scope_.NextId(kNodeCf));
  SCD_ASSIGN_OR_RETURN(int64_t cell_base, scope_.NextId(kCellCf));

  CubeIdMap ids;
  dwarf::ParentIds parents;
  {
    trace::ScopedSpan span("mapper.assign_ids");
    ids = AssignIds(cube, node_base, cell_base);
    parents = dwarf::ComputeParentIds(cube);
  }

  NoSqlStoreStats local_stats;

  // §4 / Fig. 3 statement mode: render each row as a textual CQL INSERT and
  // execute it; bulk mode applies each generated chunk as one mutation
  // batch per column family.
  auto insert_cql = [this, &local_stats](const std::string& table,
                                         const Row& row) -> Status {
    const TableDecl& decl = *std::find_if(
        Tables().begin(), Tables().end(),
        [&table](const TableDecl& t) { return t.name == table; });
    std::string stmt = "INSERT INTO " + scope_.name() + "." + table + " (";
    for (size_t i = 0; i < decl.columns.size(); ++i) {
      if (i > 0) stmt += ",";
      stmt += decl.columns[i].first;
    }
    stmt += ") VALUES (";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) stmt += ",";
      stmt += row[i].ToCqlLiteral();
    }
    stmt += ")";
    ++local_stats.statements;
    return nosql::ExecuteCql(scope_.engine(), stmt).status();
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
    SCD_RETURN_IF_ERROR(insert_cql(kSchemaCf, schema_row));
  } else {
    SCD_RETURN_IF_ERROR(scope_.Insert(kSchemaCf, {schema_row}));
  }

  // Node and cell rows go through the one store path (store_rows.h): every
  // chunk becomes one insert per column family, encoded on the pool thread
  // that generated it and applied on that family's lane.
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
      AddRow(&node_rows, Value::Int(ids.node_ids[node_id]),
             Value::IntSet(std::move(parent_ids)),
             Value::IntSet(std::move(children_ids)),
             Value::Bool(node_id == cube.root()), Value::Int(schema_id));

      // Its cells, then its ALL cell (reserved key, see id_map.h).
      ForEachStoredCell(cube, ids, node_id,
                        [&](int64_t id, const std::string& key,
                            dwarf::Measure measure, int64_t pointer_node) {
        AddRow(&cell_rows, Value::Int(id), Value::Text(key),
               Value::Int(measure), Value::Int(ids.node_ids[node_id]),
               pointer_node < 0 ? Value::Null() : Value::Int(pointer_node),
               Value::Bool(leaf), Value::Int(schema_id),
               Value::Text(dim_table));
      });
    }
    return out;
  };
  // Both families' row counts are known: reserving each once means no
  // chunk's insert grows a slot array or rehashes a primary index.
  nosql::Database* db = scope_.engine();
  const std::string& keyspace = scope_.name();
  SCD_RETURN_IF_ERROR(db->Reserve(keyspace, kNodeCf, local_stats.node_rows));
  SCD_RETURN_IF_ERROR(db->Reserve(keyspace, kCellCf, local_stats.cell_rows));
  Stopwatch apply_watch;
  if (options.via_cql_statements) {
    // Statement mode stays serial: it exists to measure per-statement cost.
    SCD_RETURN_IF_ERROR(StoreRows(
        /*num_threads=*/1, ids.visit_order.size(), {kNodeCf, kCellCf},
        /*rows_per_insert=*/1, generate,
        [&](const std::string& table, Rows rows) -> Status {
          for (const Row& row : rows) {
            SCD_RETURN_IF_ERROR(insert_cql(table, row));
          }
          return Status::OK();
        }));
  } else {
    SCD_RETURN_IF_ERROR(scope_.StoreRows(options.num_threads,
                                         ids.visit_order.size(),
                                         {kNodeCf, kCellCf}, generate));
  }
  local_stats.apply_ms = apply_watch.ElapsedMillis();

  SCD_RETURN_IF_ERROR(scope_.WriteMeta(schema_id, cube.schema()));
  SCD_ASSIGN_OR_RETURN(local_stats.flush_ms,
                       scope_.RecordSize(kSchemaCf, std::move(schema_row)));
  if (stats != nullptr) *stats = local_stats;
  return schema_id;
}

Result<dwarf::DwarfCube> NoSqlDwarfMapper::Load(int64_t schema_id) const {
  SCD_ASSIGN_OR_RETURN(Row schema_row, scope_.GetRow(kSchemaCf, schema_id));
  StoredCube stored;
  SCD_ASSIGN_OR_RETURN(stored.entry_node_id, NodeIdOrNone(schema_row[4]));
  SCD_ASSIGN_OR_RETURN(stored.meta, scope_.ReadMeta(schema_id));
  // Cells. (Node rows are redundant for reconstruction — the paper's
  // NoSQL-Min schema demonstrates exactly that — but their ids validate.)
  SCD_RETURN_IF_ERROR(scope_.ForEachRow(
      kCellCf, "schema_id", schema_id, [&stored](const Row& row) -> Status {
        StoredCell cell;
        SCD_ASSIGN_OR_RETURN(cell.id, row[0].AsInt());
        SCD_ASSIGN_OR_RETURN(cell.key, row[1].AsText());
        SCD_ASSIGN_OR_RETURN(cell.measure, row[2].AsInt());
        SCD_ASSIGN_OR_RETURN(cell.parent_node, row[3].AsInt());
        SCD_ASSIGN_OR_RETURN(cell.pointer_node, NodeIdOrNone(row[4]));
        SCD_ASSIGN_OR_RETURN(cell.leaf, row[5].AsBool());
        stored.cells.push_back(std::move(cell));
        return Status::OK();
      }));
  return RebuildCube(stored);
}

Result<bool> NoSqlDwarfMapper::IsDerivedCube(int64_t schema_id) const {
  SCD_ASSIGN_OR_RETURN(Row row, scope_.GetRow(kSchemaCf, schema_id));
  return row[5].AsBool();
}

Status NoSqlDwarfMapper::DeleteCube(int64_t schema_id) {
  return scope_.DeleteCube(kSchemaCf, schema_id,
                           {{kCellCf, "schema_id"}, {kNodeCf, "schema_id"}});
}

Result<std::vector<int64_t>> NoSqlDwarfMapper::ListSchemas() const {
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> schema_cf,
                       scope_.engine()->GetTable(scope_.name(), kSchemaCf));
  std::vector<int64_t> ids;
  for (const Value& value : schema_cf->ScanColumn(0)) {
    SCD_ASSIGN_OR_RETURN(int64_t id, value.AsInt());
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace scdwarf::mapper
