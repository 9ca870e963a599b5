#include "mapper/store_scope.h"

#include <algorithm>

#include "common/stopwatch.h"

namespace scdwarf::mapper {

namespace {

Status OkIfExists(Status status) {
  return status.IsAlreadyExists() ? Status::OK() : status;
}

// --- The per-engine overloads ----------------------------------------------

Status CreateScope(nosql::Database* db, const std::string& keyspace) {
  return db->CreateKeyspace(keyspace);
}
Status CreateScope(sql::SqlEngine* engine, const std::string& database) {
  return engine->CreateDatabase(database);
}

nosql::TableSchema TableDef(const nosql::Database*, const std::string& keyspace,
                            const TableDecl& decl) {
  std::vector<nosql::ColumnDef> columns;
  for (const auto& [name, type] : decl.columns) {
    columns.emplace_back(name, type);
  }
  return nosql::TableSchema(keyspace, decl.name, std::move(columns),
                            decl.columns[0].first);
}
/// SQL's id column, the first, is NOT NULL.
sql::SqlTableDef TableDef(const sql::SqlEngine*, const std::string& database,
                          const TableDecl& decl) {
  std::vector<sql::SqlColumn> columns;
  for (const auto& [name, type] : decl.columns) {
    columns.emplace_back(name, type, /*nullable=*/!columns.empty());
  }
  return sql::SqlTableDef(database, decl.name, std::move(columns),
                          decl.columns[0].first);
}

const nosql::TableSchema& DefOf(const nosql::Table& table) {
  return table.schema();
}
const sql::SqlTableDef& DefOf(const sql::HeapTable& table) {
  return table.def();
}

/// Every row's id, its first column. A NoSQL table decodes only that
/// column.
std::vector<Value> Ids(const nosql::Table& table) {
  return table.ScanColumn(0);
}
std::vector<Value> Ids(const sql::HeapTable& table) {
  std::vector<Value> ids;
  for (const sql::SqlRow* row : table.ScanAll()) ids.push_back((*row)[0]);
  return ids;
}

/// The row keyed by \p key: decoded (NoSQL) or copied (SQL).
Result<std::vector<Value>> RowByKey(const nosql::Table& table,
                                    const Value& key) {
  return table.GetByPk(key);
}
Result<std::vector<Value>> RowByKey(const sql::HeapTable& table,
                                    const Value& key) {
  SCD_ASSIGN_OR_RETURN(const sql::SqlRow* row, table.GetByPk(key));
  return *row;
}

/// Calls \p fn on each row whose \p column equals \p value. Cassandra
/// filters a non-indexed column only when told to; MySQL always may.
Status ForEachEq(const nosql::Table& table, const std::string& column,
                 const Value& value,
                 const std::function<Status(const std::vector<Value>&)>& fn) {
  return table.SelectEq(column, value, /*allow_filtering=*/true, fn);
}
Status ForEachEq(const sql::HeapTable& table, const std::string& column,
                 const Value& value,
                 const std::function<Status(const std::vector<Value>&)>& fn) {
  SCD_ASSIGN_OR_RETURN(std::vector<const sql::SqlRow*> rows,
                       table.SelectEq(column, value));
  for (const sql::SqlRow* row : rows) SCD_RETURN_IF_ERROR(fn(*row));
  return Status::OK();
}

/// NoSQL validates and encodes each chunk's rows on the pool thread that
/// generated them, and its lanes only append and adopt; every chunk is one
/// insert, as the store never fsyncs on insert.
Status StoreRowsInto(const StoreScope<nosql::Database>& scope,
                     int num_threads, size_t num_nodes,
                     const std::vector<std::string>& tables,
                     const GenerateRowsFn& generate) {
  nosql::Database* db = scope.engine();
  return StoreRows<nosql::InsertBatch>(
      num_threads, num_nodes, tables, generate,
      {.prepare = [&](const std::string& table, Rows rows) {
         return db->EncodeInsert(scope.name(), table, rows);
       },
       .apply =
           [db](const std::string&, std::vector<nosql::InsertBatch> batches) {
             for (nosql::InsertBatch& batch : batches) {
               SCD_RETURN_IF_ERROR(db->ApplyInsert(std::move(batch)));
             }
             return Status::OK();
           }});
}
/// SQL coalesces chunks into inserts of kSqlRowsPerInsert rows
/// (store_rows.h).
Status StoreRowsInto(const StoreScope<sql::SqlEngine>& scope, int num_threads,
                     size_t num_nodes, const std::vector<std::string>& tables,
                     const GenerateRowsFn& generate) {
  return StoreRows(num_threads, num_nodes, tables, kSqlRowsPerInsert, generate,
                   [&scope](const std::string& table, Rows rows) {
                     return scope.Insert(table, std::move(rows));
                   });
}

/// NoSQL upserts the cube row with its size_as_mb column set.
Status WriteSize(const StoreScope<nosql::Database>& scope,
                 const std::string& cube_table, std::vector<Value> cube_row,
                 int64_t size_mb) {
  cube_row[3] = Value::Int(size_mb);
  return scope.Insert(cube_table, {std::move(cube_row)});
}
/// SQL has no upsert, and the engine rejects a second row of the cube's
/// key, so the size goes into a size_mb metadata row next to the cube's
/// logical schema.
Status WriteSize(const StoreScope<sql::SqlEngine>& scope, const std::string&,
                 std::vector<Value> cube_row, int64_t size_mb) {
  SCD_ASSIGN_OR_RETURN(int64_t id, scope.NextId(kMetadataTable));
  return scope.Insert(kMetadataTable,
                      {{Value::Int(id), cube_row[0], Value::Text("size_mb"),
                        Value::Int(0), Value::Text(std::to_string(size_mb))}});
}

}  // namespace

// --- The shared steps -------------------------------------------------------

template <typename Engine>
Status StoreScope<Engine>::EnsureTables(
    const std::vector<TableDecl>& tables) const {
  SCD_RETURN_IF_ERROR(OkIfExists(CreateScope(engine_, name_)));
  std::vector<TableDecl> all = tables;
  all.push_back({kMetadataTable,
                 {{"id", DataType::kInt},
                  {"cube_id", DataType::kInt},
                  {"kind", DataType::kText},
                  {"idx", DataType::kInt},
                  {"value", DataType::kText}}});
  // Every existing table is checked before any table is created, so a
  // refused store leaves the scope as it found it.
  for (const TableDecl& decl : all) {
    auto table = engine_->GetTable(name_, decl.name);
    if (!table.ok()) continue;  // not created yet
    const auto def = TableDef(engine_, name_, decl);
    const auto& existing = DefOf(**table);
    if (existing.columns() != def.columns() ||
        existing.primary_key() != def.primary_key()) {
      return Status::FailedPrecondition(
          "table " + def.QualifiedName() +
          " exists with other columns or another key than this schema "
          "declares");
    }
  }
  for (const TableDecl& decl : all) {
    SCD_RETURN_IF_ERROR(
        OkIfExists(engine_->CreateTable(TableDef(engine_, name_, decl))));
    // An existing table may lack its indexes: its creation may have been
    // the last step before a crash, or a store without them made it.
    for (const std::string& column : decl.indexes) {
      SCD_RETURN_IF_ERROR(
          OkIfExists(engine_->CreateIndex(name_, decl.name, column)));
    }
  }
  return Status::OK();
}

template <typename Engine>
Result<int64_t> StoreScope<Engine>::NextId(const std::string& table) const {
  SCD_ASSIGN_OR_RETURN(auto t, engine_->GetTable(name_, table));
  int64_t max_id = -1;
  for (const Value& value : Ids(*t)) {
    SCD_ASSIGN_OR_RETURN(int64_t id, value.AsInt());
    max_id = std::max(max_id, id);
  }
  return max_id + 1;
}

template <typename Engine>
Result<typename StoreScope<Engine>::Row> StoreScope<Engine>::GetRow(
    const std::string& table, int64_t id) const {
  SCD_ASSIGN_OR_RETURN(auto t, engine_->GetTable(name_, table));
  return RowByKey(*t, Value::Int(id));
}

template <typename Engine>
Status StoreScope<Engine>::ForEachRow(const std::string& table,
                                      const std::string& column, int64_t id,
                                      const RowFn& fn) const {
  SCD_ASSIGN_OR_RETURN(auto t, engine_->GetTable(name_, table));
  return ForEachEq(*t, column, Value::Int(id), fn);
}

template <typename Engine>
Status StoreScope<Engine>::StoreRows(int num_threads, size_t num_nodes,
                                     const std::vector<std::string>& tables,
                                     const GenerateRowsFn& generate) const {
  return StoreRowsInto(*this, num_threads, num_nodes, tables, generate);
}

template <typename Engine>
Status StoreScope<Engine>::WriteMeta(int64_t cube_id,
                                     const dwarf::CubeSchema& schema) const {
  SCD_ASSIGN_OR_RETURN(int64_t id, NextId(kMetadataTable));
  Rows rows;
  for (const MetaRow& row : MetaToRows(CubeMeta::FromSchema(schema))) {
    rows.push_back({Value::Int(id++), Value::Int(cube_id),
                    Value::Text(row.kind), Value::Int(row.idx),
                    Value::Text(row.value)});
  }
  return Insert(kMetadataTable, std::move(rows));
}

template <typename Engine>
Result<CubeMeta> StoreScope<Engine>::ReadMeta(int64_t cube_id) const {
  std::vector<MetaRow> rows;
  SCD_RETURN_IF_ERROR(ForEachRow(
      kMetadataTable, "cube_id", cube_id, [&rows](const Row& row) -> Status {
        MetaRow meta;
        SCD_ASSIGN_OR_RETURN(meta.kind, row[2].AsText());
        if (meta.kind == "size_mb") return Status::OK();  // SQL's size record
        SCD_ASSIGN_OR_RETURN(meta.idx, row[3].AsInt());
        SCD_ASSIGN_OR_RETURN(meta.value, row[4].AsText());
        rows.push_back(std::move(meta));
        return Status::OK();
      }));
  return MetaFromRows(rows);
}

template <typename Engine>
Status StoreScope<Engine>::DeleteCube(
    const std::string& cube_table, int64_t cube_id,
    const std::vector<std::pair<std::string, std::string>>& rows_by_cube)
    const {
  SCD_RETURN_IF_ERROR(GetRow(cube_table, cube_id).status());
  std::vector<std::pair<std::string, std::string>> tables = rows_by_cube;
  tables.emplace_back(kMetadataTable, "cube_id");
  for (const auto& [table, column] : tables) {
    std::vector<Value> keys;
    SCD_RETURN_IF_ERROR(
        ForEachRow(table, column, cube_id, [&keys](const Row& row) {
          keys.push_back(row[0]);
          return Status::OK();
        }));
    SCD_RETURN_IF_ERROR(engine_->BulkDelete(name_, table, keys));
  }
  return engine_->Delete(name_, cube_table, Value::Int(cube_id));
}

template <typename Engine>
Result<double> StoreScope<Engine>::RecordSize(const std::string& cube_table,
                                              Row cube_row) const {
  Stopwatch flush_watch;
  SCD_RETURN_IF_ERROR(engine_->Flush());
  const double flush_ms = flush_watch.ElapsedMillis();
  SCD_ASSIGN_OR_RETURN(uint64_t disk_bytes, engine_->DiskSizeBytes());
  const uint64_t size_bytes =
      engine_->data_dir().empty() ? engine_->EstimateBytes() : disk_bytes;
  SCD_RETURN_IF_ERROR(WriteSize(*this, cube_table, std::move(cube_row),
                                static_cast<int64_t>(size_bytes >> 20)));
  return flush_ms;
}

template class StoreScope<nosql::Database>;
template class StoreScope<sql::SqlEngine>;

}  // namespace scdwarf::mapper
