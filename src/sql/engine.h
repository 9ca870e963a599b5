/// \file engine.h
/// \brief The MySQL-like engine: named databases of HeapTables, a redo log on
/// the write path, tablespace flush/reopen and disk accounting. Mirrors
/// nosql::Database so the benchmark harness can drive both stores uniformly.

#ifndef SCDWARF_SQL_ENGINE_H_
#define SCDWARF_SQL_ENGINE_H_

#include <memory>
#include <string>

#include "common/record_log.h"
#include "common/result.h"
#include "common/table_catalog.h"
#include "sql/heap_table.h"

namespace scdwarf::sql {

/// \brief A single-node relational engine.
///
/// With a data directory, every mutation batch goes to a redo log: an
/// insert batch once all its rows are applied, a delete batch before it is
/// applied. Flush() writes one tablespace file per table and truncates the
/// log, Open() reloads tablespaces then replays any unflushed log tail.
/// Databases, tables, their locks, files and redo log are the TableCatalog
/// (common/table_catalog.h) that nosql::Database uses too: a catalog change
/// — CreateDatabase, CreateTable, CreateIndex, DropTable — is on disk when
/// it returns, a re-created table never replays a dropped one's rows, and
/// a database or table name must be its own file name ([A-Za-z0-9_-]).
///
/// Concurrency: mirrors nosql::Database — mutations from different threads
/// serialize behind the catalog's fixed pool of per-table shard locks,
/// catalog changes take the catalog lock exclusively, and redo-log appends
/// serialize behind the log's own lock. Tables are shared_ptr-owned:
/// GetTable() hands out shared ownership, so a concurrent DropTable only
/// removes the catalog entry and the object outlives every user; a
/// mutation that looked the table up before the drop returns NotFound.
/// Reads concurrent with writes to the same table are not synchronized.
///
/// Durability: each mutation applies to the table and appends to the redo
/// log (a RecordLog) under one shard-lock critical section, and the append
/// is fsynced before the mutation returns, so an acknowledged mutation
/// survives a process crash and a power loss alike. Flush() is the
/// catalog's one flush (TableCatalog::Flush), one at a time: it rotates the
/// log to a sidecar under all shard locks, writes every table in turn (its
/// doublewrite copy, its tablespace, then the copy's removal), and deletes
/// the sidecar only after every tablespace, and the directories holding
/// them, are fsynced (replay tolerates duplicates).
class SqlEngine {
 public:
  /// In-memory engine.
  SqlEngine() = default;

  /// Creates or opens a durable engine rooted at \p data_dir.
  static Result<SqlEngine> Open(const std::string& data_dir);

  SqlEngine(SqlEngine&&) noexcept = default;
  SqlEngine& operator=(SqlEngine&&) noexcept = default;

  Status CreateDatabase(const std::string& name) {
    return catalog_.CreateScope(name);
  }
  bool HasDatabase(const std::string& name) const {
    return catalog_.HasScope(name);
  }

  Status CreateTable(const SqlTableDef& def);
  Status DropTable(const std::string& database, const std::string& table) {
    return catalog_.DropTable(database, table);
  }
  Status CreateIndex(const std::string& database, const std::string& table,
                     const std::string& column) {
    return catalog_.CreateIndex(database, table, column);
  }

  /// Looks up a table. The returned shared_ptr keeps the table alive even
  /// if it is concurrently dropped.
  Result<std::shared_ptr<HeapTable>> GetTable(const std::string& database,
                                              const std::string& table) {
    return catalog_.GetTable(database, table);
  }
  Result<std::shared_ptr<const HeapTable>> GetTable(
      const std::string& database, const std::string& table) const;

  /// A one-row BulkInsert.
  Status Insert(const std::string& database, const std::string& table,
                SqlRow row);

  /// Multi-row insert with one redo-log append (MySQL's bulk INSERT ...
  /// VALUES (...), (...), the mode §5 uses for both engines). All or
  /// nothing: every row is validated before the record is encoded, and the
  /// rows are applied before the record is appended, so a bad row or a
  /// duplicate key rejects the whole batch and logs nothing.
  Status BulkInsert(const std::string& database, const std::string& table,
                    std::vector<SqlRow> rows);

  /// Deletes one row by primary key (redo-logged like inserts).
  Status Delete(const std::string& database, const std::string& table,
                const Value& key);

  /// Deletes many rows by primary key with one redo-log append.
  Status BulkDelete(const std::string& database, const std::string& table,
                    const std::vector<Value>& keys) {
    return catalog_.DeleteRows(database, table, keys);
  }

  /// Writes every table's tablespace and truncates the redo log; in memory,
  /// commits each table's open transaction and writes nothing.
  Status Flush();
  Result<uint64_t> DiskSizeBytes() const { return catalog_.DiskBytes(); }
  uint64_t EstimateBytes() const {
    return catalog_.SumTables(&HeapTable::EstimateTablespaceBytes);
  }
  Result<std::vector<std::string>> ListTables(
      const std::string& database) const {
    return catalog_.ListTables(database);
  }

  const std::string& data_dir() const { return catalog_.data_dir(); }

 private:
  TableCatalog<HeapTable> catalog_{"database", ".tbl"};
};

}  // namespace scdwarf::sql

#endif  // SCDWARF_SQL_ENGINE_H_
