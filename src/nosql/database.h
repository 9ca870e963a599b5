/// \file database.h
/// \brief The NoSQL store: keyspaces of column families, a write path with a
/// commit log (append per mutation batch, Cassandra-style), flush to segment
/// files and reopen with commit-log replay. Disk size accounting backs the
/// paper's size_as_mb measurements (Table 4).

#ifndef SCDWARF_NOSQL_DATABASE_H_
#define SCDWARF_NOSQL_DATABASE_H_

#include <memory>
#include <string>

#include "common/record_log.h"
#include "common/result.h"
#include "common/table_catalog.h"
#include "nosql/table.h"

namespace scdwarf::nosql {

/// \brief One table's insert batch, validated and encoded once by
/// Database::EncodeInsert: the commit-log record inserting the rows, and
/// where each row's values lie in it. Database::ApplyInsert logs the record
/// and hands the same bytes to the table's memtable.
class InsertBatch {
 public:
  /// Rows in the batch.
  size_t size() const { return rows_.rows.size(); }

 private:
  friend class Database;

  std::string keyspace_;
  std::string table_name_;
  std::shared_ptr<Table> table_;  ///< the table the rows were checked against
  EncodedRows rows_;              ///< its bytes are the commit-log record
};

/// \brief A single-node columnar NoSQL database.
///
/// With a data directory, every mutation batch is appended to a commit log
/// before being applied, Flush() writes one segment file per column family,
/// and Open() reloads segments then replays any unflushed log tail. Without a
/// directory the store is purely in-memory (used by unit tests). Keyspaces,
/// column families, their locks, files and commit log are a TableCatalog
/// (common/table_catalog.h), shared with sql::SqlEngine: a catalog change —
/// CreateKeyspace, CreateTable, CreateIndex, DropTable — is on disk when it
/// returns, a re-created table never replays a dropped one's rows, and a
/// keyspace or table name must be its own file name ([A-Za-z0-9_-]).
///
/// Concurrency: mutations from different threads are safe and serialize
/// behind the catalog's fixed pool of per-table shard locks (catalog
/// changes take the catalog lock exclusively). Tables are shared_ptr-owned:
/// GetTable() hands out shared ownership, so a concurrent DropTable only
/// removes the catalog entry and the table object stays alive until the
/// last user releases it — no use-after-free. A mutation that looked its
/// table up before a drop returns NotFound and logs nothing, so no record
/// of a dropped table reaches a table re-created under its name. Reads
/// concurrent with writes to the *same* table are not synchronized;
/// callers partition work so one table has one writer at a time or accept
/// shard-lock serialization.
///
/// Durability: each mutation appends to the commit log (a RecordLog) and
/// applies to the table under one shard-lock critical section, so no
/// mutation straddles Flush()'s log rotation. Flush() is the catalog's one
/// flush (TableCatalog::Flush), one at a time: it rotates the log to a
/// sidecar under all shard locks, writes the segments of the tables
/// mutated since their last flush on up to four threads, and deletes the
/// sidecar only after every segment, and the directories holding them,
/// are fsynced. A process crash anywhere in between leaves the sidecar or
/// the live log to replay, so it loses no acknowledged mutation (inserts are
/// upserts, so re-replay is idempotent). The commit log itself is not
/// fsynced per append, as in Cassandra's periodic commit-log sync: a power
/// loss can lose the batches written since the last Flush().
class Database {
 public:
  /// In-memory database.
  Database() = default;

  /// Creates or opens a durable database rooted at \p data_dir.
  static Result<Database> Open(const std::string& data_dir);

  Status CreateKeyspace(const std::string& name) {
    return catalog_.CreateScope(name);
  }
  bool HasKeyspace(const std::string& name) const {
    return catalog_.HasScope(name);
  }

  /// Creates a column family. The keyspace must exist.
  Status CreateTable(const TableSchema& schema);
  Status DropTable(const std::string& keyspace, const std::string& table) {
    return catalog_.DropTable(keyspace, table);
  }
  Status CreateIndex(const std::string& keyspace, const std::string& table,
                     const std::string& column) {
    return catalog_.CreateIndex(keyspace, table, column);
  }

  /// Looks up a table. The returned shared_ptr keeps the table alive even
  /// if it is concurrently dropped; Database's own mutations of it then
  /// return NotFound.
  Result<std::shared_ptr<Table>> GetTable(const std::string& keyspace,
                                          const std::string& table) {
    return catalog_.GetTable(keyspace, table);
  }
  Result<std::shared_ptr<const Table>> GetTable(const std::string& keyspace,
                                                const std::string& table) const;

  /// Applies one insert, first appending it to the commit log (durable mode).
  Status Insert(const std::string& keyspace, const std::string& table, Row row);

  /// Applies many inserts into one table with a single commit-log append —
  /// the paper's "executed in a bulk process" (§4). The one write path of
  /// every insert: exactly EncodeInsert, then ApplyInsert.
  Status BulkInsert(const std::string& keyspace, const std::string& table,
                    const std::vector<Row>& rows);

  /// The first step of BulkInsert: validates each row against the table and
  /// writes it once into the batch's commit-log record. All or nothing: a
  /// batch holding one bad row is rejected whole. It takes no table lock (a
  /// table's columns never change; the look-up holds the catalog lock
  /// shared), so callers encode batches of any table on any thread,
  /// concurrently.
  Result<InsertBatch> EncodeInsert(const std::string& keyspace,
                                   const std::string& table,
                                   const std::vector<Row>& rows) const;

  /// The second step of BulkInsert: under the table's shard lock, appends
  /// \p batch's record to the commit log (durable mode) and adopts its row
  /// bytes into the table. NotFound, logging nothing, when the table was
  /// dropped or re-created since the batch was encoded.
  Status ApplyInsert(InsertBatch batch);

  /// Pre-sizes \p table's slot array and primary index for \p rows more rows
  /// (Table::ReserveAdditional, under the table's shard lock). A caller that
  /// knows a load's row count reserves once before its first insert, so no
  /// later batch moves the rows or rehashes the index; without it, capacity
  /// grows geometrically.
  Status Reserve(const std::string& keyspace, const std::string& table,
                 size_t rows);

  /// Deletes one row by primary key (logged like inserts).
  Status Delete(const std::string& keyspace, const std::string& table,
                const Value& key);

  /// Deletes many rows by primary key with one commit-log append.
  Status BulkDelete(const std::string& keyspace, const std::string& table,
                    const std::vector<Value>& keys) {
    return catalog_.DeleteRows(keyspace, table, keys);
  }

  /// Writes all column families to segment files and truncates the commit
  /// log. No-op in memory mode. Tables untouched since their last flush
  /// keep their segment. Each table's serialization and segment write run
  /// under one catalog shared-lock hold, so a racing DropTable cannot have
  /// its file removal overwritten, nor a CreateIndex its file.
  Status Flush();

  /// Bytes on disk: segment files plus commit-log tail. Zero in memory mode.
  Result<uint64_t> DiskSizeBytes() const { return catalog_.DiskBytes(); }

  /// Sum of serialized segment sizes (works in memory mode too).
  uint64_t EstimateBytes() const {
    return catalog_.SumTables(&Table::EstimateSegmentBytes);
  }

  /// Names of tables in \p keyspace.
  Result<std::vector<std::string>> ListTables(
      const std::string& keyspace) const {
    return catalog_.ListTables(keyspace);
  }

  const std::string& data_dir() const { return catalog_.data_dir(); }

 private:
  /// Threads a Flush() writes segments on. A Store() flushes two large
  /// column families (nodes and cells) and two small ones; four threads
  /// write them all at once, and each holds one segment image at a time.
  static constexpr size_t kFlushThreads = 4;

  TableCatalog<Table> catalog_{"keyspace", ".cf"};
};

}  // namespace scdwarf::nosql

#endif  // SCDWARF_NOSQL_DATABASE_H_
