/// \file store_scope.h
/// \brief The steps all four mappers share, written once for both engines:
/// create the tables if missing, next id, the metadata rows, delete by cube
/// id and the size record. A StoreScope is the keyspace of a
/// nosql::Database or the database of a sql::SqlEngine that a mapper stores
/// into; the few places where the engines differ (the table-definition
/// type, the reads, which decode NoSQL rows, the load path's batches and
/// the size record) are per-engine overloads in store_scope.cc, and
/// Reserve, which only NoSQL has, one in nosql_min_mapper.cc.

#ifndef SCDWARF_MAPPER_STORE_SCOPE_H_
#define SCDWARF_MAPPER_STORE_SCOPE_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "dwarf/dwarf_cube.h"
#include "mapper/store_rows.h"
#include "mapper/stored_cube.h"
#include "nosql/database.h"
#include "sql/engine.h"

namespace scdwarf::mapper {

/// Options every mapper's Store() takes.
struct StoreOptions {
  /// Threads for row serialization: 0 = auto (SCDWARF_THREADS env override,
  /// else hardware_concurrency), 1 = serial. Rows are generated in parallel
  /// but applied in order, so the stored bytes are identical for any value.
  int num_threads = 0;
};

/// One table a mapper stores into, declared as data. Its first column is
/// the int id that keys it; \p indexes are the columns it carries a
/// secondary index on.
struct TableDecl {
  std::string name;
  std::vector<std::pair<std::string, DataType>> columns;
  std::vector<std::string> indexes = {};
};

/// The metadata table every store carries (stored_cube.h): one row per
/// (kind, idx) entry of a cube's logical schema, keyed by cube_id.
inline constexpr const char* kMetadataTable = "dwarf_metadata";

/// \brief The keyspace or database a mapper stores into, and the steps all
/// four mappers take there. Instantiated for nosql::Database and
/// sql::SqlEngine.
template <typename Engine>
class StoreScope {
 public:
  using Row = std::vector<Value>;
  using RowFn = std::function<Status(const Row& row)>;

  StoreScope(Engine* engine, std::string name)
      : engine_(engine), name_(std::move(name)) {}

  Engine* engine() const { return engine_; }
  const std::string& name() const { return name_; }

  /// Creates the scope and each of \p tables, then the metadata table, if
  /// missing, and each declared index a table lacks. FailedPrecondition,
  /// naming the table, when an existing table's columns or key differ from
  /// its declaration — before any table is created.
  Status EnsureTables(const std::vector<TableDecl>& tables) const;

  /// One past the largest id in \p table's first column; 0 when empty.
  Result<int64_t> NextId(const std::string& table) const;

  /// A copy of \p table's row keyed by \p id; NotFound when absent.
  Result<Row> GetRow(const std::string& table, int64_t id) const;

  /// Calls \p fn on every row of \p table whose \p column equals \p id,
  /// stopping at the first error.
  Status ForEachRow(const std::string& table, const std::string& column,
                    int64_t id, const RowFn& fn) const;

  /// Inserts \p rows into \p table as one batch.
  Status Insert(const std::string& table, Rows rows) const {
    return engine_->BulkInsert(name_, table, std::move(rows));
  }

  /// StoreRows (store_rows.h) into \p tables. NoSQL validates and encodes
  /// each chunk's rows on the pool thread that generated them (EncodeInsert)
  /// and its lanes only append and adopt them (ApplyInsert), one insert per
  /// chunk; SQL coalesces chunks into inserts of kSqlRowsPerInsert rows.
  Status StoreRows(int num_threads, size_t num_nodes,
                   const std::vector<std::string>& tables,
                   const GenerateRowsFn& generate) const;

  /// Appends the metadata rows of \p schema for cube \p cube_id.
  Status WriteMeta(int64_t cube_id, const dwarf::CubeSchema& schema) const;

  /// Reads the metadata rows of cube \p cube_id back.
  Result<CubeMeta> ReadMeta(int64_t cube_id) const;

  /// Deletes the cube stored under \p cube_id: the rows of each (table,
  /// column) of \p rows_by_cube, in order, whose column holds the id, then
  /// its metadata rows, then its row of \p cube_table. NotFound, deleting
  /// nothing, when \p cube_table has no row \p cube_id.
  Status DeleteCube(
      const std::string& cube_table, int64_t cube_id,
      const std::vector<std::pair<std::string, std::string>>& rows_by_cube)
      const;

  /// §4: "when all column families have been populated, the NoSQL store is
  /// queried to determine the size of the DWARF structure and the
  /// size_as_mb field ... is updated." Flushes the store, measures it and
  /// records the size of the cube whose \p cube_table row is \p cube_row:
  /// NoSQL upserts the row with its size_as_mb column (3) set, and SQL,
  /// which has no upsert, appends a size_mb metadata row. Returns the
  /// flush's milliseconds.
  Result<double> RecordSize(const std::string& cube_table, Row cube_row) const;

 private:
  Engine* engine_;
  std::string name_;
};

/// A stored node id: -1 for NULL (a leaf cell's pointer, an empty cube's
/// entry node).
inline Result<int64_t> NodeIdOrNone(const Value& value) {
  return value.is_null() ? Result<int64_t>(int64_t{-1}) : value.AsInt();
}

}  // namespace scdwarf::mapper

#endif  // SCDWARF_MAPPER_STORE_SCOPE_H_
