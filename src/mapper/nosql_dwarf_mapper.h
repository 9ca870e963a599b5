/// \file nosql_dwarf_mapper.h
/// \brief The paper's contribution: the DWARF <-> NoSQL bidirectional mapper
/// (§3-§4). Stores a cube into the DWARF_Schema / DWARF_Node / DWARF_Cell
/// column families of Table 1 and rebuilds it from them.

#ifndef SCDWARF_MAPPER_NOSQL_DWARF_MAPPER_H_
#define SCDWARF_MAPPER_NOSQL_DWARF_MAPPER_H_

#include <string>

#include "dwarf/dwarf_cube.h"
#include "mapper/store_scope.h"
#include "nosql/database.h"

namespace scdwarf::mapper {

/// \brief Counters reported by a Store() call.
struct NoSqlStoreStats {
  uint64_t node_rows = 0;
  uint64_t cell_rows = 0;
  uint64_t statements = 0;  ///< CQL statements executed (statement mode only)
  double apply_ms = 0;  ///< row generation + application (chunks and lanes)
  double flush_ms = 0;  ///< the Flush() at the end of Store()
};

/// \brief Mapper options.
struct NoSqlDwarfMapperOptions {
  /// Marks the stored record as a derived cube rather than a full DWARF
  /// schema — Table 1-A's is_cube flag ("whether or not this particular
  /// record is a full DWARF Schema or a DWARF cube constructed from querying
  /// a DWARF schema"). Store sub-cubes from dwarf::MaterializeSubCube with
  /// this set.
  bool is_derived_cube = false;

  /// When true, the transformation emits textual CQL INSERT statements (as
  /// §4 / Fig. 3 describe) and executes them through the CQL layer one by
  /// one. When false (default), it builds rows directly and applies them in
  /// bulk mutation batches — same data, no per-row parse; the bulk-vs-
  /// statement ablation bench measures the difference.
  bool via_cql_statements = false;

  /// Threads for row serialization, as StoreOptions::num_threads (every
  /// mapper's Store() takes it so). Ignored (serial) in statement mode.
  int num_threads = 0;
};

/// \brief DWARF <-> NoSQL-DWARF schema mapping.
class NoSqlDwarfMapper {
 public:
  NoSqlDwarfMapper(nosql::Database* db, std::string keyspace)
      : scope_(db, std::move(keyspace)) {}

  /// Creates the keyspace and the column families of Table 1 (plus the
  /// dwarf_metadata extension) if missing (EnsureTables).
  Status EnsureSchema();

  /// Stores \p cube; returns its DWARF_Schema id. Follows §4: next-id query,
  /// full traversal with the visited lookup table, bulk insert, then a
  /// size_as_mb update after the store is flushed.
  Result<int64_t> Store(const dwarf::DwarfCube& cube,
                        NoSqlDwarfMapperOptions options = {},
                        NoSqlStoreStats* stats = nullptr);

  /// Rebuilds the cube stored under \p schema_id.
  Result<dwarf::DwarfCube> Load(int64_t schema_id) const;

  /// Removes every row of the cube stored under \p schema_id (cells, nodes,
  /// metadata and the schema row) — replacing a stale version after a cube
  /// update. NotFound when the schema id does not exist.
  Status DeleteCube(int64_t schema_id);

  /// Lists the stored schema ids.
  Result<std::vector<int64_t>> ListSchemas() const;

  /// True when the stored record was written as a derived cube
  /// (Table 1-A's is_cube flag).
  Result<bool> IsDerivedCube(int64_t schema_id) const;

  /// Table-1 column family names.
  static constexpr const char* kSchemaCf = "dwarf_schema";
  static constexpr const char* kNodeCf = "dwarf_node";
  static constexpr const char* kCellCf = "dwarf_cell";
  static constexpr const char* kMetaCf = kMetadataTable;

 private:
  StoreScope<nosql::Database> scope_;
};

}  // namespace scdwarf::mapper

#endif  // SCDWARF_MAPPER_NOSQL_DWARF_MAPPER_H_
