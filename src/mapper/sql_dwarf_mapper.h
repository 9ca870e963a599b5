/// \file sql_dwarf_mapper.h
/// \brief The MySQL-DWARF comparison schema (Fig. 4): a fully relational
/// DWARF with DWARF_CUBE, DWARF_NODE, DWARF_CELL plus the NODE_CHILDREN and
/// CELL_CHILDREN join tables. "Nodes can contain multiple cells and multiple
/// cells can point to the same node" — relations MySQL cannot store in a set
/// column, so every node-cell and cell-node edge becomes its own row; that
/// row explosion is what Table 4 measures.

#ifndef SCDWARF_MAPPER_SQL_DWARF_MAPPER_H_
#define SCDWARF_MAPPER_SQL_DWARF_MAPPER_H_

#include <string>

#include "dwarf/dwarf_cube.h"
#include "mapper/store_scope.h"
#include "sql/engine.h"

namespace scdwarf::mapper {

/// \brief Row counters reported by a Store() call.
struct SqlDwarfStoreStats {
  uint64_t node_rows = 0;
  uint64_t cell_rows = 0;
  uint64_t node_children_rows = 0;
  uint64_t cell_children_rows = 0;
};

/// \brief DWARF <-> MySQL-DWARF (Fig. 4) mapping.
class SqlDwarfMapper {
 public:
  SqlDwarfMapper(sql::SqlEngine* engine, std::string database)
      : scope_(engine, std::move(database)) {}

  /// Creates the five Fig. 4 tables (plus metadata) if missing (EnsureTables).
  Status EnsureSchema();

  /// Stores \p cube; returns its DWARF_CUBE id. Edge-table ids come from
  /// per-chunk prefix counts, so the stored bytes are identical at any
  /// thread count.
  Result<int64_t> Store(const dwarf::DwarfCube& cube, StoreOptions options = {},
                        SqlDwarfStoreStats* stats = nullptr);

  Result<dwarf::DwarfCube> Load(int64_t cube_id) const;

  /// Removes every row of the stored cube across all five tables.
  Status DeleteCube(int64_t cube_id);

  static constexpr const char* kCubeTable = "dwarf_cube";
  static constexpr const char* kNodeTable = "dwarf_node";
  static constexpr const char* kCellTable = "dwarf_cell";
  static constexpr const char* kNodeChildrenTable = "node_children";
  static constexpr const char* kCellChildrenTable = "cell_children";
  static constexpr const char* kMetaTable = kMetadataTable;

 private:
  StoreScope<sql::SqlEngine> scope_;
};

}  // namespace scdwarf::mapper

#endif  // SCDWARF_MAPPER_SQL_DWARF_MAPPER_H_
