/// \file nosql_min_mapper.h
/// \brief The Min layout (§5), on both engines: NoSQL-Min (Table 3) and
/// MySQL-Min, the NoSQL-Min layout "designed to test how well MySQL
/// performs using a schema without joins". Two tables, DWARF_Cube and
/// DWARF_Cell, and no node rows: cells carry their parent and child node
/// ids, so nodes "can be rebuilt at a later stage". On NoSQL that rebuild
/// needs secondary indexes on parentNodeId and childNodeId, because
/// Cassandra filters only through an index (§5.1); their maintenance cost
/// is what Table 5 blames for NoSQL-Min's slow inserts. MySQL-Min has no
/// index, and its rebuild pays for that with full scans. NoSqlMinMapper
/// (here) and SqlMinMapper (sql_min_mapper.h) name the two instantiations.

#ifndef SCDWARF_MAPPER_NOSQL_MIN_MAPPER_H_
#define SCDWARF_MAPPER_NOSQL_MIN_MAPPER_H_

#include <concepts>
#include <string>

#include "dwarf/dwarf_cube.h"
#include "mapper/store_scope.h"

namespace scdwarf::mapper {

struct NoSqlMinMapperOptions {
  /// The two secondary indexes of §5.1. Disabling them is the index-cost
  /// ablation (bench_ablations); loads then fall back to filtering scans.
  bool create_secondary_indexes = true;
};

/// \brief DWARF <-> Min schema mapping, for nosql::Database or
/// sql::SqlEngine.
template <typename Engine>
class MinMapper {
 public:
  MinMapper(Engine* engine, std::string scope)
      : scope_(engine, std::move(scope)) {}
  MinMapper(Engine* engine, std::string scope, NoSqlMinMapperOptions options)
    requires std::same_as<Engine, nosql::Database>
      : scope_(engine, std::move(scope)),
        create_secondary_indexes_(options.create_secondary_indexes) {}

  /// Creates the two tables (plus metadata) if missing (EnsureTables).
  Status EnsureSchema();

  /// Stores \p cube; returns its DWARF_Cube id.
  Result<int64_t> Store(const dwarf::DwarfCube& cube,
                        StoreOptions options = {});

  /// Rebuilds the cube stored under \p cube_id, reconstructing nodes from
  /// the parent/child ids on the cells.
  Result<dwarf::DwarfCube> Load(int64_t cube_id) const;

  /// Removes every row of the stored cube.
  Status DeleteCube(int64_t cube_id);

  static constexpr const char* kCubeTable = "dwarf_cube";
  static constexpr const char* kCellTable = "dwarf_cell";
  static constexpr const char* kMetaTable = kMetadataTable;

 private:
  StoreScope<Engine> scope_;
  bool create_secondary_indexes_ = true;
};

using NoSqlMinMapper = MinMapper<nosql::Database>;

}  // namespace scdwarf::mapper

#endif  // SCDWARF_MAPPER_NOSQL_MIN_MAPPER_H_
