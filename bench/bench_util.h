/// \file bench_util.h
/// \brief Shared harness for the table-reproduction benchmarks: dataset cube
/// caching, the four storage-schema drivers, scratch directories and the
/// paper's reference numbers for side-by-side reporting.
///
/// Dataset selection: the environment variable SCDWARF_DATASETS may hold a
/// comma-separated subset ("Day,Week") to shorten a run; default is all five
/// Table-2 datasets.

#ifndef SCDWARF_BENCH_BENCH_UTIL_H_
#define SCDWARF_BENCH_BENCH_UTIL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "citibikes/datasets.h"
#include "dwarf/dwarf_cube.h"
#include "json/json_value.h"

namespace scdwarf::benchutil {

/// \brief One row of a BENCH_*.json "results" array: ordered field -> value
/// pairs (field order is preserved in the emitted file).
using BenchJsonRow = json::JsonObject;

/// \brief Writes the machine-readable benchmark artifact
/// {"benchmark": <name>, "results": [<rows>...]} to \p path and logs the row
/// count. Every BENCH_*.json in the repo goes through this one emitter.
Status WriteBenchJson(const std::string& path, const std::string& benchmark,
                      const std::vector<BenchJsonRow>& rows);

/// \brief Observability hook shared by every bench main. Consumes
/// --metrics-dump=PATH and --trace-dump=PATH from argv (google-benchmark's
/// Initialize would otherwise reject them as unknown flags), with the
/// SCDWARF_METRICS_DUMP / SCDWARF_TRACE_DUMP environment variables as
/// fallbacks. A trace path additionally enables span tracing (as if
/// SCDWARF_TRACE=1). When either path is set, an atexit hook writes the
/// global metric registry snapshot ({"metrics":[...]}) and/or a
/// chrome://tracing-compatible span export on process exit.
void InstallObservabilityDumps(int* argc, char** argv);

/// \brief Dataset names selected for this run (env-filtered Table 2 order).
std::vector<std::string> SelectedDatasets();

/// \brief Builds (or returns the cached) cube for a Table-2 dataset by
/// running the generated XML feed through the 8-dimension bikes pipeline.
/// Cubes are cached for the process lifetime — the expensive part of the
/// sweep is shared by every schema.
Result<std::shared_ptr<const dwarf::DwarfCube>> GetDatasetCube(
    const std::string& dataset);

/// \brief Drops a dataset cube from the cache (frees memory between the
/// sweep's datasets; the SMonth cube alone holds hundreds of MB).
void EvictDatasetCube(const std::string& dataset);

/// \brief The four §5 storage schemas.
enum class StorageSchema {
  kMySqlDwarf,
  kMySqlMin,
  kNoSqlDwarf,
  kNoSqlMin,
};
constexpr StorageSchema kAllSchemas[] = {
    StorageSchema::kMySqlDwarf, StorageSchema::kMySqlMin,
    StorageSchema::kNoSqlDwarf, StorageSchema::kNoSqlMin};

/// Paper spelling: "MySQL-DWARF", "MySQL-Min", "NoSQL-DWARF", "NoSQL-Min".
const char* SchemaName(StorageSchema schema);

/// \brief Result of storing one cube into one schema.
struct StoreRunResult {
  double insert_ms = 0;      ///< wall time of the mapper Store() call
  uint64_t disk_bytes = 0;   ///< store size on disk after flush
  uint64_t rows = 0;         ///< rows written across all tables
};

/// \brief Stores \p cube into a fresh on-disk store of \p schema under a
/// scratch directory, measures Table-4/5 quantities and removes the store.
Result<StoreRunResult> RunStore(StorageSchema schema,
                                const dwarf::DwarfCube& cube);

/// \brief Paper values for Table 4 (MB) and Table 5 (ms), keyed by schema
/// then dataset (Table-2 order). Used only for printed comparisons.
double PaperTable4Mb(StorageSchema schema, const std::string& dataset);
double PaperTable5Ms(StorageSchema schema, const std::string& dataset);

/// \brief Scratch directory for this process's bench stores (removed and
/// recreated per call site as needed).
std::string ScratchDir(const std::string& tag);

}  // namespace scdwarf::benchutil

#endif  // SCDWARF_BENCH_BENCH_UTIL_H_
