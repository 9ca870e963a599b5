#include "bench_util.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "citibikes/bike_feed.h"
#include "json/json_parser.h"
#include "common/files.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/trace.h"
#include "etl/parallel_pipeline.h"
#include "mapper/nosql_dwarf_mapper.h"
#include "mapper/nosql_min_mapper.h"
#include "mapper/sql_dwarf_mapper.h"
#include "mapper/sql_min_mapper.h"

namespace scdwarf::benchutil {

namespace fs = std::filesystem;

namespace {

std::string g_metrics_dump_path;
std::string g_trace_dump_path;

void WriteObservabilityDumps() {
  if (!g_metrics_dump_path.empty()) {
    std::string json =
        "{\"metrics\":" +
        metrics::SnapshotToJson(metrics::GlobalRegistry().Snapshot()) + "}\n";
    if (WriteFileAtomic(g_metrics_dump_path, json).ok()) {
      std::fprintf(stderr, "metrics snapshot written to %s\n",
                   g_metrics_dump_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write metrics snapshot to %s\n",
                   g_metrics_dump_path.c_str());
    }
  }
  if (!g_trace_dump_path.empty()) {
    if (WriteFileAtomic(g_trace_dump_path, trace::ExportChromeJson()).ok()) {
      std::fprintf(stderr, "trace written to %s (load via chrome://tracing)\n",
                   g_trace_dump_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   g_trace_dump_path.c_str());
    }
  }
}

}  // namespace

void InstallObservabilityDumps(int* argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--metrics-dump=", 0) == 0) {
      g_metrics_dump_path = arg.substr(15);
    } else if (arg.rfind("--trace-dump=", 0) == 0) {
      g_trace_dump_path = arg.substr(13);
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  if (g_metrics_dump_path.empty()) {
    if (const char* env = std::getenv("SCDWARF_METRICS_DUMP")) {
      g_metrics_dump_path = env;
    }
  }
  if (g_trace_dump_path.empty()) {
    if (const char* env = std::getenv("SCDWARF_TRACE_DUMP")) {
      g_trace_dump_path = env;
    }
  }
  if (!g_trace_dump_path.empty()) trace::SetEnabled(true);
  if (!g_metrics_dump_path.empty() || !g_trace_dump_path.empty()) {
    std::atexit(WriteObservabilityDumps);
  }
}

Status WriteBenchJson(const std::string& path, const std::string& benchmark,
                      const std::vector<BenchJsonRow>& rows) {
  json::JsonArray results;
  results.reserve(rows.size());
  for (const BenchJsonRow& row : rows) {
    results.push_back(json::JsonValue(row));
  }
  json::JsonObject root;
  root.emplace_back("benchmark", json::JsonValue(benchmark));
  root.emplace_back("results", json::JsonValue(std::move(results)));
  std::string text =
      json::SerializeJson(json::JsonValue(std::move(root)), /*pretty=*/true);
  text += "\n";
  SCD_RETURN_IF_ERROR(WriteFileAtomic(path, text));
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
  return Status::OK();
}

std::vector<std::string> SelectedDatasets() {
  std::vector<std::string> all;
  for (const citibikes::DatasetSpec& dataset : citibikes::Table2Datasets()) {
    all.push_back(dataset.name);
  }
  const char* env = std::getenv("SCDWARF_DATASETS");
  if (env == nullptr || std::string(env).empty() ||
      EqualsIgnoreCase(env, "all")) {
    return all;
  }
  std::vector<std::string> selected;
  for (const std::string& raw : StrSplit(env, ',')) {
    std::string name(StrTrim(raw));
    for (const std::string& known : all) {
      if (EqualsIgnoreCase(known, name)) selected.push_back(known);
    }
  }
  return selected.empty() ? all : selected;
}

namespace {
std::map<std::string, std::shared_ptr<const dwarf::DwarfCube>>& Cache() {
  static auto* cache =
      new std::map<std::string, std::shared_ptr<const dwarf::DwarfCube>>();
  return *cache;
}
}  // namespace

Result<std::shared_ptr<const dwarf::DwarfCube>> GetDatasetCube(
    const std::string& dataset) {
  auto it = Cache().find(dataset);
  if (it != Cache().end()) return it->second;

  SCD_ASSIGN_OR_RETURN(citibikes::DatasetSpec spec,
                       citibikes::FindDataset(dataset));
  citibikes::BikeFeedGenerator feed(citibikes::MakeFeedConfig(spec));
  SCD_ASSIGN_OR_RETURN(etl::ParallelCubePipeline pipeline,
                       etl::MakeBikesXmlParallelPipeline());
  while (feed.HasNext()) {
    SCD_RETURN_IF_ERROR(pipeline.ConsumeXml(feed.NextXml()));
  }
  SCD_ASSIGN_OR_RETURN(dwarf::DwarfCube cube, std::move(pipeline).Finish());
  auto shared = std::make_shared<const dwarf::DwarfCube>(std::move(cube));
  Cache()[dataset] = shared;
  return shared;
}

void EvictDatasetCube(const std::string& dataset) { Cache().erase(dataset); }

const char* SchemaName(StorageSchema schema) {
  switch (schema) {
    case StorageSchema::kMySqlDwarf: return "MySQL-DWARF";
    case StorageSchema::kMySqlMin: return "MySQL-Min";
    case StorageSchema::kNoSqlDwarf: return "NoSQL-DWARF";
    case StorageSchema::kNoSqlMin: return "NoSQL-Min";
  }
  return "?";
}

std::string ScratchDir(const std::string& tag) {
  return (fs::temp_directory_path() /
          ("scdwarf_bench_" + std::to_string(::getpid()) + "_" + tag))
      .string();
}

Result<StoreRunResult> RunStore(StorageSchema schema,
                                const dwarf::DwarfCube& cube) {
  std::string dir = ScratchDir(SchemaName(schema));
  fs::remove_all(dir);
  StoreRunResult result;
  Stopwatch watch;
  switch (schema) {
    case StorageSchema::kNoSqlDwarf: {
      SCD_ASSIGN_OR_RETURN(nosql::Database db, nosql::Database::Open(dir));
      mapper::NoSqlDwarfMapper cube_mapper(&db, "dwarfks");
      mapper::NoSqlStoreStats stats;
      watch.Restart();
      SCD_RETURN_IF_ERROR(cube_mapper.Store(cube, {}, &stats).status());
      result.insert_ms = watch.ElapsedMillis();
      SCD_ASSIGN_OR_RETURN(result.disk_bytes, db.DiskSizeBytes());
      result.rows = stats.node_rows + stats.cell_rows;
      break;
    }
    case StorageSchema::kNoSqlMin: {
      SCD_ASSIGN_OR_RETURN(nosql::Database db, nosql::Database::Open(dir));
      mapper::NoSqlMinMapper cube_mapper(&db, "minks");
      watch.Restart();
      SCD_RETURN_IF_ERROR(cube_mapper.Store(cube).status());
      result.insert_ms = watch.ElapsedMillis();
      SCD_ASSIGN_OR_RETURN(result.disk_bytes, db.DiskSizeBytes());
      result.rows = cube.stats().cell_count + cube.num_nodes();
      break;
    }
    case StorageSchema::kMySqlDwarf: {
      SCD_ASSIGN_OR_RETURN(sql::SqlEngine engine, sql::SqlEngine::Open(dir));
      mapper::SqlDwarfMapper cube_mapper(&engine, "dwarfdb");
      mapper::SqlDwarfStoreStats stats;
      watch.Restart();
      SCD_RETURN_IF_ERROR(cube_mapper.Store(cube, {}, &stats).status());
      result.insert_ms = watch.ElapsedMillis();
      SCD_ASSIGN_OR_RETURN(result.disk_bytes, engine.DiskSizeBytes());
      result.rows = stats.node_rows + stats.cell_rows +
                    stats.node_children_rows + stats.cell_children_rows;
      break;
    }
    case StorageSchema::kMySqlMin: {
      SCD_ASSIGN_OR_RETURN(sql::SqlEngine engine, sql::SqlEngine::Open(dir));
      mapper::SqlMinMapper cube_mapper(&engine, "mindb");
      watch.Restart();
      SCD_RETURN_IF_ERROR(cube_mapper.Store(cube).status());
      result.insert_ms = watch.ElapsedMillis();
      SCD_ASSIGN_OR_RETURN(result.disk_bytes, engine.DiskSizeBytes());
      result.rows = cube.stats().cell_count + cube.num_nodes();
      break;
    }
  }
  fs::remove_all(dir);
  return result;
}

namespace {
// Table 4 of the paper, in MB ("< 1" entries recorded as 0.9).
const std::map<std::string, std::map<std::string, double>>& PaperTable4() {
  static const auto* table = new std::map<std::string, std::map<std::string, double>>{
      {"MySQL-DWARF",
       {{"Day", 2}, {"Week", 20}, {"Month", 80}, {"TMonth", 169}, {"SMonth", 424}}},
      {"MySQL-Min",
       {{"Day", 0.9}, {"Week", 8}, {"Month", 33}, {"TMonth", 70}, {"SMonth", 178}}},
      {"NoSQL-DWARF",
       {{"Day", 0.9}, {"Week", 9}, {"Month", 35}, {"TMonth", 73}, {"SMonth", 182}}},
      {"NoSQL-Min",
       {{"Day", 0.9}, {"Week", 11}, {"Month", 45}, {"TMonth", 96}, {"SMonth", 243}}},
  };
  return *table;
}

// Table 5 of the paper, in milliseconds.
const std::map<std::string, std::map<std::string, double>>& PaperTable5() {
  static const auto* table = new std::map<std::string, std::map<std::string, double>>{
      {"MySQL-DWARF",
       {{"Day", 1768}, {"Week", 12501}, {"Month", 47247}, {"TMonth", 100466},
        {"SMonth", 255098}}},
      {"MySQL-Min",
       {{"Day", 1107}, {"Week", 5955}, {"Month", 22243}, {"TMonth", 47936},
        {"SMonth", 121221}}},
      {"NoSQL-DWARF",
       {{"Day", 927}, {"Week", 4368}, {"Month", 15955}, {"TMonth", 34203},
        {"SMonth", 89257}}},
      {"NoSQL-Min",
       {{"Day", 5699}, {"Week", 57153}, {"Month", 222044}, {"TMonth", 484498},
        {"SMonth", 1219887}}},
  };
  return *table;
}
}  // namespace

double PaperTable4Mb(StorageSchema schema, const std::string& dataset) {
  return PaperTable4().at(SchemaName(schema)).at(dataset);
}

double PaperTable5Ms(StorageSchema schema, const std::string& dataset) {
  return PaperTable5().at(SchemaName(schema)).at(dataset);
}

}  // namespace scdwarf::benchutil
