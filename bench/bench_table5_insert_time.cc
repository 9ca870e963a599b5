// Reproduces Table 5: "Time (milliseconds) taken to insert a DWARF cube"
// for the four schemas x five datasets. Uses manual timing: the reported
// time is exactly the mapper Store() call — traversal, row generation, bulk
// mutation application, commit/redo logging and flush — matching what the
// paper measures. Each cell is the median of kStoreRuns Store() calls, each
// into a fresh store, printed with the min-max of those runs. The summary
// prints the matrix next to the paper's values and checks the §5.1 shapes
// on the medians.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using namespace scdwarf;
using benchutil::StorageSchema;

// Store() calls per cell. One call moves by 20 % or more from run to run on
// a shared machine, so a cell reports the median of several.
constexpr int kStoreRuns = 5;

struct CellMs {
  double median = -1;
  double min = -1;
  double max = -1;
};
std::map<std::string, std::map<std::string, CellMs>> g_ms;  // schema -> dataset

void BM_InsertTime(benchmark::State& state, const std::string& dataset,
                   StorageSchema schema, bool last_schema_for_dataset) {
  auto cube = benchutil::GetDatasetCube(dataset);
  if (!cube.ok()) {
    state.SkipWithError(cube.status().ToString().c_str());
    return;
  }
  std::vector<double> runs;
  for (auto _ : state) {
    auto result = benchutil::RunStore(schema, **cube);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    state.SetIterationTime(result->insert_ms / 1000.0);
    runs.push_back(result->insert_ms);
    state.counters["rows"] = static_cast<double>(result->rows);
  }
  std::sort(runs.begin(), runs.end());
  CellMs cell{runs[runs.size() / 2], runs.front(), runs.back()};
  g_ms[benchutil::SchemaName(schema)][dataset] = cell;
  state.counters["insert_ms"] = cell.median;
  if (last_schema_for_dataset) benchutil::EvictDatasetCube(dataset);
}

void PrintTable5() {
  std::printf(
      "\n=== Table 5: Time (milliseconds) taken to insert a DWARF cube ===\n"
      "(median of %d Store() calls, each into a fresh store, with their "
      "min-max)\n",
      kStoreRuns);
  auto datasets = benchutil::SelectedDatasets();
  auto get = [](StorageSchema schema, const std::string& dataset) {
    auto it = g_ms.find(benchutil::SchemaName(schema));
    return it != g_ms.end() && it->second.count(dataset)
               ? it->second.at(dataset)
               : CellMs{};
  };
  std::printf("%-12s", "Schema");
  for (const std::string& dataset : datasets) {
    std::printf(" %8s %13s %10s", dataset.c_str(), "(min-max)", "(paper)");
  }
  std::printf("\n");
  for (StorageSchema schema : benchutil::kAllSchemas) {
    std::printf("%-12s", benchutil::SchemaName(schema));
    for (const std::string& dataset : datasets) {
      CellMs cell = get(schema, dataset);
      char range[32];
      std::snprintf(range, sizeof(range), "%.0f-%.0f", cell.min, cell.max);
      std::printf(" %8.0f %13s %10.0f", cell.median, range,
                  benchutil::PaperTable5Ms(schema, dataset));
    }
    std::printf("\n");
  }

  // §5.1 attributes MySQL-DWARF's slowdown to the join-table row explosion
  // and NoSQL-Min's to its two secondary indexes. Those two causal,
  // within-engine relations are the primary shape checks. The cross-engine
  // absolute orderings additionally depend on 2016 client/server and JVM
  // constants that an in-process substrate does not have (see
  // EXPERIMENTS.md), so they are reported informationally.
  std::printf("\nShape checks (per dataset, on the medians, from §5.1):\n");
  for (const std::string& dataset : datasets) {
    double mysql_dwarf = get(StorageSchema::kMySqlDwarf, dataset).median;
    double mysql_min = get(StorageSchema::kMySqlMin, dataset).median;
    double nosql_dwarf = get(StorageSchema::kNoSqlDwarf, dataset).median;
    double nosql_min = get(StorageSchema::kNoSqlMin, dataset).median;
    if (mysql_dwarf < 0) continue;
    std::printf(
        "  %-8s join-table cost (MySQL-DWARF > MySQL-Min): %s | "
        "secondary-index cost (NoSQL-Min > NoSQL-DWARF): %s\n",
        dataset.c_str(), mysql_dwarf > mysql_min ? "yes" : "NO",
        nosql_min > nosql_dwarf ? "yes" : "NO");
    std::printf(
        "  %-8s cross-engine (informational): NoSQL-DWARF fastest overall: "
        "%s | NoSQL-Min slowest overall: %s\n",
        "", (nosql_dwarf < mysql_dwarf && nosql_dwarf < mysql_min &&
             nosql_dwarf < nosql_min)
                ? "yes"
                : "no",
        (nosql_min > mysql_dwarf && nosql_min > mysql_min &&
         nosql_min > nosql_dwarf)
            ? "yes"
            : "no");
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::InstallObservabilityDumps(&argc, argv);
  benchmark::Initialize(&argc, argv);
  for (const std::string& dataset : benchutil::SelectedDatasets()) {
    size_t index = 0;
    constexpr size_t kNumSchemas =
        sizeof(benchutil::kAllSchemas) / sizeof(benchutil::kAllSchemas[0]);
    for (StorageSchema schema : benchutil::kAllSchemas) {
      bool last = ++index == kNumSchemas;
      std::string name = std::string("Table5/") + benchutil::SchemaName(schema) +
                         "/" + dataset;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [dataset, schema, last](benchmark::State& state) {
            BM_InsertTime(state, dataset, schema, last);
          })
          ->Unit(benchmark::kMillisecond)
          ->UseManualTime()
          ->Iterations(kStoreRuns);
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintTable5();
  return 0;
}
