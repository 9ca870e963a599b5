// Reproduces Table 2: "The datasets used in the experiments" — the five
// bike-sharing datasets (Day .. SMonth), their tuple counts and raw feed
// sizes. The benchmark measures feed generation + the full XML-to-cube
// pipeline for each dataset; the summary prints the Table-2 rows next to the
// paper's numbers.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>

#include "bench_util.h"
#include "citibikes/bike_feed.h"
#include "common/strings.h"
#include "etl/parallel_pipeline.h"

namespace {

using namespace scdwarf;

struct Table2Row {
  uint64_t tuples = 0;
  uint64_t raw_bytes = 0;
  uint64_t documents = 0;
  double pipeline_ms = 0;
  uint64_t cube_nodes = 0;
  uint64_t cube_cells = 0;
};
std::map<std::string, Table2Row> g_rows;

void BM_GenerateAndBuild(benchmark::State& state, const std::string& dataset) {
  for (auto _ : state) {
    auto spec = citibikes::FindDataset(dataset);
    if (!spec.ok()) {
      state.SkipWithError(spec.status().ToString().c_str());
      return;
    }
    citibikes::BikeFeedGenerator feed(citibikes::MakeFeedConfig(*spec));
    auto pipeline = etl::MakeBikesXmlParallelPipeline();
    if (!pipeline.ok()) {
      state.SkipWithError(pipeline.status().ToString().c_str());
      return;
    }
    while (feed.HasNext()) {
      Status status = pipeline->ConsumeXml(feed.NextXml());
      if (!status.ok()) {
        state.SkipWithError(status.ToString().c_str());
        return;
      }
    }
    auto cube = std::move(*pipeline).Finish();
    if (!cube.ok()) {
      state.SkipWithError(cube.status().ToString().c_str());
      return;
    }
    Table2Row row;
    row.tuples = feed.records_emitted();
    row.raw_bytes = feed.bytes_emitted();
    row.documents = feed.documents_emitted();
    row.cube_nodes = cube->num_nodes();
    row.cube_cells = cube->stats().cell_count;
    g_rows[dataset] = row;
    state.counters["tuples"] = static_cast<double>(row.tuples);
    state.counters["raw_MB"] = static_cast<double>(row.raw_bytes) / (1 << 20);
    benchmark::DoNotOptimize(cube->num_nodes());
  }
}

void PrintTable2() {
  std::printf("\n=== Table 2: The datasets used in the experiments ===\n");
  std::printf("%-8s %12s %12s %14s %14s %10s %12s\n", "Dataset", "tuples",
              "paper tuples", "raw size (MB)", "paper (MB)", "documents",
              "cube nodes");
  for (const std::string& dataset : benchutil::SelectedDatasets()) {
    auto it = g_rows.find(dataset);
    if (it == g_rows.end()) continue;
    auto spec = citibikes::FindDataset(dataset);
    std::printf("%-8s %12s %12s %14.1f %14.1f %10llu %12llu\n",
                dataset.c_str(),
                FormatWithCommas(static_cast<int64_t>(it->second.tuples)).c_str(),
                FormatWithCommas(static_cast<int64_t>(spec->tuples)).c_str(),
                static_cast<double>(it->second.raw_bytes) / (1 << 20),
                spec->paper_raw_mb,
                static_cast<unsigned long long>(it->second.documents),
                static_cast<unsigned long long>(it->second.cube_nodes));
  }
  std::printf(
      "\nShape check: tuple counts match the paper exactly by construction;\n"
      "raw MB should grow roughly linearly with tuples, like the paper's\n"
      "2.1 -> 338 MB progression.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::InstallObservabilityDumps(&argc, argv);
  benchmark::Initialize(&argc, argv);
  for (const std::string& dataset : benchutil::SelectedDatasets()) {
    benchmark::RegisterBenchmark(("Table2/" + dataset).c_str(),
                                 [dataset](benchmark::State& state) {
                                   BM_GenerateAndBuild(state, dataset);
                                 })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintTable2();
  return 0;
}
