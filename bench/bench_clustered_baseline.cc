// Reproduces the §5.1 storage-space comparison against Bao et al. [1]:
// "the authors stored a DWARF containing 400,000 tuples with 8 dimensions in
// 200MB using their standard DWARF implementation and 260MB using their
// recursion clustering method. Conversely ... we were able to store a DWARF
// cube of 1,181,344 tuples across 8 dimensions in 182MB."
//
// This bench builds a 400,000-tuple 8-dimension cube, stores it as both
// clustered flat-file layouts ([1]'s system) and into our NoSQL-DWARF
// schema, and prints the sizes side by side. Absolute MB differ (different
// datasets compress differently — the paper says so explicitly); the shape
// claim is that the NoSQL-DWARF store is in the same size class as the
// flat-file DWARFs rather than paying a large database overhead.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "bench_util.h"
#include "citibikes/bike_feed.h"
#include "clustered/flat_file.h"
#include "etl/parallel_pipeline.h"
#include "mapper/nosql_dwarf_mapper.h"
#include "nosql/database.h"

namespace {

using namespace scdwarf;
namespace fs = std::filesystem;

constexpr uint64_t kTuples = 400000;  // [1]'s dataset scale

struct BaselineResults {
  double hierarchical_mb = -1;
  double recursive_mb = -1;
  double nosql_mb = -1;
  uint64_t nodes = 0;
  uint64_t cells = 0;
};
BaselineResults g_results;

Result<dwarf::DwarfCube> BuildBaselineCube() {
  citibikes::BikeFeedConfig config;
  config.target_records = kTuples;
  config.period_seconds = 60ll * 24 * 3600;
  citibikes::BikeFeedGenerator feed(config);
  SCD_ASSIGN_OR_RETURN(etl::ParallelCubePipeline pipeline,
                       etl::MakeBikesXmlParallelPipeline());
  while (feed.HasNext()) {
    SCD_RETURN_IF_ERROR(pipeline.ConsumeXml(feed.NextXml()));
  }
  return std::move(pipeline).Finish();
}

void BM_ClusteredBaseline(benchmark::State& state) {
  auto cube = BuildBaselineCube();
  if (!cube.ok()) {
    state.SkipWithError(cube.status().ToString().c_str());
    return;
  }
  g_results.nodes = cube->num_nodes();
  g_results.cells = cube->stats().cell_count;
  for (auto _ : state) {
    for (auto layout : {clustered::ClusterLayout::kHierarchical,
                        clustered::ClusterLayout::kRecursive}) {
      std::string path = benchutil::ScratchDir("baseline.dwarf");
      Status status = clustered::WriteDwarfFile(*cube, path, layout);
      if (!status.ok()) {
        state.SkipWithError(status.ToString().c_str());
        return;
      }
      double mb = static_cast<double>(fs::file_size(path)) / (1 << 20);
      if (layout == clustered::ClusterLayout::kHierarchical) {
        g_results.hierarchical_mb = mb;
      } else {
        g_results.recursive_mb = mb;
      }
      fs::remove(path);
    }
    auto stored = benchutil::RunStore(benchutil::StorageSchema::kNoSqlDwarf,
                                      *cube);
    if (!stored.ok()) {
      state.SkipWithError(stored.status().ToString().c_str());
      return;
    }
    g_results.nosql_mb = static_cast<double>(stored->disk_bytes) / (1 << 20);
  }
  state.counters["hier_MB"] = g_results.hierarchical_mb;
  state.counters["rec_MB"] = g_results.recursive_mb;
  state.counters["nosql_MB"] = g_results.nosql_mb;
}
BENCHMARK(BM_ClusteredBaseline)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  benchutil::InstallObservabilityDumps(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf(
      "\n=== §5.1 storage comparison vs Bao et al. [1] (400k tuples, 8 dims) "
      "===\n");
  std::printf("cube: %llu nodes, %llu cells\n",
              static_cast<unsigned long long>(g_results.nodes),
              static_cast<unsigned long long>(g_results.cells));
  std::printf("%-38s %10s %18s\n", "store", "ours (MB)", "paper-cited (MB)");
  std::printf("%-38s %10.1f %18s\n", "flat file, hierarchical clustering [1]",
              g_results.hierarchical_mb, "200 (standard)");
  std::printf("%-38s %10.1f %18s\n", "flat file, recursive clustering [1]",
              g_results.recursive_mb, "260 (recursive)");
  std::printf("%-38s %10.1f %18s\n", "NoSQL-DWARF (this paper)",
              g_results.nosql_mb, "182 @ 1.18M tuples");
  double tuples_mb = static_cast<double>(kTuples) / (1 << 20);
  std::printf("\nbytes per source tuple: flat file %.1f, NoSQL-DWARF %.1f\n",
              g_results.recursive_mb / tuples_mb,
              g_results.nosql_mb / tuples_mb);
  // The paper's comparison point: a full queryable database store should
  // stay within one order of magnitude of [1]'s minimal flat files (it
  // additionally pays text keys, per-row framing and the schema/node
  // families). The paper's own numbers span different datasets, so only
  // this size-class relation is checkable.
  std::printf(
      "Shape: NoSQL-DWARF within one order of magnitude of the flat file: "
      "%s\n",
      (g_results.nosql_mb > 0 &&
       g_results.nosql_mb < 10 * g_results.recursive_mb)
          ? "yes"
          : "NO");
  std::printf(
      "Note: [1] used a different 400k-tuple dataset; the paper itself warns\n"
      "that compression differs across datasets, so only the size class is\n"
      "comparable.\n");
  return 0;
}
