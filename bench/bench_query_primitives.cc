// Query primitives over DWARF cubes — the conclusion's future-work target
// ("efficient query primitives for our DWARF cubes"), benchmarked over the
// Week dataset: point queries (full path and via precomputed ALL cells),
// range/set aggregates, rollups, slices, base-tuple extraction, flat-file
// queries in both [1] layouts, and the bidirectional mapping's load path
// (store -> cube rebuild).

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <optional>

#include "bench_util.h"
#include "clustered/flat_file.h"
#include "dwarf/query.h"
#include "dwarf/update.h"
#include "mapper/nosql_dwarf_mapper.h"
#include "nosql/database.h"

namespace {

using namespace scdwarf;
namespace fs = std::filesystem;

const char* kDataset = "Week";

std::shared_ptr<const dwarf::DwarfCube> Cube() {
  static std::shared_ptr<const dwarf::DwarfCube> cube = [] {
    auto result = benchutil::GetDatasetCube(kDataset);
    if (!result.ok()) {
      std::fprintf(stderr, "cube build failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    return *result;
  }();
  return cube;
}

/// Cycles through the station dictionary so queries do not hit one hot path.
dwarf::DimKey NextStation(const dwarf::DwarfCube& cube) {
  static dwarf::DimKey next = 0;
  const dwarf::Dictionary& stations = cube.dictionary(5);
  next = (next + 1) % static_cast<dwarf::DimKey>(stations.size());
  return next;
}

void BM_PointQueryFullPath(benchmark::State& state) {
  auto cube = Cube();
  std::vector<std::optional<dwarf::DimKey>> query(8, std::nullopt);
  for (auto _ : state) {
    query[5] = NextStation(*cube);
    benchmark::DoNotOptimize(dwarf::PointQuery(*cube, query));
  }
}
BENCHMARK(BM_PointQueryFullPath);

void BM_PointQueryGrandTotal(benchmark::State& state) {
  auto cube = Cube();
  std::vector<std::optional<dwarf::DimKey>> query(8, std::nullopt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwarf::PointQuery(*cube, query));
  }
}
BENCHMARK(BM_PointQueryGrandTotal);

void BM_PointQueryExactCell(benchmark::State& state) {
  auto cube = Cube();
  // Fully specified coordinate: first key of every dimension.
  std::vector<std::optional<dwarf::DimKey>> query(8);
  for (size_t dim = 0; dim < 8; ++dim) query[dim] = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwarf::PointQuery(*cube, query));
  }
}
BENCHMARK(BM_PointQueryExactCell);

void BM_AggregateSetQuery(benchmark::State& state) {
  auto cube = Cube();
  std::vector<dwarf::DimPredicate> predicates(8, dwarf::DimPredicate::All());
  std::vector<dwarf::DimKey> hours;
  for (const char* hour : {"07", "08", "09"}) {
    auto key = cube->dictionary(3).Lookup(hour);
    if (key.ok()) hours.push_back(*key);
  }
  predicates[3] = dwarf::DimPredicate::Set(hours);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwarf::AggregateQuery(*cube, predicates));
  }
}
BENCHMARK(BM_AggregateSetQuery);

void BM_AggregateRangeQuery(benchmark::State& state) {
  auto cube = Cube();
  std::vector<dwarf::DimPredicate> predicates(8, dwarf::DimPredicate::All());
  // Range across half the station dictionary.
  auto stations = static_cast<dwarf::DimKey>(cube->dictionary(5).size());
  predicates[5] = dwarf::DimPredicate::Range(0, stations / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwarf::AggregateQuery(*cube, predicates));
  }
}
BENCHMARK(BM_AggregateRangeQuery);

void BM_RollUpWeekday(benchmark::State& state) {
  auto cube = Cube();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwarf::RollUp(*cube, {2}));
  }
}
BENCHMARK(BM_RollUpWeekday);

void BM_RollUpAreaStation(benchmark::State& state) {
  auto cube = Cube();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwarf::RollUp(*cube, {4, 5}));
  }
}
BENCHMARK(BM_RollUpAreaStation);

// Wide rows: a slice on one Date groups by the other seven dimensions.
void BM_SliceDate(benchmark::State& state) {
  auto cube = Cube();
  const auto dates = static_cast<dwarf::DimKey>(cube->dictionary(1).size());
  dwarf::DimKey date = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwarf::Slice(*cube, 1, date));
    date = (date + 1) % dates;
  }
}
BENCHMARK(BM_SliceDate);

// Every base tuple, eight labels a row: the compaction rebuild's input.
void BM_ExtractBaseTuples(benchmark::State& state) {
  auto cube = Cube();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwarf::ExtractBaseTuples(*cube));
  }
}
BENCHMARK(BM_ExtractBaseTuples)->Unit(benchmark::kMillisecond);

void BM_FlatFilePointQuery(benchmark::State& state) {
  auto cube = Cube();
  auto layout = static_cast<clustered::ClusterLayout>(state.range(0));
  std::string path = benchutil::ScratchDir("query.dwarf");
  Status written = clustered::WriteDwarfFile(*cube, path, layout);
  if (!written.ok()) {
    state.SkipWithError(written.ToString().c_str());
    return;
  }
  auto file_cube = clustered::FlatFileCube::Open(path);
  if (!file_cube.ok()) {
    state.SkipWithError(file_cube.status().ToString().c_str());
    return;
  }
  const dwarf::Dictionary& stations = cube->dictionary(5);
  std::vector<std::optional<std::string>> query(8, std::nullopt);
  dwarf::DimKey station = 0;
  for (auto _ : state) {
    query[5] = stations.DecodeUnchecked(station);
    station = (station + 1) % static_cast<dwarf::DimKey>(stations.size());
    benchmark::DoNotOptimize(file_cube->PointQuery(query));
  }
  state.counters["node_reads/query"] =
      static_cast<double>(file_cube->stats().node_reads) /
      static_cast<double>(state.iterations());
  fs::remove(path);
}
BENCHMARK(BM_FlatFilePointQuery)
    ->Arg(static_cast<int>(clustered::ClusterLayout::kHierarchical))
    ->Arg(static_cast<int>(clustered::ClusterLayout::kRecursive));

void BM_NoSqlStoreLoadRoundTrip(benchmark::State& state) {
  auto cube = Cube();
  nosql::Database db;  // memory mode: measures the mapping itself
  mapper::NoSqlDwarfMapper cube_mapper(&db, "dwarfks");
  auto id = cube_mapper.Store(*cube);
  if (!id.ok()) {
    state.SkipWithError(id.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto rebuilt = cube_mapper.Load(*id);
    if (!rebuilt.ok()) {
      state.SkipWithError(rebuilt.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(rebuilt->num_nodes());
  }
}
BENCHMARK(BM_NoSqlStoreLoadRoundTrip)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
