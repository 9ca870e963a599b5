// Ablations for the design choices §5.1 calls out (see DESIGN.md §5):
//   1. NoSQL-Min's two secondary indexes — insert time and size with vs
//      without them (the paper's explanation for NoSQL-Min's last place).
//   2. set<int> columns vs exploded relationship rows — the DWARF_Node
//      children stored as one set-typed row vs one row per edge (the
//      paper's explanation for MySQL-DWARF's size blow-up, measured inside
//      the same NoSQL engine to isolate the schema effect).
//   3. Suffix coalescing — cube size with the DWARF optimization disabled.
//   4. Merge memoization — construction time without the repeated-merge
//      cache.
//   5. Bulk mutations vs per-row CQL statements — §4 generates textual
//      INSERTs; this measures what executing them one by one costs.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <numeric>

#include "bench_util.h"
#include "citibikes/bike_feed.h"
#include "common/stopwatch.h"
#include "dwarf/builder.h"
#include "etl/parallel_pipeline.h"
#include "mapper/id_map.h"
#include "mapper/nosql_dwarf_mapper.h"
#include "mapper/nosql_min_mapper.h"
#include "nosql/database.h"

namespace {

using namespace scdwarf;

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

// ------------------------------------------------- 1. secondary indexes

void BM_NoSqlMinIndexes(benchmark::State& state) {
  auto cube = Cube();
  bool with_indexes = state.range(0) != 0;
  for (auto _ : state) {
    nosql::Database db;
    mapper::NoSqlMinMapperOptions options;
    options.create_secondary_indexes = with_indexes;
    mapper::NoSqlMinMapper cube_mapper(&db, "minks", options);
    Stopwatch watch;
    auto id = cube_mapper.Store(*cube);
    if (!id.ok()) {
      state.SkipWithError(id.status().ToString().c_str());
      return;
    }
    state.SetIterationTime(watch.ElapsedSeconds());
    state.counters["store_MB"] =
        static_cast<double>(db.EstimateBytes()) / (1 << 20);
  }
}
BENCHMARK(BM_NoSqlMinIndexes)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("with_indexes")
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

// ----------------------------------- 2. set columns vs exploded rows

void BM_NodeChildrenRepresentation(benchmark::State& state) {
  auto cube = Cube();
  bool as_sets = state.range(0) != 0;
  mapper::CubeIdMap ids = mapper::AssignIds(*cube, 0, 0);
  for (auto _ : state) {
    nosql::Database db;
    Status status = db.CreateKeyspace("ks");
    if (as_sets) {
      status = db.CreateTable(nosql::TableSchema(
          "ks", "node",
          {{"id", DataType::kInt}, {"childrenids", DataType::kIntSet}}, "id"));
    } else {
      status = db.CreateTable(nosql::TableSchema(
          "ks", "node_children",
          {{"id", DataType::kInt},
           {"node_id", DataType::kInt},
           {"cell_id", DataType::kInt}},
          "id"));
    }
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    Stopwatch watch;
    int64_t edge_id = 0;
    uint64_t rows = 0;
    for (dwarf::NodeId node_id : ids.visit_order) {
      // The node's cells and its ALL cell, numbered consecutively.
      std::vector<int64_t> children(cube->node(node_id).cells.size() + 1);
      std::iota(children.begin(), children.end(), ids.first_cell_id[node_id]);
      if (as_sets) {
        status = db.Insert("ks", "node",
                           {Value::Int(ids.node_ids[node_id]),
                            Value::IntSet(std::move(children))});
        ++rows;
        if (!status.ok()) break;
      } else {
        for (int64_t child : children) {
          status = db.Insert("ks", "node_children",
                             {Value::Int(edge_id++),
                              Value::Int(ids.node_ids[node_id]),
                              Value::Int(child)});
          ++rows;
          if (!status.ok()) break;
        }
      }
    }
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    state.SetIterationTime(watch.ElapsedSeconds());
    state.counters["rows"] = static_cast<double>(rows);
    state.counters["store_MB"] =
        static_cast<double>(db.EstimateBytes()) / (1 << 20);
  }
}
BENCHMARK(BM_NodeChildrenRepresentation)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("as_sets")
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

// -------------------------------------------------- 3/4. DWARF options

Result<dwarf::DwarfCube> BuildWithOptions(dwarf::BuilderOptions options) {
  citibikes::BikeFeedConfig config;
  config.target_records = 20000;
  config.period_seconds = 3 * 24 * 3600;
  citibikes::BikeFeedGenerator feed(config);
  SCD_ASSIGN_OR_RETURN(etl::ParallelCubePipeline pipeline,
                       etl::MakeBikesXmlParallelPipeline(options));
  while (feed.HasNext()) {
    SCD_RETURN_IF_ERROR(pipeline.ConsumeXml(feed.NextXml()));
  }
  return std::move(pipeline).Finish();
}

void BM_SuffixCoalescing(benchmark::State& state) {
  dwarf::BuilderOptions options;
  options.enable_suffix_coalescing = state.range(0) != 0;
  options.enable_merge_memoization = options.enable_suffix_coalescing;
  for (auto _ : state) {
    auto cube = BuildWithOptions(options);
    if (!cube.ok()) {
      state.SkipWithError(cube.status().ToString().c_str());
      return;
    }
    state.counters["nodes"] = static_cast<double>(cube->num_nodes());
    state.counters["cells"] = static_cast<double>(cube->stats().cell_count);
    state.counters["approx_MB"] =
        static_cast<double>(cube->stats().approx_bytes) / (1 << 20);
  }
}
BENCHMARK(BM_SuffixCoalescing)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("coalescing")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_MergeMemoization(benchmark::State& state) {
  dwarf::BuilderOptions options;
  options.enable_suffix_coalescing = true;
  options.enable_merge_memoization = state.range(0) != 0;
  for (auto _ : state) {
    auto cube = BuildWithOptions(options);
    if (!cube.ok()) {
      state.SkipWithError(cube.status().ToString().c_str());
      return;
    }
    state.counters["nodes"] = static_cast<double>(cube->num_nodes());
  }
}
BENCHMARK(BM_MergeMemoization)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("memoization")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// --------------------------------------- 5. bulk vs per-statement CQL

void BM_CqlStatementsVsBulk(benchmark::State& state) {
  bool via_statements = state.range(0) != 0;
  // Day-scale cube: statement mode parses one CQL INSERT per row.
  auto cube = benchutil::GetDatasetCube("Day");
  if (!cube.ok()) {
    state.SkipWithError(cube.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    nosql::Database db;
    mapper::NoSqlDwarfMapper cube_mapper(&db, "dwarfks");
    mapper::NoSqlDwarfMapperOptions options;
    options.via_cql_statements = via_statements;
    mapper::NoSqlStoreStats stats;
    Stopwatch watch;
    auto id = cube_mapper.Store(**cube, options, &stats);
    if (!id.ok()) {
      state.SkipWithError(id.status().ToString().c_str());
      return;
    }
    state.SetIterationTime(watch.ElapsedSeconds());
    state.counters["statements"] = static_cast<double>(stats.statements);
  }
}
BENCHMARK(BM_CqlStatementsVsBulk)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("via_cql")
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
