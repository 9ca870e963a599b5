// DWARF construction scaling: build time, node/cell counts and compression
// ratio as the tuple count grows — the cube-construction half of the
// pipeline that feeds every Table-4/5 measurement. Also benchmarks the ETL
// worker's XML extract + map throughput and the raw JSON parser.

#include <benchmark/benchmark.h>

#include "citibikes/bike_feed.h"
#include "dwarf/builder.h"
#include "etl/parallel_pipeline.h"
#include "json/json_parser.h"

namespace {

using namespace scdwarf;

/// Feed documents cached per tuple count so parser cost is excluded from
/// builder-only measurements.
std::vector<std::string> FeedDocuments(uint64_t records, bool as_json) {
  citibikes::BikeFeedConfig config;
  config.target_records = records;
  config.period_seconds = 30ll * 24 * 3600;
  citibikes::BikeFeedGenerator feed(config);
  std::vector<std::string> documents;
  while (feed.HasNext()) {
    documents.push_back(as_json ? feed.NextJson() : feed.NextXml());
  }
  return documents;
}

void BM_EndToEndPipeline(benchmark::State& state) {
  uint64_t records = static_cast<uint64_t>(state.range(0));
  std::vector<std::string> documents = FeedDocuments(records, false);
  for (auto _ : state) {
    auto pipeline = etl::MakeBikesXmlParallelPipeline();
    if (!pipeline.ok()) {
      state.SkipWithError(pipeline.status().ToString().c_str());
      return;
    }
    for (const std::string& document : documents) {
      Status status = pipeline->ConsumeXml(document);
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
    state.counters["nodes"] = static_cast<double>(cube->num_nodes());
    state.counters["cells"] = static_cast<double>(cube->stats().cell_count);
    state.counters["coalesced"] =
        static_cast<double>(cube->stats().coalesced_all_count);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(records));
}
BENCHMARK(BM_EndToEndPipeline)
    ->Arg(10000)
    ->Arg(40000)
    ->Arg(120000)
    ->Unit(benchmark::kMillisecond);

void BM_BuilderOnly(benchmark::State& state) {
  // Pre-extract tuples once; measure pure DWARF construction.
  uint64_t records = static_cast<uint64_t>(state.range(0));
  std::vector<std::string> documents = FeedDocuments(records, false);
  std::vector<std::vector<std::string>> keys;
  std::vector<dwarf::Measure> measures;
  {
    auto extractor =
        etl::XmlExtractor::Create("station", etl::BikesFieldSpecs());
    auto mapper = etl::TupleMapper::Create(etl::MakeBikesCubeSchema(),
                                           etl::BikesDimensionMappings(),
                                           "available_bikes");
    for (const std::string& document : documents) {
      auto records_result = extractor->Extract(document);
      for (const etl::FeedRecord& record : *records_result) {
        auto mapped = mapper->Map(record);
        keys.push_back(mapped->first);
        measures.push_back(mapped->second);
      }
    }
  }
  for (auto _ : state) {
    dwarf::DwarfBuilder builder(etl::MakeBikesCubeSchema());
    for (size_t i = 0; i < keys.size(); ++i) {
      Status status = builder.AddTuple(keys[i], measures[i]);
      if (!status.ok()) {
        state.SkipWithError(status.ToString().c_str());
        return;
      }
    }
    auto cube = std::move(builder).Build();
    if (!cube.ok()) {
      state.SkipWithError(cube.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(cube->num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_BuilderOnly)
    ->Arg(10000)
    ->Arg(40000)
    ->Arg(120000)
    ->Unit(benchmark::kMillisecond);

// The ETL worker's per-document work on one thread: streaming extraction of
// the station records, then their mapping to cube keys.
void BM_XmlParseThroughput(benchmark::State& state) {
  std::vector<std::string> documents = FeedDocuments(5000, false);
  uint64_t bytes = 0;
  for (const std::string& document : documents) bytes += document.size();
  auto extractor =
      etl::XmlExtractor::Create("station", etl::BikesFieldSpecs());
  auto mapper = etl::TupleMapper::Create(etl::MakeBikesCubeSchema(),
                                         etl::BikesDimensionMappings(),
                                         "available_bikes");
  if (!extractor.ok() || !mapper.ok()) {
    state.SkipWithError("bikes extractor or mapper rejected");
    return;
  }
  uint64_t records = 0;
  for (auto _ : state) {
    for (const std::string& document : documents) {
      auto extracted = extractor->Extract(document);
      if (!extracted.ok()) {
        state.SkipWithError(extracted.status().ToString().c_str());
        return;
      }
      for (const etl::FeedRecord& record : *extracted) {
        auto mapped = mapper->Map(record);
        benchmark::DoNotOptimize(mapped);
        ++records;
      }
    }
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.SetItemsProcessed(static_cast<int64_t>(records));
}
BENCHMARK(BM_XmlParseThroughput)->Unit(benchmark::kMillisecond);

void BM_JsonParseThroughput(benchmark::State& state) {
  std::vector<std::string> documents = FeedDocuments(5000, true);
  uint64_t bytes = 0;
  for (const std::string& document : documents) bytes += document.size();
  for (auto _ : state) {
    for (const std::string& document : documents) {
      auto parsed = json::ParseJson(document);
      benchmark::DoNotOptimize(parsed.ok());
    }
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_JsonParseThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
