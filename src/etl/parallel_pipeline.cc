#include "etl/parallel_pipeline.h"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace scdwarf::etl {

namespace {

/// Backpressure bound: Consume* blocks once this many documents per worker
/// wait in the queue.
constexpr size_t kQueuedDocumentsPerWorker = 4;

metrics::Counter* DocumentsCounter(bool is_json) {
  static metrics::Counter* const xml = metrics::GlobalRegistry().GetCounter(
      "etl_documents_total", {{"format", "xml"}},
      "feed documents consumed by the ETL front-end");
  static metrics::Counter* const json = metrics::GlobalRegistry().GetCounter(
      "etl_documents_total", {{"format", "json"}},
      "feed documents consumed by the ETL front-end");
  return is_json ? json : xml;
}

metrics::Counter* BytesCounter() {
  static metrics::Counter* const counter = metrics::GlobalRegistry().GetCounter(
      "etl_bytes_total", {}, "raw feed bytes consumed");
  return counter;
}

metrics::Counter* RecordsCounter() {
  static metrics::Counter* const counter = metrics::GlobalRegistry().GetCounter(
      "etl_records_total", {}, "feed records mapped into cube tuples");
  return counter;
}

metrics::Counter* SkippedRecordsCounter() {
  static metrics::Counter* const counter = metrics::GlobalRegistry().GetCounter(
      "etl_skipped_records_total", {},
      "malformed records dropped by non-strict pipelines");
  return counter;
}

FixedBucketHistogram* ParseHistogram() {
  static FixedBucketHistogram* const hist =
      metrics::GlobalRegistry().GetHistogram(
          "etl_parse_us", {},
          "per-document extract + map + intern latency (us)");
  return hist;
}

FixedBucketHistogram* DrainHistogram() {
  static FixedBucketHistogram* const hist =
      metrics::GlobalRegistry().GetHistogram(
          "etl_drain_us", {},
          "Finish()-time wait for queued documents to drain (us)");
  return hist;
}

FixedBucketHistogram* DictMergeHistogram() {
  static FixedBucketHistogram* const hist =
      metrics::GlobalRegistry().GetHistogram(
          "etl_dict_merge_us", {},
          "deterministic dictionary merge + tuple remap time (us)");
  return hist;
}

}  // namespace

/// Shared worker state, heap-allocated so the pipeline object stays movable
/// while worker threads hold a stable pointer.
struct ParallelCubePipeline::State {
  State(dwarf::CubeSchema schema_in, TupleMapper mapper_in,
        std::optional<XmlExtractor> xml_in, std::optional<JsonExtractor> json_in,
        bool strict_in, dwarf::BuilderOptions builder_options_in,
        size_t max_queue_in)
      : schema(std::move(schema_in)),
        mapper(std::move(mapper_in)),
        xml_extractor(std::move(xml_in)),
        json_extractor(std::move(json_in)),
        strict(strict_in),
        builder_options(builder_options_in),
        max_queue(max_queue_in) {}

  // Immutable configuration (safe to share across workers: extraction and
  // mapping are const and allocation-free of shared state).
  dwarf::CubeSchema schema;
  TupleMapper mapper;
  std::optional<XmlExtractor> xml_extractor;
  std::optional<JsonExtractor> json_extractor;
  bool strict = true;
  dwarf::BuilderOptions builder_options;
  size_t max_queue = 0;

  struct DocTask {
    uint64_t seq = 0;
    bool is_json = false;
    std::string text;
  };

  /// Everything one document contributes: tuples keyed by document-local
  /// dictionary ids plus the local id -> string tables used for the merge.
  struct DocResult {
    Status status = Status::OK();
    std::vector<std::vector<std::string>> dict_values;  ///< per dim
    std::vector<dwarf::Tuple> tuples;  ///< keys are document-local ids
    uint64_t records = 0;
    uint64_t skipped = 0;
  };

  std::mutex mu;
  std::condition_variable not_empty;
  std::condition_variable not_full;
  std::deque<DocTask> queue;
  bool closed = false;
  uint64_t documents = 0;
  uint64_t bytes = 0;

  std::mutex results_mu;
  std::vector<DocResult> results;  ///< indexed by document sequence number

  /// Filled by Finish(); documents/bytes mirror the live counters.
  PipelineStats final_stats;
  bool finished = false;

  void WorkerLoop() {
    for (;;) {
      DocTask task;
      {
        std::unique_lock<std::mutex> lock(mu);
        not_empty.wait(lock, [this] { return closed || !queue.empty(); });
        if (queue.empty()) return;  // closed and drained
        task = std::move(queue.front());
        queue.pop_front();
      }
      not_full.notify_one();
      DocResult result = ProcessDocument(task);
      {
        // Workers grow the results vector themselves: a task can be picked
        // up the instant it is queued, before the producer could size it.
        std::lock_guard<std::mutex> lock(results_mu);
        if (results.size() <= task.seq) results.resize(task.seq + 1);
        results[task.seq] = std::move(result);
      }
    }
  }

  DocResult ProcessDocument(const DocTask& task) {
    trace::ScopedSpan span("etl.parse");
    Stopwatch watch;
    DocResult out;
    Result<std::vector<FeedRecord>> records =
        task.is_json ? json_extractor->Extract(task.text)
                     : xml_extractor->Extract(task.text);
    if (!records.ok()) {
      // Malformed documents fail the pipeline regardless of the record
      // policy.
      out.status = records.status();
      return out;
    }
    size_t dims = schema.num_dimensions();
    out.dict_values.resize(dims);
    std::vector<std::unordered_map<std::string, dwarf::DimKey>> local(dims);
    for (const FeedRecord& record : *records) {
      auto mapped = mapper.Map(record);
      if (!mapped.ok()) {
        if (strict) {
          out.status = mapped.status();
          return out;
        }
        ++out.skipped;
        continue;
      }
      dwarf::Tuple tuple;
      tuple.keys.reserve(dims);
      for (size_t dim = 0; dim < dims; ++dim) {
        const std::string& key = mapped->first[dim];
        auto [it, inserted] = local[dim].try_emplace(
            key, static_cast<dwarf::DimKey>(out.dict_values[dim].size()));
        if (inserted) out.dict_values[dim].push_back(key);
        tuple.keys.push_back(it->second);
      }
      tuple.measure = mapped->second;
      out.tuples.push_back(std::move(tuple));
      ++out.records;
    }
    DocumentsCounter(task.is_json)->Increment();
    BytesCounter()->Increment(task.text.size());
    RecordsCounter()->Increment(out.records);
    SkippedRecordsCounter()->Increment(out.skipped);
    ParseHistogram()->Record(watch.ElapsedMicros());
    return out;
  }
};

ParallelCubePipeline::ParallelCubePipeline(
    dwarf::CubeSchema schema, TupleMapper mapper,
    std::optional<XmlExtractor> xml_extractor,
    std::optional<JsonExtractor> json_extractor, bool strict,
    dwarf::BuilderOptions builder_options,
    ParallelPipelineOptions parallel_options)
    : num_threads_(ResolveThreadCount(parallel_options.num_threads)) {
  state_ = std::make_unique<State>(
      std::move(schema), std::move(mapper), std::move(xml_extractor),
      std::move(json_extractor), strict, builder_options,
      static_cast<size_t>(num_threads_) * kQueuedDocumentsPerWorker);
  workers_.reserve(num_threads_);
  for (int i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([state = state_.get()] { state->WorkerLoop(); });
  }
}

ParallelCubePipeline::~ParallelCubePipeline() { JoinWorkers(); }

// Out of line, where State is complete.
ParallelCubePipeline::ParallelCubePipeline(ParallelCubePipeline&&) = default;
ParallelCubePipeline& ParallelCubePipeline::operator=(
    ParallelCubePipeline&&) = default;

void ParallelCubePipeline::JoinWorkers() {
  if (state_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->closed = true;
  }
  state_->not_empty.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

Status ParallelCubePipeline::ConsumeXml(std::string document) {
  if (!state_->xml_extractor.has_value()) {
    return Status::FailedPrecondition("pipeline has no XML extractor");
  }
  return Enqueue(/*is_json=*/false, std::move(document));
}

Status ParallelCubePipeline::ConsumeJson(std::string document) {
  if (!state_->json_extractor.has_value()) {
    return Status::FailedPrecondition("pipeline has no JSON extractor");
  }
  return Enqueue(/*is_json=*/true, std::move(document));
}

Status ParallelCubePipeline::Enqueue(bool is_json, std::string document) {
  uint64_t seq;
  {
    std::unique_lock<std::mutex> lock(state_->mu);
    if (state_->closed) {
      return Status::FailedPrecondition("pipeline already finished");
    }
    state_->not_full.wait(
        lock, [this] { return state_->queue.size() < state_->max_queue; });
    seq = state_->documents++;
    state_->bytes += document.size();
    state_->queue.push_back({seq, is_json, std::move(document)});
  }
  state_->not_empty.notify_one();
  return Status::OK();
}

PipelineStats ParallelCubePipeline::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->finished) return state_->final_stats;
  PipelineStats stats;
  stats.documents = state_->documents;
  stats.bytes = state_->bytes;
  return stats;
}

Result<dwarf::DwarfCube> ParallelCubePipeline::Finish(
    PipelineProfile* profile) && {
  Stopwatch watch;
  {
    trace::ScopedSpan span("etl.drain");
    JoinWorkers();
  }
  DrainHistogram()->Record(watch.ElapsedMicros());
  if (profile != nullptr) profile->drain_ms = watch.ElapsedMillis();
  watch.Restart();

  dwarf::DwarfBuilder builder(state_->schema, state_->builder_options);
  {
    trace::ScopedSpan merge_span("etl.dict_merge");

    // The earliest failing document decides the pipeline's fate, whichever
    // worker finished first.
    for (const State::DocResult& result : state_->results) {
      SCD_RETURN_IF_ERROR(result.status);
    }

    // Dictionary merge: global ids are assigned in document order, then in
    // per-document first-seen order — exactly the order a record-by-record
    // DwarfBuilder::AddTuple loop would produce. Tuple keys are remapped in
    // place.
    size_t dims = state_->schema.num_dimensions();
    std::vector<dwarf::Dictionary> dictionaries;
    dictionaries.reserve(dims);
    for (const dwarf::DimensionSpec& dim : state_->schema.dimensions()) {
      dictionaries.emplace_back(dim.name);
    }
    std::vector<std::vector<dwarf::DimKey>> remap(dims);
    for (State::DocResult& result : state_->results) {
      for (size_t dim = 0; dim < dims; ++dim) {
        remap[dim].clear();
        remap[dim].reserve(result.dict_values[dim].size());
        for (const std::string& value : result.dict_values[dim]) {
          remap[dim].push_back(dictionaries[dim].Encode(value));
        }
      }
      for (dwarf::Tuple& tuple : result.tuples) {
        for (size_t dim = 0; dim < dims; ++dim) {
          tuple.keys[dim] = remap[dim][tuple.keys[dim]];
        }
      }
    }

    SCD_RETURN_IF_ERROR(builder.ImportDictionaries(std::move(dictionaries)));
    PipelineStats stats;
    stats.documents = state_->documents;
    stats.bytes = state_->bytes;
    for (State::DocResult& result : state_->results) {
      for (dwarf::Tuple& tuple : result.tuples) {
        SCD_RETURN_IF_ERROR(builder.AddEncodedTuple(std::move(tuple)));
      }
      stats.records += result.records;
      stats.skipped_records += result.skipped;
      result.tuples.clear();
      result.tuples.shrink_to_fit();
    }
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->final_stats = stats;
      state_->finished = true;
    }
  }
  DictMergeHistogram()->Record(watch.ElapsedMicros());
  if (profile != nullptr) profile->dict_merge_ms = watch.ElapsedMillis();

  return std::move(builder).Build(profile == nullptr ? nullptr
                                                     : &profile->build);
}

dwarf::CubeSchema MakeBikesCubeSchema() {
  return dwarf::CubeSchema(
      "bikes",
      {
          // Date (ISO "2013-07-01") and Hour ("%02d") are ordered: their
          // lexicographic value order is chronological. Month stays
          // unordered — its values are month *names* ("July" < "June"
          // lexicographically, which is not the calendar order).
          dwarf::DimensionSpec("Month"),
          dwarf::DimensionSpec("Date", "", /*ordered_in=*/true),
          dwarf::DimensionSpec("Weekday"),
          dwarf::DimensionSpec("Hour", "", /*ordered_in=*/true),
          dwarf::DimensionSpec("Area"),
          dwarf::DimensionSpec("Station", "Station"),
          dwarf::DimensionSpec("Status"),
          dwarf::DimensionSpec("DockGroup"),
      },
      "available_bikes", dwarf::AggFn::kSum);
}

std::vector<FieldSpec> BikesFieldSpecs() {
  return {
      {"name", "name", FieldScope::kRecord, true, ""},
      {"area", "area", FieldScope::kRecord, true, ""},
      {"bike_stands", "bike_stands", FieldScope::kRecord, true, ""},
      {"available_bikes", "available_bikes", FieldScope::kRecord, true, ""},
      {"status", "status", FieldScope::kRecord, false, "UNKNOWN"},
      {"last_update", "last_update", FieldScope::kRecord, true, ""},
  };
}

std::vector<DimensionMapping> BikesDimensionMappings() {
  return {
      {"last_update", Transform::kMonthName},
      {"last_update", Transform::kDate},
      {"last_update", Transform::kWeekday},
      {"last_update", Transform::kHour},
      {"area", Transform::kIdentity},
      {"name", Transform::kIdentity},
      {"status", Transform::kIdentity},
      {"bike_stands", Transform::kBucket10},
  };
}

Result<ParallelCubePipeline> MakeBikesXmlParallelPipeline(
    dwarf::BuilderOptions builder_options,
    ParallelPipelineOptions parallel_options) {
  dwarf::CubeSchema schema = MakeBikesCubeSchema();
  SCD_ASSIGN_OR_RETURN(
      TupleMapper mapper,
      TupleMapper::Create(schema, BikesDimensionMappings(), "available_bikes"));
  SCD_ASSIGN_OR_RETURN(XmlExtractor extractor,
                       XmlExtractor::Create("station", BikesFieldSpecs()));
  return ParallelCubePipeline(std::move(schema), std::move(mapper),
                              std::move(extractor), std::nullopt,
                              /*strict=*/true, builder_options,
                              parallel_options);
}

Result<ParallelCubePipeline> MakeBikesJsonParallelPipeline(
    dwarf::BuilderOptions builder_options,
    ParallelPipelineOptions parallel_options) {
  dwarf::CubeSchema schema = MakeBikesCubeSchema();
  SCD_ASSIGN_OR_RETURN(
      TupleMapper mapper,
      TupleMapper::Create(schema, BikesDimensionMappings(), "available_bikes"));
  SCD_ASSIGN_OR_RETURN(JsonExtractor extractor,
                       JsonExtractor::Create("stations", BikesFieldSpecs()));
  return ParallelCubePipeline(std::move(schema), std::move(mapper),
                              std::nullopt, std::move(extractor),
                              /*strict=*/true, builder_options,
                              parallel_options);
}

}  // namespace scdwarf::etl
