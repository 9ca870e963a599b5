/// \file parallel_pipeline.h
/// \brief The end-to-end cube construction pipeline: feed documents in
/// (XML or JSON — the paper's "canonical approach" treats both alike),
/// extracted records through the tuple mapper into a DwarfBuilder, DWARF
/// cube out. Includes the stock 8-dimension bikes pipeline used by the
/// evaluation.
///
/// Incoming documents fan out to worker threads, each running the extractor
/// and tuple mapper into a per-document tuple shard with local key
/// interning. Finish() merges the shards deterministically — local key ids
/// are remapped into global dictionaries in document order — and hands the
/// tuples to the DwarfBuilder, whose Build()-time sort and sweep are
/// themselves parallel.
///
/// Determinism guarantee: for the same document sequence the produced cube
/// is identical for any worker count. Dictionary ids are assigned in
/// document order, then in first-seen order within a document — the order a
/// record-by-record loop into DwarfBuilder::AddTuple would give — and the
/// builder's arena does not depend on its thread count.

#ifndef SCDWARF_ETL_PARALLEL_PIPELINE_H_
#define SCDWARF_ETL_PARALLEL_PIPELINE_H_

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dwarf/builder.h"
#include "etl/extractor.h"
#include "etl/tuple_mapper.h"

namespace scdwarf::etl {

/// \brief Pipeline counters.
struct PipelineStats {
  uint64_t documents = 0;
  uint64_t records = 0;
  uint64_t bytes = 0;          ///< raw document bytes consumed
  uint64_t skipped_records = 0;  ///< records dropped by a non-strict pipeline
};

/// \brief Per-stage wall-clock breakdown of one Finish() call.
struct PipelineProfile {
  double drain_ms = 0;       ///< waiting for the workers to finish the queue
  double dict_merge_ms = 0;  ///< dictionary merge + shard remap
  dwarf::BuildProfile build;  ///< sort + construct inside the builder
};

/// \brief Threading knobs of a ParallelCubePipeline.
struct ParallelPipelineOptions {
  /// Worker threads: 0 = auto (SCDWARF_THREADS env override, else
  /// hardware_concurrency). A resolved count of 1 runs one worker thread.
  int num_threads = 0;
};

/// \brief Drives extraction + mapping + cube construction on worker threads.
///
/// A pipeline accepts either format as long as the corresponding extractor
/// was configured; a single cube can fuse XML and JSON feeds of the same
/// logical schema. Because documents are parsed asynchronously, Consume*
/// only fails on configuration errors (missing extractor, already
/// finished); a malformed document or a strict-mode record failure surfaces
/// from Finish() as the error of the *earliest* failing document, and
/// stats() is complete only after Finish().
class ParallelCubePipeline {
 public:
  /// \p strict controls malformed-record policy: strict pipelines fail the
  /// document, lenient ones count and skip the record.
  ParallelCubePipeline(dwarf::CubeSchema schema, TupleMapper mapper,
                       std::optional<XmlExtractor> xml_extractor,
                       std::optional<JsonExtractor> json_extractor,
                       bool strict = true,
                       dwarf::BuilderOptions builder_options = {},
                       ParallelPipelineOptions parallel_options = {});
  ~ParallelCubePipeline();

  ParallelCubePipeline(ParallelCubePipeline&&);
  ParallelCubePipeline& operator=(ParallelCubePipeline&&);

  /// Enqueues one XML document (blocking when the queue is full).
  Status ConsumeXml(std::string document);

  /// Enqueues one JSON document.
  Status ConsumeJson(std::string document);

  /// Drains the workers, merges the shards and constructs the cube. The
  /// pipeline must not be reused afterwards. When \p profile is non-null it
  /// receives the stage timings.
  Result<dwarf::DwarfCube> Finish(PipelineProfile* profile = nullptr) &&;

  /// Counters. documents/bytes are live; records/skipped_records are
  /// complete once Finish() returns (workers may still be mapping before).
  PipelineStats stats() const;

  /// Resolved worker count; unchanged by Finish().
  int num_threads() const { return num_threads_; }

 private:
  struct State;

  Status Enqueue(bool is_json, std::string document);
  void JoinWorkers();

  int num_threads_ = 0;
  std::unique_ptr<State> state_;
  std::vector<std::thread> workers_;
};

/// \brief The evaluation's 8-dimension bikes cube schema:
/// Month > Date > Weekday > Hour > Area > Station > Status > DockGroup,
/// measure SUM(available_bikes). Dimension order follows DWARF practice:
/// low-cardinality dimensions first maximize prefix sharing.
dwarf::CubeSchema MakeBikesCubeSchema();

/// \brief The extraction field specs of the bikes feed.
std::vector<FieldSpec> BikesFieldSpecs();

/// \brief The record-field -> dimension mappings of the bikes cube.
std::vector<DimensionMapping> BikesDimensionMappings();

/// \brief Pipeline for the XML bikes feed (bike_feed.h) over
/// MakeBikesCubeSchema().
Result<ParallelCubePipeline> MakeBikesXmlParallelPipeline(
    dwarf::BuilderOptions builder_options = {},
    ParallelPipelineOptions parallel_options = {});

/// \brief Same pipeline reading the JSON variant of the feed.
Result<ParallelCubePipeline> MakeBikesJsonParallelPipeline(
    dwarf::BuilderOptions builder_options = {},
    ParallelPipelineOptions parallel_options = {});

}  // namespace scdwarf::etl

#endif  // SCDWARF_ETL_PARALLEL_PIPELINE_H_
