/// \file parallel_pipeline.h
/// \brief Multi-core front-end for cube construction: incoming XML/JSON
/// documents fan out to worker threads, each running its own extractor +
/// tuple mapper into a per-document tuple shard with local key interning.
/// Finish() merges the shards deterministically — local key ids are remapped
/// into global dictionaries in document order — and hands the tuples to the
/// DwarfBuilder, whose Build()-time sort is itself parallel.
///
/// Determinism guarantee: for the same document sequence the produced cube
/// is identical to CubePipeline's, for any thread count. Dictionary ids are
/// assigned in document (not completion) order, the tuple sequence handed to
/// the builder matches the serial one, and the builder's parallel sort is
/// order-insensitive (total order on keys, commutative aggregates).

#ifndef SCDWARF_ETL_PARALLEL_PIPELINE_H_
#define SCDWARF_ETL_PARALLEL_PIPELINE_H_

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "etl/pipeline.h"

namespace scdwarf::etl {

/// \brief Threading knobs of a ParallelCubePipeline.
struct ParallelPipelineOptions {
  /// Worker threads: 0 = auto (SCDWARF_THREADS env override, else
  /// hardware_concurrency). A resolved count of 1 degrades to the serial
  /// CubePipeline — exact single-threaded semantics, no queue, no threads.
  int num_threads = 0;
};

/// \brief Thread-parallel drop-in for CubePipeline.
///
/// Differences from the serial pipeline, both consequences of asynchrony:
/// Consume* only fails fast on configuration errors (missing extractor,
/// already finished); malformed documents and strict-mode record failures
/// surface at Finish() as the error of the *earliest* failing document, and
/// stats() is complete only after Finish().
class ParallelCubePipeline {
 public:
  /// Parameters mirror CubePipeline; \p parallel_options adds threading.
  ParallelCubePipeline(dwarf::CubeSchema schema, TupleMapper mapper,
                       std::optional<XmlExtractor> xml_extractor,
                       std::optional<JsonExtractor> json_extractor,
                       bool strict = true,
                       dwarf::BuilderOptions builder_options = {},
                       ParallelPipelineOptions parallel_options = {});
  ~ParallelCubePipeline();

  ParallelCubePipeline(ParallelCubePipeline&&) = default;
  ParallelCubePipeline& operator=(ParallelCubePipeline&&) = default;

  /// Enqueues one XML document (blocking when the queue is full).
  Status ConsumeXml(std::string document);

  /// Enqueues one JSON document.
  Status ConsumeJson(std::string document);

  /// Drains the workers, merges the shards and constructs the cube. The
  /// pipeline must not be reused afterwards.
  Result<dwarf::DwarfCube> Finish(PipelineProfile* profile = nullptr) &&;

  /// Counters. documents/bytes are live; records/skipped_records are
  /// complete once Finish() returns (workers may still be mapping before).
  PipelineStats stats() const;

  /// Resolved worker count (1 = serial mode).
  int num_threads() const;

 private:
  struct State;

  Status Enqueue(bool is_json, std::string document);
  void JoinWorkers();

  /// Serial fallback when the resolved thread count is 1.
  std::unique_ptr<CubePipeline> serial_;
  std::unique_ptr<State> state_;
  std::vector<std::thread> workers_;
};

/// \brief Parallel analogue of MakeBikesXmlPipeline.
Result<ParallelCubePipeline> MakeBikesXmlParallelPipeline(
    dwarf::BuilderOptions builder_options = {},
    ParallelPipelineOptions parallel_options = {});

/// \brief Parallel analogue of MakeBikesJsonPipeline.
Result<ParallelCubePipeline> MakeBikesJsonParallelPipeline(
    dwarf::BuilderOptions builder_options = {},
    ParallelPipelineOptions parallel_options = {});

}  // namespace scdwarf::etl

#endif  // SCDWARF_ETL_PARALLEL_PIPELINE_H_
