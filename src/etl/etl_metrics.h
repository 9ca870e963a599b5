/// \file etl_metrics.h
/// \brief The ETL front-end's metrics, defined once for CubePipeline and
/// ParallelCubePipeline: both count into the same series.

#ifndef SCDWARF_ETL_ETL_METRICS_H_
#define SCDWARF_ETL_ETL_METRICS_H_

#include "common/histogram.h"
#include "common/metrics.h"

namespace scdwarf::etl {

inline metrics::Counter* DocumentsCounter(bool is_json) {
  static metrics::Counter* const xml = metrics::GlobalRegistry().GetCounter(
      "etl_documents_total", {{"format", "xml"}},
      "feed documents consumed by the ETL front-end");
  static metrics::Counter* const json = metrics::GlobalRegistry().GetCounter(
      "etl_documents_total", {{"format", "json"}},
      "feed documents consumed by the ETL front-end");
  return is_json ? json : xml;
}

inline metrics::Counter* BytesCounter() {
  static metrics::Counter* const counter = metrics::GlobalRegistry().GetCounter(
      "etl_bytes_total", {}, "raw feed bytes consumed");
  return counter;
}

inline metrics::Counter* RecordsCounter() {
  static metrics::Counter* const counter = metrics::GlobalRegistry().GetCounter(
      "etl_records_total", {}, "feed records mapped into cube tuples");
  return counter;
}

inline metrics::Counter* SkippedRecordsCounter() {
  static metrics::Counter* const counter = metrics::GlobalRegistry().GetCounter(
      "etl_skipped_records_total", {},
      "malformed records dropped by non-strict pipelines");
  return counter;
}

inline FixedBucketHistogram* ParseHistogram() {
  static FixedBucketHistogram* const hist =
      metrics::GlobalRegistry().GetHistogram(
          "etl_parse_us", {},
          "per-document extract + map + intern latency (us)");
  return hist;
}

}  // namespace scdwarf::etl

#endif  // SCDWARF_ETL_ETL_METRICS_H_
