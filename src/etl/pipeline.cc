#include "etl/pipeline.h"

#include "common/stopwatch.h"
#include "common/trace.h"
#include "etl/etl_metrics.h"

namespace scdwarf::etl {

CubePipeline::CubePipeline(dwarf::CubeSchema schema, TupleMapper mapper,
                           std::optional<XmlExtractor> xml_extractor,
                           std::optional<JsonExtractor> json_extractor,
                           bool strict, dwarf::BuilderOptions builder_options)
    : mapper_(std::move(mapper)),
      xml_extractor_(std::move(xml_extractor)),
      json_extractor_(std::move(json_extractor)),
      strict_(strict),
      builder_(std::move(schema), builder_options) {}

Status CubePipeline::ConsumeRecords(const std::vector<FeedRecord>& records) {
  for (const FeedRecord& record : records) {
    auto mapped = mapper_.Map(record);
    if (!mapped.ok()) {
      if (strict_) return mapped.status();
      ++stats_.skipped_records;
      SkippedRecordsCounter()->Increment();
      continue;
    }
    SCD_RETURN_IF_ERROR(builder_.AddTuple(mapped->first, mapped->second));
    ++stats_.records;
  }
  RecordsCounter()->Increment(records.size());
  return Status::OK();
}

Status CubePipeline::ConsumeXml(std::string_view document) {
  if (!xml_extractor_.has_value()) {
    return Status::FailedPrecondition("pipeline has no XML extractor");
  }
  trace::ScopedSpan span("etl.parse");
  Stopwatch watch;
  SCD_ASSIGN_OR_RETURN(std::vector<FeedRecord> records,
                       xml_extractor_->Extract(document));
  ++stats_.documents;
  stats_.bytes += document.size();
  DocumentsCounter(/*is_json=*/false)->Increment();
  BytesCounter()->Increment(document.size());
  Status status = ConsumeRecords(records);
  ParseHistogram()->Record(watch.ElapsedMicros());
  return status;
}

Status CubePipeline::ConsumeJson(std::string_view document) {
  if (!json_extractor_.has_value()) {
    return Status::FailedPrecondition("pipeline has no JSON extractor");
  }
  trace::ScopedSpan span("etl.parse");
  Stopwatch watch;
  SCD_ASSIGN_OR_RETURN(std::vector<FeedRecord> records,
                       json_extractor_->Extract(document));
  ++stats_.documents;
  stats_.bytes += document.size();
  DocumentsCounter(/*is_json=*/true)->Increment();
  BytesCounter()->Increment(document.size());
  Status status = ConsumeRecords(records);
  ParseHistogram()->Record(watch.ElapsedMicros());
  return status;
}

Result<dwarf::DwarfCube> CubePipeline::Finish(PipelineProfile* profile) && {
  return std::move(builder_).Build(profile == nullptr ? nullptr
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

Result<CubePipeline> MakeBikesXmlPipeline(
    dwarf::BuilderOptions builder_options) {
  dwarf::CubeSchema schema = MakeBikesCubeSchema();
  SCD_ASSIGN_OR_RETURN(
      TupleMapper mapper,
      TupleMapper::Create(schema, BikesDimensionMappings(), "available_bikes"));
  SCD_ASSIGN_OR_RETURN(XmlExtractor extractor,
                       XmlExtractor::Create("station", BikesFieldSpecs()));
  return CubePipeline(std::move(schema), std::move(mapper), std::move(extractor),
                      std::nullopt, /*strict=*/true, builder_options);
}

Result<CubePipeline> MakeBikesJsonPipeline(
    dwarf::BuilderOptions builder_options) {
  dwarf::CubeSchema schema = MakeBikesCubeSchema();
  SCD_ASSIGN_OR_RETURN(
      TupleMapper mapper,
      TupleMapper::Create(schema, BikesDimensionMappings(), "available_bikes"));
  SCD_ASSIGN_OR_RETURN(JsonExtractor extractor,
                       JsonExtractor::Create("stations", BikesFieldSpecs()));
  return CubePipeline(std::move(schema), std::move(mapper), std::nullopt,
                      std::move(extractor), /*strict=*/true, builder_options);
}

}  // namespace scdwarf::etl
