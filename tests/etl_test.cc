#include <gtest/gtest.h>

#include "citibikes/bike_feed.h"
#include "dwarf/query.h"
#include "etl/extractor.h"
#include "etl/parallel_pipeline.h"
#include "etl/tuple_mapper.h"

namespace scdwarf::etl {
namespace {

// ---------------------------------------------------------------- record

TEST(FeedRecordTest, SetGetHas) {
  FeedRecord record;
  record.Set("name", "Fenian St");
  record.Set("bikes", "3");
  EXPECT_EQ(*record.Get("name"), "Fenian St");
  EXPECT_TRUE(record.Has("bikes"));
  EXPECT_TRUE(record.Get("nope").status().IsNotFound());
  // Duplicate set keeps the first value.
  record.Set("name", "Other");
  EXPECT_EQ(*record.Get("name"), "Fenian St");
}

// ------------------------------------------------------------- extractors

constexpr const char* kSampleXml = R"(
<stations city="Dublin" lastUpdate="2016-01-05T08:00:00">
  <station><id>1</id><name>Fenian St</name><bikes>3</bikes></station>
  <station><id>2</id><name>Pearse St</name><bikes>5</bikes></station>
</stations>)";

TEST(XmlExtractorTest, ExtractsRecordAndDocumentFields) {
  auto extractor = XmlExtractor::Create(
      "station", {{"id", "@x", FieldScope::kRecord, false, "?"},
                  {"name", "name", FieldScope::kRecord, true, ""},
                  {"bikes", "bikes", FieldScope::kRecord, true, ""},
                  {"city", "@city", FieldScope::kDocument, true, ""},
                  {"updated", "@lastUpdate", FieldScope::kDocument, true, ""}});
  ASSERT_TRUE(extractor.ok()) << extractor.status();
  auto records = extractor->Extract(kSampleXml);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ(*(*records)[0].Get("name"), "Fenian St");
  EXPECT_EQ(*(*records)[1].Get("bikes"), "5");
  EXPECT_EQ(*(*records)[0].Get("city"), "Dublin");
  EXPECT_EQ(*(*records)[1].Get("updated"), "2016-01-05T08:00:00");
  // Missing optional attribute falls back to default.
  EXPECT_EQ(*(*records)[0].Get("id"), "?");
}

TEST(XmlExtractorTest, MissingRequiredFieldFails) {
  auto extractor = XmlExtractor::Create(
      "station", {{"nope", "nonexistent", FieldScope::kRecord, true, ""}});
  ASSERT_TRUE(extractor.ok());
  EXPECT_TRUE(extractor->Extract(kSampleXml).status().IsNotFound());
}

TEST(XmlExtractorTest, MalformedDocumentFails) {
  auto extractor = XmlExtractor::Create(
      "station", {{"name", "name", FieldScope::kRecord, true, ""}});
  ASSERT_TRUE(extractor.ok());
  EXPECT_TRUE(extractor->Extract("<broken").status().IsParseError());
}

TEST(XmlExtractorTest, InvalidPathsRejectedAtCreate) {
  EXPECT_FALSE(XmlExtractor::Create(
                   "a//b", {{"f", "x", FieldScope::kRecord, true, ""}})
                   .ok());
  EXPECT_FALSE(
      XmlExtractor::Create("a", {{"f", "", FieldScope::kRecord, true, ""}})
          .ok());
}

constexpr const char* kSampleJson = R"({
  "city": "Dublin",
  "stations": [
    {"id": 1, "name": "Fenian St", "status": {"bikes": 3}},
    {"id": 2, "name": "Pearse St", "status": {"bikes": 5}}
  ]})";

TEST(JsonExtractorTest, ExtractsNestedFields) {
  auto extractor = JsonExtractor::Create(
      "stations", {{"id", "id", FieldScope::kRecord, true, ""},
                   {"name", "name", FieldScope::kRecord, true, ""},
                   {"bikes", "status.bikes", FieldScope::kRecord, true, ""},
                   {"city", "city", FieldScope::kDocument, true, ""}});
  ASSERT_TRUE(extractor.ok()) << extractor.status();
  auto records = extractor->Extract(kSampleJson);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ(*(*records)[0].Get("bikes"), "3");
  EXPECT_EQ(*(*records)[1].Get("name"), "Pearse St");
  EXPECT_EQ(*(*records)[0].Get("city"), "Dublin");
}

TEST(JsonExtractorTest, NonArrayRecordsPathFails) {
  auto extractor = JsonExtractor::Create(
      "city", {{"f", "id", FieldScope::kRecord, true, ""}});
  ASSERT_TRUE(extractor.ok());
  EXPECT_TRUE(extractor->Extract(kSampleJson).status().IsInvalidArgument());
}

// ------------------------------------------------------------- transforms

TEST(TransformTest, CalendarDerivations) {
  EXPECT_EQ(*ApplyTransform(Transform::kMonthName, "2016-01-05T08:00:00"),
            "January");
  EXPECT_EQ(*ApplyTransform(Transform::kDate, "2016-01-05T08:00:00"),
            "2016-01-05");
  EXPECT_EQ(*ApplyTransform(Transform::kWeekday, "2016-01-05T08:00:00"),
            "Tuesday");
  EXPECT_EQ(*ApplyTransform(Transform::kHour, "2016-01-05T08:00:00"), "08");
  EXPECT_EQ(*ApplyTransform(Transform::kHour, "2016-01-05T23:59:59"), "23");
}

TEST(TransformTest, Buckets) {
  EXPECT_EQ(*ApplyTransform(Transform::kBucket10, "25"), "20-29");
  EXPECT_EQ(*ApplyTransform(Transform::kBucket10, "30"), "30-39");
  EXPECT_EQ(*ApplyTransform(Transform::kBucket10, "-5"), "-10--1");
  EXPECT_EQ(*ApplyTransform(Transform::kBucket100, "250"), "200-299");
}

TEST(TransformTest, IdentityAndErrors) {
  EXPECT_EQ(*ApplyTransform(Transform::kIdentity, "anything"), "anything");
  EXPECT_FALSE(ApplyTransform(Transform::kMonthName, "not a date").ok());
  EXPECT_FALSE(ApplyTransform(Transform::kBucket10, "abc").ok());
}

// ------------------------------------------------------------ tuple mapper

dwarf::CubeSchema SmallSchema() {
  return dwarf::CubeSchema(
      "s", {dwarf::DimensionSpec("Weekday"), dwarf::DimensionSpec("Station")},
      "bikes");
}

TEST(TupleMapperTest, MapsRecord) {
  auto mapper = TupleMapper::Create(
      SmallSchema(),
      {{"updated", Transform::kWeekday}, {"name", Transform::kIdentity}},
      "bikes");
  ASSERT_TRUE(mapper.ok()) << mapper.status();
  FeedRecord record;
  record.Set("updated", "2016-01-05T08:00:00");
  record.Set("name", "Fenian St");
  record.Set("bikes", "3");
  auto mapped = mapper->Map(record);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(mapped->first, (std::vector<std::string>{"Tuesday", "Fenian St"}));
  EXPECT_EQ(mapped->second, 3);
}

TEST(TupleMapperTest, CreateValidation) {
  EXPECT_FALSE(TupleMapper::Create(SmallSchema(), {{"a"}}, "m").ok());
  EXPECT_FALSE(TupleMapper::Create(SmallSchema(), {{"a"}, {""}}, "m").ok());
  EXPECT_FALSE(TupleMapper::Create(SmallSchema(), {{"a"}, {"b"}}, "").ok());
}

TEST(TupleMapperTest, MapErrors) {
  auto mapper =
      TupleMapper::Create(SmallSchema(), {{"updated", Transform::kWeekday},
                                          {"name"}},
                          "bikes");
  ASSERT_TRUE(mapper.ok());
  FeedRecord missing;
  missing.Set("updated", "2016-01-05");
  missing.Set("bikes", "3");
  EXPECT_TRUE(mapper->Map(missing).status().IsNotFound());

  FeedRecord bad_measure;
  bad_measure.Set("updated", "2016-01-05");
  bad_measure.Set("name", "x");
  bad_measure.Set("bikes", "lots");
  EXPECT_FALSE(mapper->Map(bad_measure).ok());

  FeedRecord bad_date;
  bad_date.Set("updated", "nope");
  bad_date.Set("name", "x");
  bad_date.Set("bikes", "3");
  EXPECT_FALSE(mapper->Map(bad_date).ok());
}

// --------------------------------------------------------------- pipeline

TEST(PipelineTest, BikesXmlEndToEnd) {
  citibikes::BikeFeedConfig config;
  config.num_stations = 8;
  config.target_records = 200;
  citibikes::BikeFeedGenerator feed(config);
  auto pipeline = MakeBikesXmlParallelPipeline();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  while (feed.HasNext()) {
    ASSERT_TRUE(pipeline->ConsumeXml(feed.NextXml()).ok());
  }
  auto cube = std::move(*pipeline).Finish();
  ASSERT_TRUE(cube.ok()) << cube.status();
  EXPECT_EQ(pipeline->stats().records, 200u);
  EXPECT_EQ(pipeline->stats().documents, feed.documents_emitted());
  EXPECT_EQ(pipeline->stats().bytes, feed.bytes_emitted());
  EXPECT_EQ(cube->num_dimensions(), 8u);
  EXPECT_EQ(cube->stats().source_tuple_count, 200u);
  // Grand total exists.
  std::vector<std::optional<dwarf::DimKey>> all(8, std::nullopt);
  EXPECT_TRUE(dwarf::PointQuery(*cube, all).ok());
}

TEST(PipelineTest, XmlAndJsonFeedsProduceIdenticalCubes) {
  citibikes::BikeFeedConfig config;
  config.num_stations = 8;
  config.target_records = 160;

  citibikes::BikeFeedGenerator xml_feed(config);
  auto xml_pipeline = MakeBikesXmlParallelPipeline();
  ASSERT_TRUE(xml_pipeline.ok());
  while (xml_feed.HasNext()) {
    ASSERT_TRUE(xml_pipeline->ConsumeXml(xml_feed.NextXml()).ok());
  }
  auto xml_cube = std::move(*xml_pipeline).Finish();
  ASSERT_TRUE(xml_cube.ok());

  citibikes::BikeFeedGenerator json_feed(config);
  auto json_pipeline = MakeBikesJsonParallelPipeline();
  ASSERT_TRUE(json_pipeline.ok());
  while (json_feed.HasNext()) {
    auto status = json_pipeline->ConsumeJson(json_feed.NextJson());
    ASSERT_TRUE(status.ok()) << status;
  }
  auto json_cube = std::move(*json_pipeline).Finish();
  ASSERT_TRUE(json_cube.ok());

  // The paper's "canonical approach": same data through either format gives
  // the same cube.
  EXPECT_TRUE(xml_cube->StructurallyEquals(*json_cube));
}

TEST(PipelineTest, WrongFormatRejected) {
  auto pipeline = MakeBikesXmlParallelPipeline();
  ASSERT_TRUE(pipeline.ok());
  EXPECT_TRUE(pipeline->ConsumeJson("{}").IsFailedPrecondition());
}

TEST(PipelineTest, StrictPipelineFailsOnBadRecord) {
  auto pipeline = MakeBikesXmlParallelPipeline();
  ASSERT_TRUE(pipeline.ok());
  // Well-formed XML whose station lacks required fields. The document is
  // parsed on a worker, so the failure surfaces from Finish().
  ASSERT_TRUE(
      pipeline->ConsumeXml("<stations><station><name>x</name></station>"
                           "</stations>")
          .ok());
  EXPECT_FALSE(std::move(*pipeline).Finish().ok());
}

TEST(PipelineTest, LenientPipelineSkipsBadRecords) {
  dwarf::CubeSchema schema = MakeBikesCubeSchema();
  auto mapper = TupleMapper::Create(
      schema,
      {{"last_update", Transform::kMonthName},
       {"last_update", Transform::kDate},
       {"last_update", Transform::kWeekday},
       {"last_update", Transform::kHour},
       {"area"},
       {"name"},
       {"status"},
       {"bike_stands", Transform::kBucket10}},
      "available_bikes");
  ASSERT_TRUE(mapper.ok());
  auto extractor = XmlExtractor::Create(
      "station",
      {{"name", "name", FieldScope::kRecord, false, ""},
       {"area", "area", FieldScope::kRecord, false, ""},
       {"bike_stands", "bike_stands", FieldScope::kRecord, false, "xx"},
       {"available_bikes", "available_bikes", FieldScope::kRecord, false, "0"},
       {"status", "status", FieldScope::kRecord, false, "UNKNOWN"},
       {"last_update", "last_update", FieldScope::kRecord, false,
        "2016-01-01T00:00:00"}});
  ASSERT_TRUE(extractor.ok());
  ParallelCubePipeline pipeline(schema, std::move(*mapper),
                                std::move(*extractor), std::nullopt,
                                /*strict=*/false);
  // One good record, one with an unparsable bucket field.
  ASSERT_TRUE(pipeline
                  .ConsumeXml(
                      "<stations>"
                      "<station><name>a</name><area>z</area>"
                      "<bike_stands>20</bike_stands>"
                      "<available_bikes>3</available_bikes>"
                      "<status>OPEN</status>"
                      "<last_update>2016-01-05T08:00:00</last_update>"
                      "</station>"
                      "<station><name>b</name><area>z</area>"
                      "<available_bikes>4</available_bikes>"
                      "</station>"
                      "</stations>")
                  .ok());
  ASSERT_TRUE(std::move(pipeline).Finish().ok());
  EXPECT_EQ(pipeline.stats().records, 1u);
  EXPECT_EQ(pipeline.stats().skipped_records, 1u);
}

}  // namespace
}  // namespace scdwarf::etl
