#include <gtest/gtest.h>

#include "citibikes/bike_feed.h"
#include "citibikes/other_feeds.h"
#include "common/civil_time.h"
#include "common/rng.h"
#include "common/strings.h"
#include "dwarf/query.h"
#include "etl/extractor.h"
#include "etl/parallel_pipeline.h"
#include "etl/tuple_mapper.h"
#include "xml/xml_parser.h"

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

// ------------------------------------ streaming extractor against the DOM

/// The DOM reference for XmlExtractor::Extract: parse the whole document,
/// select the records with XmlPath::SelectElements and every field with
/// SelectFirstValue, then apply the required/default policy.
Result<std::vector<FeedRecord>> DomExtract(std::string_view document,
                                           const std::string& record_path,
                                           const std::vector<FieldSpec>& fields) {
  SCD_ASSIGN_OR_RETURN(xml::XmlDocument parsed, xml::ParseXml(document));
  SCD_ASSIGN_OR_RETURN(xml::XmlPath records, xml::XmlPath::Compile(record_path));
  std::vector<xml::XmlPath> paths;
  for (const FieldSpec& field : fields) {
    SCD_ASSIGN_OR_RETURN(xml::XmlPath path, xml::XmlPath::Compile(field.path));
    paths.push_back(std::move(path));
  }
  const xml::XmlElement& root = *parsed.root();
  std::vector<FeedRecord> out;
  for (const xml::XmlElement* element : records.SelectElements(root)) {
    FeedRecord record;
    for (size_t i = 0; i < fields.size(); ++i) {
      const FieldSpec& field = fields[i];
      auto value = paths[i].SelectFirstValue(
          field.scope == FieldScope::kDocument ? root : *element);
      if (value.ok()) {
        record.Set(field.name, *std::move(value));
      } else if (field.required) {
        return Status::NotFound("required field '" + field.name +
                                "' missing (path '" + field.path + "')");
      } else {
        record.Set(field.name, field.default_value);
      }
    }
    out.push_back(std::move(record));
  }
  return out;
}

struct ExtractionSpec {
  std::string record_path;
  std::vector<FieldSpec> fields;
};

void ExpectExtractsLikeDom(const ExtractionSpec& spec,
                           std::string_view document) {
  auto extractor = XmlExtractor::Create(spec.record_path, spec.fields);
  ASSERT_TRUE(extractor.ok()) << extractor.status();
  auto expected = DomExtract(document, spec.record_path, spec.fields);
  auto actual = extractor->Extract(document);
  ASSERT_EQ(actual.ok(), expected.ok())
      << "record path " << spec.record_path << "\nexpected "
      << expected.status() << "\nactual " << actual.status() << "\n"
      << document;
  if (!expected.ok()) {
    EXPECT_EQ(actual.status(), expected.status()) << document;
    return;
  }
  ASSERT_EQ(actual->size(), expected->size())
      << "record path " << spec.record_path << "\n" << document;
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ((*actual)[i].fields(), (*expected)[i].fields())
        << "record " << i << " of path " << spec.record_path << "\n"
        << document;
  }
}

TEST(XmlExtractorDomTest, FeedsExtractLikeTheDom) {
  citibikes::BikeFeedConfig config;
  config.num_stations = 12;
  config.target_records = 60;
  citibikes::BikeFeedGenerator bikes(config);
  ExtractionSpec bikes_spec{"station", BikesFieldSpecs()};
  bikes_spec.fields.push_back(
      {"city", "@city", FieldScope::kDocument, true, ""});
  while (bikes.HasNext()) ExpectExtractsLikeDom(bikes_spec, bikes.NextXml());

  citibikes::CarParkFeedGenerator carparks(6, {2016, 1, 5, 6, 0, 0}, 1800, 11);
  ExtractionSpec carpark_spec{
      "carpark",
      {{"name", "name", FieldScope::kRecord, true, ""},
       {"zone", "zone", FieldScope::kRecord, true, ""},
       {"free_spaces", "free_spaces", FieldScope::kRecord, true, ""},
       {"updated", "updated", FieldScope::kRecord, true, ""},
       {"snapshot", "@updated", FieldScope::kDocument, true, ""}}};
  for (int tick = 0; tick < 4; ++tick) {
    ExpectExtractsLikeDom(carpark_spec, carparks.NextXml());
  }

  citibikes::AuctionFeedGenerator auctions({2016, 1, 5, 9, 0, 0}, 13);
  ExtractionSpec auction_spec{
      "lot",
      {{"id", "@id", FieldScope::kRecord, true, ""},
       {"category", "category", FieldScope::kRecord, true, ""},
       {"seller_band", "seller_band", FieldScope::kRecord, true, ""},
       {"price", "price", FieldScope::kRecord, true, ""},
       {"closed_at", "closed_at", FieldScope::kRecord, true, ""},
       {"batch", "@closed", FieldScope::kDocument, true, ""}}};
  for (int batch = 0; batch < 4; ++batch) {
    ExpectExtractsLikeDom(auction_spec, auctions.NextXml(7));
  }
}

/// Random documents over a five-name pool, so record and field paths match
/// at their own depth and decoys sit at the others. Content mixes text split
/// around child elements with entities, CDATA, comments and PIs.
class RandomXmlWriter {
 public:
  explicit RandomXmlWriter(uint64_t seed) : rng_(seed) {}

  std::string Document() {
    std::string out;
    if (rng_.NextBool(0.5)) out += "<?xml version=\"1.0\"?>\n";
    if (rng_.NextBool(0.3)) out += "<!-- prolog -->";
    if (rng_.NextBool(0.2)) out += "<!DOCTYPE doc SYSTEM \"doc.dtd\">";
    out += "<doc";
    Attributes(&out);
    out += ">";
    size_t items = 2 + rng_.NextBelow(7);
    for (size_t i = 0; i < items; ++i) {
      if (rng_.NextBool(0.7)) {
        const char* top[] = {"r", "g", "f", "r", "g", "a"};
        Element(top[rng_.NextBelow(6)], 1, &out);
      } else {
        Text(&out);
      }
    }
    out += "</doc>";
    if (rng_.NextBool(0.3)) out += "\n<!-- trailer --><?done?>\n";
    return out;
  }

 private:
  void Attributes(std::string* out) {
    const char* names[] = {"k", "z", "q"};
    const char* values[] = {"1", "x y", "a&amp;b", "&lt;&#65;", "", "7"};
    for (const char* name : names) {
      if (!rng_.NextBool(0.35)) continue;
      std::string quote = rng_.NextBool(0.5) ? "\"" : "'";
      *out += std::string(" ") + name + "=" + quote +
              values[rng_.NextBelow(6)] + quote;
    }
  }

  void Text(std::string* out) {
    const char* pieces[] = {"v1",
                            " spaced out ",
                            "\n  ",
                            "a&amp;b",
                            "&#x42;&#67;",
                            "&quot;q&apos;",
                            "<![CDATA[ <raw> & ]]>",
                            "<!-- note -->",
                            "<?pi data?>",
                            "7"};
    *out += pieces[rng_.NextBelow(10)];
  }

  void Element(const std::string& name, int depth, std::string* out) {
    *out += "<" + name;
    Attributes(out);
    if (rng_.NextBool(0.15)) {
      *out += "/>";
      return;
    }
    *out += ">";
    size_t items = rng_.NextBelow(depth >= 4 ? 3 : 6);
    for (size_t i = 0; i < items; ++i) {
      if (depth < 4 && rng_.NextBool(0.5)) {
        const char* names[] = {"r", "f", "g", "a", "b"};
        Element(names[rng_.NextBelow(5)], depth + 1, out);
      } else {
        Text(out);
      }
    }
    *out += "</" + name + ">";
  }

  Rng rng_;
};

ExtractionSpec RandomSpec(Rng* rng) {
  const char* record_paths[] = {"r",   "g/r",   "*/r", "g/*",
                                "*",   "r/@k",  "@k",  "g/r/@z"};
  const char* record_fields[] = {"f", "a/f", "*/f", "@k",  "f/@z",
                                 "*", "a/*", "b",   "r/f", "@q"};
  const char* document_fields[] = {"f",   "g/f",   "@k",    "g/@q",
                                   "*/f", "g/r/f", "@z",    "a/f/@k"};
  ExtractionSpec spec;
  spec.record_path = record_paths[rng->NextBelow(8)];
  size_t count = 1 + rng->NextBelow(5);
  for (size_t i = 0; i < count; ++i) {
    FieldSpec field;
    // A repeated name keeps the first field's value (FeedRecord::Set).
    field.name = "n" + std::to_string(rng->NextBelow(4));
    if (rng->NextBool(0.3)) {
      field.scope = FieldScope::kDocument;
      field.path = document_fields[rng->NextBelow(8)];
    } else {
      field.path = record_fields[rng->NextBelow(10)];
    }
    field.required = rng->NextBool(0.25);
    field.default_value = field.required ? "" : "dflt";
    spec.fields.push_back(std::move(field));
  }
  return spec;
}

class XmlExtractorDomFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlExtractorDomFuzzTest, RandomDocumentsExtractLikeTheDom) {
  Rng rng(GetParam());
  RandomXmlWriter writer(GetParam() * 7919);
  for (int trial = 0; trial < 400; ++trial) {
    std::string document = writer.Document();
    for (int spec = 0; spec < 4; ++spec) {
      ExpectExtractsLikeDom(RandomSpec(&rng), document);
    }
  }
}

TEST_P(XmlExtractorDomFuzzTest, MalformedDocumentsFailLikeTheDom) {
  // ParserFuzzTest's fragments, concatenated, truncated into and spliced
  // into well-formed documents: Extract must report ParseXml's status.
  const char* fragments[] = {"<",    ">",   "</",  "/>",  "station", "\"",
                             "'",    "&",   ";",   "{",   "}",       "[",
                             "]",    ":",   ",",   "=",   "null",    "1e9",
                             "<!--", "-->", "<![CDATA[", "]]>", "&#x41;",
                             "\\u0041"};
  constexpr size_t kNumFragments = sizeof(fragments) / sizeof(fragments[0]);
  Rng rng(GetParam() ^ 0xbadULL);
  RandomXmlWriter writer(GetParam() * 104729);
  ExtractionSpec spec{"station",
                      {{"n", "station", FieldScope::kRecord, false, "d"},
                       {"k", "@k", FieldScope::kDocument, false, "d"}}};
  for (int trial = 0; trial < 300; ++trial) {
    std::string input;
    switch (trial % 3) {
      case 0: {
        size_t pieces = rng.NextBelow(30);
        for (size_t i = 0; i < pieces; ++i) {
          input += fragments[rng.NextBelow(kNumFragments)];
        }
        break;
      }
      case 1: {
        std::string document = writer.Document();
        input = document.substr(0, rng.NextBelow(document.size() + 1));
        break;
      }
      default: {
        input = writer.Document();
        input.insert(rng.NextBelow(input.size() + 1),
                     fragments[rng.NextBelow(kNumFragments)]);
        break;
      }
    }
    ExpectExtractsLikeDom(spec, input);
    ExpectExtractsLikeDom(RandomSpec(&rng), input);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlExtractorDomFuzzTest,
                         ::testing::Values(3, 17, 101));

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
  // Buckets whose bounds leave int64 are rejected, like literals outside it.
  EXPECT_TRUE(ApplyTransform(Transform::kBucket10, "9223372036854775807")
                  .status()
                  .IsOutOfRange());
  EXPECT_TRUE(ApplyTransform(Transform::kBucket10, "-9223372036854775808")
                  .status()
                  .IsOutOfRange());
  EXPECT_EQ(*ApplyTransform(Transform::kBucket10, "9223372036854775799"),
            "9223372036854775790-9223372036854775799");
  EXPECT_EQ(*ApplyTransform(Transform::kBucket10, "-9223372036854775800"),
            "-9223372036854775800--9223372036854775791");
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

/// The reference for TupleMapper::Map: one ApplyTransform per dimension,
/// then the measure, stopping at the first error.
Result<std::pair<std::vector<std::string>, dwarf::Measure>> PerDimensionMap(
    const std::vector<DimensionMapping>& dimensions,
    const std::string& measure_field, const FeedRecord& record) {
  std::vector<std::string> keys;
  for (const DimensionMapping& dimension : dimensions) {
    SCD_ASSIGN_OR_RETURN(std::string raw, record.Get(dimension.field));
    auto key = ApplyTransform(dimension.transform, raw);
    if (!key.ok()) {
      return key.status().WithContext("field '" + dimension.field + "'");
    }
    keys.push_back(*std::move(key));
  }
  SCD_ASSIGN_OR_RETURN(std::string measure_raw, record.Get(measure_field));
  auto measure = ParseInt64(measure_raw);
  if (!measure.ok()) {
    return measure.status().WithContext("measure field '" + measure_field +
                                        "'");
  }
  return std::make_pair(std::move(keys), *measure);
}

TEST(TupleMapperTest, MapMatchesPerDimensionTransforms) {
  Rng rng(2016);
  const Transform transforms[] = {
      Transform::kIdentity, Transform::kMonthName, Transform::kDate,
      Transform::kWeekday,  Transform::kHour,      Transform::kBucket10,
      Transform::kBucket100};
  const char* timestamps[] = {"2016-01-05T08:00:00", "2016-02-29 23:59",
                              "2015-02-29T00:00:00", "nope",
                              "",                    "2016-13-01",
                              " 2016-07-04 ",        "1999-12-31T23:59:59",
                              "-5-03-04T05:06:07",   "12345-06-07T01:02:03",
                              "0999-10-11",          "2016-01-05T24:00"};
  const char* numbers[] = {"25", "-5", "abc", "0", " 120 ", "-100", "9x"};
  const char* measures[] = {"3", "-7", "lots", "", "99999999999999999999"};
  for (int trial = 0; trial < 3000; ++trial) {
    // Several dimensions read one timestamp field; a second timestamp
    // field and the numeric fields feed the rest.
    size_t num_dims = 1 + rng.NextBelow(8);
    std::vector<dwarf::DimensionSpec> specs;
    std::vector<DimensionMapping> dimensions;
    for (size_t d = 0; d < num_dims; ++d) {
      specs.emplace_back("d" + std::to_string(d));
      Transform transform = transforms[rng.NextBelow(7)];
      const char* fields[] = {"t1", "t1", "t2", "n", "s"};
      dimensions.emplace_back(fields[rng.NextBelow(5)], transform);
    }
    auto mapper = TupleMapper::Create(
        dwarf::CubeSchema("random", specs, "m"), dimensions, "m");
    ASSERT_TRUE(mapper.ok()) << mapper.status();

    FeedRecord record;
    auto maybe_set = [&](const char* name, std::string value) {
      if (rng.NextBool(0.93)) record.Set(name, std::move(value));
    };
    auto random_timestamp = [&]() -> std::string {
      if (rng.NextBool(0.5)) return timestamps[rng.NextBelow(12)];
      CivilTime time = CivilFromSeconds(
          static_cast<int64_t>(rng.NextBelow(4'000'000'000ULL)));
      return FormatIso(time);
    };
    maybe_set("t1", random_timestamp());
    maybe_set("t2", random_timestamp());
    maybe_set("n", numbers[rng.NextBelow(7)]);
    maybe_set("s", rng.NextBool(0.5) ? "Fenian St" : "2016-01-05");
    maybe_set("m", measures[rng.NextBelow(5)]);

    auto expected = PerDimensionMap(dimensions, "m", record);
    auto actual = mapper->Map(record);
    ASSERT_EQ(actual.ok(), expected.ok())
        << "trial " << trial << ": expected " << expected.status()
        << ", actual " << actual.status();
    if (!expected.ok()) {
      EXPECT_EQ(actual.status(), expected.status()) << "trial " << trial;
      continue;
    }
    EXPECT_EQ(actual->first, expected->first) << "trial " << trial;
    EXPECT_EQ(actual->second, expected->second) << "trial " << trial;
  }
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
