// Multi-source smart-city fusion: the paper's introduction motivates cubes
// "fused from multiple sources" — bikes, car parks, air quality, auctions.
// This example builds one cube per feed (XML and JSON side by side) plus a
// fused city-activity cube with a Source dimension, then cross-queries them.

#include <iostream>

#include "citibikes/bike_feed.h"
#include "citibikes/other_feeds.h"
#include "dwarf/builder.h"
#include "dwarf/query.h"
#include "etl/extractor.h"
#include "etl/parallel_pipeline.h"
#include "etl/tuple_mapper.h"

using namespace scdwarf;

namespace {

Result<dwarf::DwarfCube> BuildCarParkCube() {
  dwarf::CubeSchema schema("carparks",
                           {dwarf::DimensionSpec("Date"),
                            dwarf::DimensionSpec("Hour"),
                            dwarf::DimensionSpec("Zone"),
                            dwarf::DimensionSpec("CarPark")},
                           "free_spaces", dwarf::AggFn::kMin);
  SCD_ASSIGN_OR_RETURN(
      etl::TupleMapper mapper,
      etl::TupleMapper::Create(schema,
                               {{"updated", etl::Transform::kDate},
                                {"updated", etl::Transform::kHour},
                                {"zone"},
                                {"name"}},
                               "free_spaces"));
  SCD_ASSIGN_OR_RETURN(
      etl::XmlExtractor extractor,
      etl::XmlExtractor::Create(
          "carpark",
          {{"name", "name", etl::FieldScope::kRecord, true, ""},
           {"zone", "zone", etl::FieldScope::kRecord, true, ""},
           {"free_spaces", "free_spaces", etl::FieldScope::kRecord, true, ""},
           {"updated", "updated", etl::FieldScope::kRecord, true, ""}}));
  etl::ParallelCubePipeline pipeline(schema, std::move(mapper),
                                     std::move(extractor), std::nullopt);
  citibikes::CarParkFeedGenerator feed(12, {2016, 1, 5, 6, 0, 0}, 1800, 11);
  for (int tick = 0; tick < 36; ++tick) {  // 6:00 .. 24:00, half-hourly
    SCD_RETURN_IF_ERROR(pipeline.ConsumeXml(feed.NextXml()));
  }
  return std::move(pipeline).Finish();
}

Result<dwarf::DwarfCube> BuildAirQualityCube() {
  dwarf::CubeSchema schema("air",
                           {dwarf::DimensionSpec("Date"),
                            dwarf::DimensionSpec("Hour"),
                            dwarf::DimensionSpec("Zone"),
                            dwarf::DimensionSpec("Site")},
                           "pm25_index", dwarf::AggFn::kMax);
  SCD_ASSIGN_OR_RETURN(
      etl::TupleMapper mapper,
      etl::TupleMapper::Create(schema,
                               {{"measured_at", etl::Transform::kDate},
                                {"measured_at", etl::Transform::kHour},
                                {"zone"},
                                {"site"}},
                               "index"));
  SCD_ASSIGN_OR_RETURN(
      etl::JsonExtractor extractor,
      etl::JsonExtractor::Create(
          "readings",
          {{"site", "site", etl::FieldScope::kRecord, true, ""},
           {"zone", "zone", etl::FieldScope::kRecord, true, ""},
           {"index", "index", etl::FieldScope::kRecord, true, ""},
           {"measured_at", "measured_at", etl::FieldScope::kRecord, true, ""}}));
  etl::ParallelCubePipeline pipeline(schema, std::move(mapper), std::nullopt,
                                     std::move(extractor));
  citibikes::AirQualityFeedGenerator feed(8, {2016, 1, 5, 6, 0, 0}, 3600, 12);
  for (int tick = 0; tick < 18; ++tick) {
    SCD_RETURN_IF_ERROR(pipeline.ConsumeJson(feed.NextJson()));
  }
  return std::move(pipeline).Finish();
}

Result<dwarf::DwarfCube> BuildAuctionCube() {
  dwarf::CubeSchema schema("auctions",
                           {dwarf::DimensionSpec("Date"),
                            dwarf::DimensionSpec("Category"),
                            dwarf::DimensionSpec("SellerBand")},
                           "price", dwarf::AggFn::kSum);
  SCD_ASSIGN_OR_RETURN(
      etl::TupleMapper mapper,
      etl::TupleMapper::Create(schema,
                               {{"closed_at", etl::Transform::kDate},
                                {"category"},
                                {"seller_band"}},
                               "price"));
  SCD_ASSIGN_OR_RETURN(
      etl::XmlExtractor extractor,
      etl::XmlExtractor::Create(
          "lot", {{"category", "category", etl::FieldScope::kRecord, true, ""},
                  {"seller_band", "seller_band", etl::FieldScope::kRecord, true,
                   ""},
                  {"price", "price", etl::FieldScope::kRecord, true, ""},
                  {"closed_at", "closed_at", etl::FieldScope::kRecord, true,
                   ""}}));
  etl::ParallelCubePipeline pipeline(schema, std::move(mapper),
                                     std::move(extractor), std::nullopt);
  citibikes::AuctionFeedGenerator feed({2016, 1, 5, 9, 0, 0}, 13);
  for (int batch = 0; batch < 12; ++batch) {
    SCD_RETURN_IF_ERROR(pipeline.ConsumeXml(feed.NextXml(25)));
  }
  return std::move(pipeline).Finish();
}

/// The fused cube: one COUNT cube over (Source, Zone, Hour) built from the
/// bikes and car-park feeds together — the "data cubes, fused from multiple
/// sources" of the abstract.
Result<dwarf::DwarfCube> BuildFusedActivityCube() {
  dwarf::CubeSchema schema("city_activity",
                           {dwarf::DimensionSpec("Source"),
                            dwarf::DimensionSpec("Zone"),
                            dwarf::DimensionSpec("Hour")},
                           "events", dwarf::AggFn::kCount);
  dwarf::DwarfBuilder builder(schema);

  citibikes::BikeFeedConfig bike_config;
  bike_config.num_stations = 20;
  bike_config.target_records = 600;
  bike_config.start = {2016, 1, 5, 0, 0, 0};
  citibikes::BikeFeedGenerator bikes(bike_config);
  SCD_ASSIGN_OR_RETURN(
      etl::XmlExtractor bike_extractor,
      etl::XmlExtractor::Create(
          "station",
          {{"area", "area", etl::FieldScope::kRecord, true, ""},
           {"last_update", "last_update", etl::FieldScope::kRecord, true, ""}}));
  while (bikes.HasNext()) {
    SCD_ASSIGN_OR_RETURN(std::vector<etl::FeedRecord> records,
                         bike_extractor.Extract(bikes.NextXml()));
    for (const etl::FeedRecord& record : records) {
      SCD_ASSIGN_OR_RETURN(std::string hour,
                           etl::ApplyTransform(etl::Transform::kHour,
                                               *record.Get("last_update")));
      SCD_RETURN_IF_ERROR(
          builder.AddTuple({"bikes", *record.Get("area"), hour}, 1));
    }
  }

  citibikes::CarParkFeedGenerator carparks(12, {2016, 1, 5, 0, 0, 0}, 1800, 11);
  SCD_ASSIGN_OR_RETURN(
      etl::XmlExtractor carpark_extractor,
      etl::XmlExtractor::Create(
          "carpark",
          {{"zone", "zone", etl::FieldScope::kRecord, true, ""},
           {"updated", "updated", etl::FieldScope::kRecord, true, ""}}));
  for (int tick = 0; tick < 30; ++tick) {
    SCD_ASSIGN_OR_RETURN(std::vector<etl::FeedRecord> records,
                         carpark_extractor.Extract(carparks.NextXml()));
    for (const etl::FeedRecord& record : records) {
      SCD_ASSIGN_OR_RETURN(
          std::string hour,
          etl::ApplyTransform(etl::Transform::kHour, *record.Get("updated")));
      SCD_RETURN_IF_ERROR(
          builder.AddTuple({"carparks", *record.Get("zone"), hour}, 1));
    }
  }
  return std::move(builder).Build();
}

void PrintRollup(const dwarf::DwarfCube& cube, const std::string& title,
                 const std::vector<size_t>& dims) {
  auto rows = dwarf::RollUp(cube, dims);
  if (!rows.ok()) {
    std::cerr << rows.status() << "\n";
    return;
  }
  std::cout << title << "\n";
  for (const dwarf::SliceRow& row : *rows) {
    std::cout << "  ";
    for (size_t i = 0; i < row.keys.size(); ++i) {
      if (i > 0) std::cout << " / ";
      std::cout << row.keys[i];
    }
    std::cout << " -> " << row.measure << "\n";
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  auto carparks = BuildCarParkCube();
  auto air = BuildAirQualityCube();
  auto auctions = BuildAuctionCube();
  auto fused = BuildFusedActivityCube();
  for (const Status& status : {carparks.status(), air.status(),
                               auctions.status(), fused.status()}) {
    if (!status.ok()) {
      std::cerr << "cube construction failed: " << status << "\n";
      return 1;
    }
  }

  std::cout << "Built 4 cubes from 3 source formats:\n"
            << "  carparks (XML):  " << carparks->num_nodes() << " nodes\n"
            << "  air (JSON):      " << air->num_nodes() << " nodes\n"
            << "  auctions (XML):  " << auctions->num_nodes() << " nodes\n"
            << "  fused activity:  " << fused->num_nodes() << " nodes\n\n";

  PrintRollup(*carparks, "Minimum free car-park spaces by zone (MIN):", {2});
  PrintRollup(*air, "Worst PM2.5 index by zone (MAX):", {2});
  PrintRollup(*auctions, "Auction revenue by category (SUM):", {1});
  PrintRollup(*fused, "City activity records by source (COUNT):", {0});

  // A cross-source comparison: zone activity vs worst air quality.
  std::cout << "Zone report (activity events vs worst PM2.5):\n";
  auto activity = dwarf::RollUp(*fused, {1});
  if (activity.ok()) {
    for (const dwarf::SliceRow& row : *activity) {
      std::vector<std::optional<std::string>> query = {std::nullopt,
                                                       std::nullopt,
                                                       std::nullopt,
                                                       std::nullopt};
      query[2] = row.keys[0];
      auto pm25 = dwarf::PointQueryByName(*air, query);
      std::cout << "  " << row.keys[0] << ": " << row.measure << " events, "
                << (pm25.ok() ? "PM2.5 max " + std::to_string(*pm25)
                              : "no air sensor")
                << "\n";
    }
  }
  return 0;
}
