// Query primitives over DWARF cubes — the capability the paper's conclusion
// targets ("efficient query primitives for our DWARF cubes"). Demonstrates
// point queries, range/set aggregates, slices and rollups against an
// in-memory cube, and the same queries against a flat-file clustered DWARF
// (Bao et al. [1]) without loading it.
//
// Usage: cube_queries [records]

#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "citibikes/bike_feed.h"
#include "clustered/flat_file.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "dwarf/query.h"
#include "etl/parallel_pipeline.h"

using namespace scdwarf;

int main(int argc, char** argv) {
  uint64_t records = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5000;

  citibikes::BikeFeedConfig config;
  config.target_records = records;
  config.period_seconds = 7 * 24 * 3600;
  citibikes::BikeFeedGenerator feed(config);
  auto pipeline = etl::MakeBikesXmlParallelPipeline();
  if (!pipeline.ok()) {
    std::cerr << pipeline.status() << "\n";
    return 1;
  }
  while (feed.HasNext()) {
    Status status = pipeline->ConsumeXml(feed.NextXml());
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
  }
  auto cube = std::move(*pipeline).Finish();
  if (!cube.ok()) {
    std::cerr << cube.status() << "\n";
    return 1;
  }
  std::cout << "Cube over " << FormatWithCommas(static_cast<int64_t>(records))
            << " records: " << cube->num_nodes() << " nodes\n\n";

  // --- Point queries (fast path through ALL pointers). ---
  Stopwatch watch;
  std::vector<std::optional<std::string>> grand(8, std::nullopt);
  auto total = dwarf::PointQueryByName(*cube, grand);
  std::cout << "Grand total available bikes: "
            << (total.ok() ? std::to_string(*total) : total.status().ToString())
            << "  (" << watch.ElapsedMicros() << " us)\n";

  std::vector<std::optional<std::string>> monday(8, std::nullopt);
  monday[2] = "Monday";
  watch.Restart();
  auto monday_total = dwarf::PointQueryByName(*cube, monday);
  std::cout << "Monday total:                "
            << (monday_total.ok() ? std::to_string(*monday_total) : "n/a")
            << "  (" << watch.ElapsedMicros() << " us)\n";

  // --- Range aggregate: morning rush hours 07-09 on the Hour dimension. ---
  std::vector<dwarf::DimPredicate> rush(8, dwarf::DimPredicate::All());
  {
    std::vector<dwarf::DimKey> hours;
    for (const char* hour : {"07", "08", "09"}) {
      auto key = cube->dictionary(3).Lookup(hour);
      if (key.ok()) hours.push_back(*key);
    }
    rush[3] = dwarf::DimPredicate::Set(hours);
  }
  watch.Restart();
  auto rush_total = dwarf::AggregateQuery(*cube, rush);
  std::cout << "Morning rush (07-09) total:  "
            << (rush_total.ok() ? std::to_string(*rush_total) : "n/a") << "  ("
            << watch.ElapsedMicros() << " us)\n\n";

  // --- Rollup: availability by area. ---
  auto by_area = dwarf::RollUp(*cube, {4});
  if (by_area.ok()) {
    std::cout << "Available bikes by area:\n";
    for (const dwarf::SliceRow& row : *by_area) {
      std::cout << "  " << row.keys[0] << ": " << row.measure << "\n";
    }
    std::cout << "\n";
  }

  // --- Slice: one station across weekdays. ---
  const dwarf::Dictionary& stations = cube->dictionary(5);
  if (stations.size() > 0) {
    std::string station = stations.DecodeUnchecked(0);
    std::vector<std::optional<std::string>> query(8, std::nullopt);
    query[5] = station;
    std::cout << "Weekday profile of '" << station << "':\n";
    for (const char* day : {"Monday", "Tuesday", "Wednesday", "Thursday",
                            "Friday", "Saturday", "Sunday"}) {
      query[2] = day;
      auto value = dwarf::PointQueryByName(*cube, query);
      std::cout << "  " << day << ": "
                << (value.ok() ? std::to_string(*value) : "-") << "\n";
    }
    std::cout << "\n";
  }

  // --- The same queries against the flat-file clustered DWARF. ---
  std::string path =
      (std::filesystem::temp_directory_path() / "cube_queries.dwarf").string();
  for (auto layout : {clustered::ClusterLayout::kHierarchical,
                      clustered::ClusterLayout::kRecursive}) {
    Status write_status = clustered::WriteDwarfFile(*cube, path, layout);
    if (!write_status.ok()) {
      std::cerr << write_status << "\n";
      return 1;
    }
    auto file_cube = clustered::FlatFileCube::Open(path);
    if (!file_cube.ok()) {
      std::cerr << file_cube.status() << "\n";
      return 1;
    }
    watch.Restart();
    auto file_total = file_cube->PointQuery(grand);
    double micros = watch.ElapsedMicros();
    std::cout << "Flat file (" << clustered::ClusterLayoutName(layout)
              << "): size " << FormatBytes(file_cube->file_size())
              << ", grand total "
              << (file_total.ok() ? std::to_string(*file_total) : "n/a")
              << " via " << file_cube->stats().node_reads << " node reads ("
              << micros << " us)\n";
  }
  std::filesystem::remove(path);
  return 0;
}
