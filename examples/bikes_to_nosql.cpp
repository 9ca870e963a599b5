// End-to-end reproduction of the paper's pipeline: a bike-sharing XML feed
// is parsed into tuples, a DWARF cube is constructed, stored into the
// NoSQL-DWARF column families (Table 1), reloaded and queried.
//
// Usage: bikes_to_nosql [records] [data_dir]
//   records   number of station records to generate (default 2000)
//   data_dir  optional directory for an on-disk store (default: in-memory)

#include <cstdlib>
#include <iostream>

#include "citibikes/bike_feed.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "dwarf/query.h"
#include "etl/parallel_pipeline.h"
#include "mapper/dimension_table.h"
#include "mapper/nosql_dwarf_mapper.h"
#include "nosql/cql.h"

using namespace scdwarf;

int main(int argc, char** argv) {
  uint64_t records = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000;
  std::string data_dir = argc > 2 ? argv[2] : "";

  // 1. Generate the web feed.
  citibikes::BikeFeedConfig config;
  config.target_records = records;
  config.period_seconds = 7 * 24 * 3600;
  citibikes::BikeFeedGenerator feed(config);

  // 2. Stream it through the 8-dimension cube pipeline.
  auto pipeline = etl::MakeBikesXmlParallelPipeline();
  if (!pipeline.ok()) {
    std::cerr << pipeline.status() << "\n";
    return 1;
  }
  Stopwatch build_watch;
  while (feed.HasNext()) {
    Status status = pipeline->ConsumeXml(feed.NextXml());
    if (!status.ok()) {
      std::cerr << "pipeline error: " << status << "\n";
      return 1;
    }
  }
  auto cube = std::move(*pipeline).Finish();
  if (!cube.ok()) {
    std::cerr << "cube construction failed: " << cube.status() << "\n";
    return 1;
  }
  std::cout << "Consumed " << feed.documents_emitted() << " XML documents ("
            << FormatBytes(feed.bytes_emitted()) << ", "
            << FormatWithCommas(static_cast<int64_t>(records))
            << " station records) in " << build_watch.ElapsedMillis()
            << " ms\n";
  std::cout << "DWARF cube: " << cube->num_nodes() << " nodes, "
            << cube->stats().cell_count << " cells, "
            << cube->stats().coalesced_all_count
            << " coalesced ALL pointers\n\n";

  // 3. Store into the NoSQL-DWARF schema.
  nosql::Database memory_db;
  nosql::Database disk_db;
  nosql::Database* db = &memory_db;
  if (!data_dir.empty()) {
    auto opened = nosql::Database::Open(data_dir);
    if (!opened.ok()) {
      std::cerr << opened.status() << "\n";
      return 1;
    }
    disk_db = std::move(*opened);
    db = &disk_db;
  }
  mapper::NoSqlDwarfMapper cube_mapper(db, "dwarfks");
  Stopwatch store_watch;
  mapper::NoSqlStoreStats store_stats;
  auto schema_id = cube_mapper.Store(*cube, {}, &store_stats);
  if (!schema_id.ok()) {
    std::cerr << "store failed: " << schema_id.status() << "\n";
    return 1;
  }
  std::cout << "Stored as DWARF_Schema id " << *schema_id << " ("
            << store_stats.node_rows << " node rows, " << store_stats.cell_rows
            << " cell rows) in " << store_watch.ElapsedMillis() << " ms\n";
  std::cout << "Store size: " << FormatBytes(db->EstimateBytes()) << "\n\n";

  // Show the Fig. 3 transformation for one stored cell.
  auto sample = nosql::ExecuteCql(
      db, "SELECT id, key, measure, parentNode, leaf FROM dwarfks.dwarf_cell "
          "WHERE id = 2");
  if (sample.ok() && !sample->rows.empty()) {
    std::cout << "A stored DWARF_Cell row (cf. Fig. 3):\n"
              << sample->ToString() << "\n";
  }

  // 4. Rebuild the cube from the store (the bidirectional mapping) and
  //    verify it answers queries identically.
  Stopwatch load_watch;
  auto rebuilt = cube_mapper.Load(*schema_id);
  if (!rebuilt.ok()) {
    std::cerr << "load failed: " << rebuilt.status() << "\n";
    return 1;
  }
  std::cout << "Rebuilt the cube from the store in " << load_watch.ElapsedMillis()
            << " ms; structurally equal: "
            << (rebuilt->StructurallyEquals(*cube) ? "yes" : "NO") << "\n\n";

  // 5. Query: busiest weekday by total available bikes.
  auto rollup = dwarf::RollUp(*rebuilt, {2});
  if (rollup.ok()) {
    std::cout << "Total available bikes by weekday (from the rebuilt cube):\n";
    for (const dwarf::SliceRow& row : *rollup) {
      std::cout << "  " << row.keys[0] << ": " << row.measure << "\n";
    }
  }

  // 6. Dimension table (§4): the station catalog is stored next to the cube
  //    (DWARF_Cell.dimension_table_name = "Station" points here) and enriches
  //    query results with descriptive attributes.
  mapper::DimensionTable station_table("Station", {"area", "capacity"});
  for (const citibikes::Station& station : feed.stations()) {
    (void)station_table.AddRow(
        station.name,
        {Value::Text(station.area), Value::Int(station.capacity)});
  }
  mapper::DimensionTableStore dim_store(db, "dwarfks");
  if (Status stored_dim = dim_store.Store(station_table); !stored_dim.ok()) {
    std::cerr << "dimension table store failed: " << stored_dim << "\n";
    return 1;
  }
  auto by_station = dwarf::RollUp(*rebuilt, {5});
  if (by_station.ok() && !by_station->empty()) {
    const dwarf::SliceRow* busiest = &(*by_station)[0];
    for (const dwarf::SliceRow& row : *by_station) {
      if (row.measure > busiest->measure) busiest = &row;
    }
    auto loaded_dim = dim_store.Load("Station");
    std::cout << "\nBusiest station: " << busiest->keys[0] << " ("
              << busiest->measure << " bike-observations)";
    if (loaded_dim.ok()) {
      auto area = loaded_dim->LookupAttribute(busiest->keys[0], "area");
      auto capacity =
          loaded_dim->LookupAttribute(busiest->keys[0], "capacity");
      if (area.ok() && capacity.ok()) {
        std::cout << " — area " << area->ToDisplayString() << ", "
                  << capacity->ToDisplayString()
                  << " stands [from dimension table dim_station]";
      }
    }
    std::cout << "\n";
  }
  return 0;
}
