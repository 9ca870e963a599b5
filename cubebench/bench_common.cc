#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "citibikes/bike_feed.h"
#include "citibikes/datasets.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "dwarf/update.h"
#include "etl/parallel_pipeline.h"
#include "server/wire.h"

namespace cubebench {

using namespace scdwarf;

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"rss_peak_mb", "MB"},
    {"main_p50_ms", "ms"},
    {"aux_p50_ms", "ms"},
    {"bytes_per_tuple", "B"},
};

const std::vector<MetricSpec> kPerLayer = {
    // build
    {"etl.consume_ms", "ms"},
    {"etl.finish_ms", "ms"},
    {"etl.drain_ms", "ms"},
    {"etl.dict_merge_ms", "ms"},
    {"dwarf.sort_ms", "ms"},
    {"dwarf.construct_ms", "ms"},
    {"dwarf.sweep_tasks", "count"},
    {"mapper.store_ms", "ms"},
    {"mapper.apply_ms", "ms"},
    {"nosql.flush_ms", "ms"},
    {"dwarf.nodes", "count"},
    {"dwarf.cells", "count"},
    {"nosql.rows", "count"},
    {"nosql.bytes", "B"},
    // serve
    {"server.cache_hit_ratio", "ratio"},
    {"server.cache_lookups", "count"},
    {"server.handle_us_p50", "us"},
    {"server.handle_us_p99", "us"},
    {"client.transport_us_p50", "us"},
    {"server.ping_us_p50", "us"},
    {"server.parse_us", "us"},
    {"dwarf.delta_build_ms", "ms"},
    {"dwarf.merge_ms", "ms"},
    {"dwarf.nodes_reused", "count"},
    {"server.publish_other_ms", "ms"},
    {"server.revalidated_per_publish", "count"},
    {"server.invalidated_per_publish", "count"},
    {"dwarf.compactions", "count"},
    {"dwarf.compaction_ms", "ms"},
    // fleet
    {"server.exec_us_p50", "us"},
    {"server.exec_us_p99", "us"},
    {"replica.response_kb_p50", "KB"},
    {"replica.response_kb_p99", "KB"},
    {"dwarf.cursor_pages", "count"},
    {"replica.router_ping_us_p50", "us"},
    {"replica.replica_ping_us_p50", "us"},
    {"replica.handle_us_p50_mean", "us"},
    {"replica.cache_hit_ratio", "ratio"},
    {"replica.forward_share_max", "ratio"},
    {"replica.retries", "count"},
    {"replica.failovers", "count"},
    {"replica.snapshot_write_ms", "ms"},
    {"replica.snapshot_load_ms", "ms"},
    // tracing overhead: (traced - untraced) / untraced, every workload
    {"overhead.setup_s", "ratio"},
    {"overhead.main_p50_ms", "ratio"},
    {"overhead.aux_p50_ms", "ratio"},
};

// ------------------------------------------------------------- statistics

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

Tail TailOf(const std::vector<double>& values) {
  Tail tail;
  tail.n = values.size();
  if (tail.n < 20) return tail;
  // Nearest rank r = ceil(q n) leaves n - r samples above it; keep >= 10.
  tail.q = std::min(0.99, std::floor(1000.0 * (1.0 - 10.0 / tail.n)) / 1000.0);
  tail.value = Quantile(values, tail.q);
  tail.beyond =
      tail.n - static_cast<size_t>(std::ceil(tail.q * static_cast<double>(tail.n)));
  return tail;
}

void Report(const std::string& name, double value, const std::string& unit,
            const std::string& note) {
  std::printf("  %-34s %14.4f %-6s%s%s\n", name.c_str(), value, unit.c_str(),
              note.empty() ? "" : "  ", note.c_str());
}

void ReportLatency(const std::string& name, const std::vector<double>& values,
                   const std::string& unit) {
  char note[96];
  std::snprintf(note, sizeof(note), "n=%zu", values.size());
  Report(name + "_p50_" + unit, Median(values), unit, note);
  Tail tail = TailOf(values);
  if (tail.q == 0) {
    Report(name + "_p99_" + unit, 0, unit, "too few samples for a tail");
    return;
  }
  std::snprintf(note, sizeof(note), "p%.1f, n=%zu, %zu beyond", tail.q * 100,
                tail.n, tail.beyond);
  Report(name + "_p99_" + unit, tail.value, unit, note);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- set-up

Result<Feed> GenerateMonthFeed(uint64_t seed) {
  SCD_ASSIGN_OR_RETURN(citibikes::DatasetSpec spec,
                       citibikes::FindDataset("Month"));
  citibikes::BikeFeedGenerator generator(citibikes::MakeFeedConfig(spec, seed));
  Feed feed;
  feed.documents.reserve(generator.total_ticks());
  while (generator.HasNext()) feed.documents.push_back(generator.NextXml());
  feed.records = generator.records_emitted();
  return feed;
}

Result<dwarf::DwarfCube> BuildCube(const Feed& feed) {
  int threads = DefaultThreadCount();
  auto pipeline = etl::MakeBikesXmlParallelPipeline({.num_threads = threads},
                                                    {.num_threads = threads});
  if (!pipeline.ok()) return pipeline.status();
  for (const std::string& document : feed.documents) {
    SCD_RETURN_IF_ERROR(pipeline->ConsumeXml(document));
  }
  return std::move(*pipeline).Finish();
}

// ------------------------------------------------------------- one-shots

const char* QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kPoint: return "point";
    case QueryClass::kAggregate: return "aggregate";
    case QueryClass::kSlice: return "slice";
    case QueryClass::kRollup: return "rollup";
    case QueryClass::kCount: break;
  }
  return "?";
}

namespace {

std::string Quoted(std::string_view text) {
  std::string out;
  server::AppendJsonString(text, &out);
  return out;
}

// Value-order neighbours of \p value in an ordered dimension: a window
// [lo, hi] of decoded values that contains it.
std::pair<std::string, std::string> ValueWindow(const dwarf::Dictionary& dict,
                                                const std::string& value,
                                                Rng& rng) {
  std::vector<std::string> sorted;
  sorted.reserve(dict.size());
  for (size_t id = 0; id < dict.size(); ++id) {
    sorted.push_back(dict.DecodeUnchecked(static_cast<dwarf::DimKey>(id)));
  }
  std::sort(sorted.begin(), sorted.end());
  size_t at = static_cast<size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), value) - sorted.begin());
  size_t lo = at - std::min<size_t>(at, rng.NextBelow(6));
  size_t hi = std::min(sorted.size() - 1, at + rng.NextBelow(6));
  return {sorted[lo], sorted[hi]};
}

}  // namespace

QueryGenerator::QueryGenerator(const dwarf::DwarfCube& cube) : cube_(cube) {
  auto base = dwarf::ExtractBaseTuples(cube);
  if (base.ok()) base_ = std::move(*base);
  for (const auto& dim : cube.schema().dimensions()) dim_names_.push_back(dim.name);
  for (size_t dim = 0; dim < dim_names_.size(); ++dim) {
    if (dim_names_[dim] == "Date") date_dim_ = dim;
    if (dim_names_[dim] == "Hour") hour_dim_ = dim;
    if (dim_names_[dim] == "Station") station_dim_ = dim;
  }
}

Query QueryGenerator::Make(QueryClass cls, size_t variant, Rng& rng) const {
  switch (cls) {
    case QueryClass::kPoint: return {Point(rng), cls};
    case QueryClass::kAggregate: return {Aggregate(variant, rng), cls};
    case QueryClass::kSlice: return {SliceQuery(variant, rng), cls};
    default: return {Rollup(variant, rng), QueryClass::kRollup};
  }
}

Query QueryGenerator::Next(Rng& rng) const {
  double draw = rng.NextDouble();
  size_t c = 0;
  while (c + 1 < std::size(kMix) && draw >= kMix[c]) draw -= kMix[c++];
  return Make(static_cast<QueryClass>(c), rng.NextBelow(1 << 20), rng);
}

std::string QueryGenerator::NextRowsQuery(Rng& rng) const {
  size_t variant = rng.NextBelow(1 << 20);
  return rng.NextBool(0.5) ? SliceQuery(variant, rng) : Rollup(variant, rng);
}

std::string QueryGenerator::Point(Rng& rng) const {
  const dwarf::SliceRow& row = base_[rng.NextBelow(base_.size())];
  std::string out = "{\"op\":\"point\",\"keys\":[";
  for (size_t dim = 0; dim < row.keys.size(); ++dim) {
    if (dim > 0) out += ',';
    out += rng.NextBool(0.35) ? Quoted(row.keys[dim]) : "null";
  }
  return out + "]}";
}

// Aggregates over Date/Hour ranges, half with id-form bounds and half with
// value-form bounds; the range and every point predicate come from one real
// base tuple, so the answer is never not_found.
std::string QueryGenerator::Aggregate(size_t variant, Rng& rng) const {
  const dwarf::SliceRow& row = base_[rng.NextBelow(base_.size())];
  size_t range_dim = variant % 2 == 0 ? date_dim_ : hour_dim_;
  bool id_form = variant / 2 % 2 == 0;
  std::string out = "{\"op\":\"aggregate\",\"predicates\":[";
  for (size_t dim = 0; dim < row.keys.size(); ++dim) {
    if (dim > 0) out += ',';
    const dwarf::Dictionary& dict = cube_.dictionary(dim);
    if (dim == range_dim) {
      if (id_form) {
        auto id = dict.Lookup(row.keys[dim]);
        uint64_t key = id.ok() ? *id : 0;
        uint64_t lo = key - std::min<uint64_t>(key, rng.NextBelow(6));
        uint64_t hi = std::min<uint64_t>(dict.size() - 1, key + rng.NextBelow(6));
        out += "{\"kind\":\"range\",\"lo\":" + std::to_string(lo) +
               ",\"hi\":" + std::to_string(hi) + "}";
      } else {
        auto [lo, hi] = ValueWindow(dict, row.keys[dim], rng);
        out += "{\"kind\":\"range\",\"lo\":" + Quoted(lo) + ",\"hi\":" +
               Quoted(hi) + "}";
      }
    } else if (rng.NextBool(0.3)) {
      out += "{\"kind\":\"point\",\"key\":" + Quoted(row.keys[dim]) + "}";
    } else {
      out += "{\"kind\":\"all\"}";
    }
  }
  return out + "]}";
}

// Slices fix Station or Date: 2.6k-3.9k rows on Month, under the frame cap
// (a Weekday or Month slice would exceed it).
std::string QueryGenerator::SliceQuery(size_t variant, Rng& rng) const {
  const dwarf::SliceRow& row = base_[rng.NextBelow(base_.size())];
  size_t dim = variant % 2 == 0 ? date_dim_ : station_dim_;
  return "{\"op\":\"slice\",\"dim\":" + Quoted(dim_names_[dim]) +
         ",\"key\":" + Quoted(row.keys[dim]) + "}";
}

std::string QueryGenerator::Rollup(size_t variant, Rng& rng) const {
  static const std::vector<std::vector<const char*>> kGroups = {
      {"Weekday"},      {"Hour"},          {"Area"},
      {"Date"},         {"Status"},        {"Weekday", "Hour"},
      {"Date", "Area"}, {"Area", "Hour"},  {"Hour", "Station"},
      {"Date", "Hour"}};
  const auto& group = kGroups[variant % kGroups.size()];
  std::string out = "{\"op\":\"rollup\",\"dims\":[";
  std::string ranged;
  for (size_t i = 0; i < group.size(); ++i) {
    if (i > 0) out += ',';
    out += Quoted(group[i]);
    std::string_view name = group[i];
    if (ranged.empty() && (name == "Date" || name == "Hour")) ranged = name;
  }
  out += "]";
  if (!ranged.empty() && variant / kGroups.size() % 3 != 0) {
    size_t dim = ranged == "Date" ? date_dim_ : hour_dim_;
    const dwarf::SliceRow& row = base_[rng.NextBelow(base_.size())];
    auto [lo, hi] = ValueWindow(cube_.dictionary(dim), row.keys[dim], rng);
    out += ",\"where\":[{\"dim\":" + Quoted(ranged) + ",\"lo\":" + Quoted(lo) +
           ",\"hi\":" + Quoted(hi) + "}]";
  }
  return out + "}";
}

void ReportTailClasses(const std::vector<double>& latency_us,
                       const std::vector<QueryClass>& classes) {
  constexpr size_t kClasses = static_cast<size_t>(QueryClass::kCount);
  Tail tail = TailOf(latency_us);
  size_t counts[kClasses] = {};
  size_t above[kClasses] = {};
  for (size_t i = 0; i < latency_us.size(); ++i) {
    ++counts[static_cast<size_t>(classes[i])];
    if (latency_us[i] >= tail.value) ++above[static_cast<size_t>(classes[i])];
  }
  std::printf("  query classes:");
  for (size_t c = 0; c < kClasses; ++c) {
    std::printf(" %s %.1f%% (%zu at/above tail)",
                QueryClassName(static_cast<QueryClass>(c)),
                100.0 * counts[c] / std::max<size_t>(1, latency_us.size()), above[c]);
  }
  std::printf("\n");
}

double PingP50Micros(client::CubeClient& conn) {
  std::vector<double> us;
  for (int i = 0; i < 300; ++i) {
    Stopwatch watch;
    if (conn.Call("{\"op\":\"ping\"}").ok()) us.push_back(watch.ElapsedMicros());
  }
  return Median(us);
}

// ----------------------------------------------------------------- checks

bool ResponseOk(std::string_view response) {
  return response.substr(0, 10) == "{\"ok\":true";
}

Result<Envelope> ParseEnvelope(std::string_view response) {
  constexpr std::string_view kEpoch = "\"epoch\":";
  constexpr std::string_view kCached = ",\"cached\":";
  size_t at = response.find(kEpoch);
  if (at == std::string_view::npos) {
    return Status::ParseError("response has no epoch field");
  }
  Envelope envelope;
  size_t pos = at + kEpoch.size();
  while (pos < response.size() && response[pos] >= '0' && response[pos] <= '9') {
    envelope.epoch = envelope.epoch * 10 + static_cast<uint64_t>(response[pos] - '0');
    ++pos;
  }
  if (response.substr(pos, kCached.size()) != kCached) {
    return Status::ParseError("response has no cached field after epoch");
  }
  envelope.cached = response.substr(pos + kCached.size(), 4) == "true";
  return envelope;
}

Result<std::string> ExpectedResponse(const dwarf::DwarfCube& cube,
                                     uint64_t epoch, bool cached,
                                     std::string_view request) {
  SCD_ASSIGN_OR_RETURN(server::QueryRequest parsed, server::ParseRequest(request));
  server::ExecResult result = server::ExecuteRequest(cube, parsed);
  return server::MakeResponse(result.ok, epoch, cached, result.payload_json);
}

Result<std::string> RowsText(std::string_view response) {
  constexpr std::string_view kRows = "\"rows\":[";
  size_t begin = response.find(kRows);
  if (begin == std::string_view::npos) {
    return Status::ParseError("response has no rows array");
  }
  begin += kRows.size();
  size_t end = response.rfind("],\"done\":");
  if (end == std::string_view::npos) end = response.rfind("]}");
  if (end == std::string_view::npos || end < begin) {
    return Status::ParseError("unterminated rows array");
  }
  return std::string(response.substr(begin, end - begin));
}

Result<std::string> FieldText(std::string_view response, std::string_view key) {
  std::string needle = "\"" + std::string(key) + "\":";
  size_t begin = response.find(needle);
  if (begin == std::string_view::npos) {
    return Status::ParseError("response has no " + std::string(key) + " field");
  }
  begin += needle.size();
  size_t end = response.find_first_of(",}", begin);
  return std::string(response.substr(begin, end - begin));
}

}  // namespace cubebench
