// Shared pieces of the cubebench workloads: the workload interface main.cc
// runs, sample statistics, feed and cube set-up, the one-shot query
// generator used by `serve` and `fleet`, and the response checks.
//
// Everything a workload sends to the system is generated from the run seed
// before its timed phase starts; the system only ever sees finished inputs.

#ifndef CUBEBENCH_BENCH_COMMON_H_
#define CUBEBENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "client/client.h"
#include "common/result.h"
#include "common/rng.h"
#include "dwarf/dwarf_cube.h"
#include "dwarf/query.h"

namespace cubebench {

using scdwarf::Result;
using scdwarf::Status;

/// Closed-loop query connections of `serve` and `fleet`. With the `serve`
/// publisher that is 3 load threads, under the 4 cores the bounds were set on.
constexpr int kQueryConnections = 2;

/// Per-run settings from the command line.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  std::string work_dir;     ///< scratch directory inside the checkout
  std::string replica_bin;  ///< scdwarf_replica executable (fleet)
};

/// What one measured phase of a workload produced.
struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Gated end-to-end metrics measured in the phase (every name of
  /// kEndToEnd except setup_s and rss_peak_mb, which main.cc adds).
  std::map<std::string, double> end_to_end;
  /// Per-layer metrics (names from kPerLayer; absent ones print as 0).
  std::map<std::string, double> layers;
};

/// \brief One workload: set up once per instance, then measured phases,
/// then the correctness check over what the phases recorded.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates inputs and brings the system up. Timed as setup_s.
  virtual Status Setup(const RunOptions& options) = 0;
  /// Runs the timed phase for \p seconds.
  virtual Result<PhaseResult> Run(double seconds) = 0;
  /// Checks the answers recorded by every Run(), outside timing.
  virtual Status Check() = 0;
};

std::unique_ptr<Workload> MakeBuildWorkload();
std::unique_ptr<Workload> MakeServeWorkload();
std::unique_ptr<Workload> MakeFleetWorkload();

/// Gated end-to-end metrics, reported by every workload (see README.md for
/// what each one measures on each workload).
struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEnd;
/// Per-layer metrics of the traced run; a layer a workload does not run
/// reports 0.
extern const std::vector<MetricSpec> kPerLayer;

// ------------------------------------------------------------- statistics

/// Nearest-rank quantile of \p values (copied and sorted); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// \brief The highest reportable tail of a latency sample: p99 when at least
/// ten samples lie beyond it, else the highest quantile that keeps ten.
struct Tail {
  double q = 0;      ///< quantile reported (0 when fewer than 20 samples)
  double value = 0;
  size_t n = 0;
  size_t beyond = 0;  ///< samples strictly above the rank
};
Tail TailOf(const std::vector<double>& values);

/// Prints one human-readable report line: name, value, unit, note.
void Report(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");
/// Prints a latency sample as name_p50 and its tail with the sample counts.
void ReportLatency(const std::string& name, const std::vector<double>& values,
                   const std::string& unit);

/// Peak resident set of this process in MB.
double PeakRssMb();

// ---------------------------------------------------------------- set-up

/// Source records of the Month dataset (Table 2).
struct Feed {
  std::vector<std::string> documents;  ///< XML snapshot documents
  uint64_t records = 0;
};
Result<Feed> GenerateMonthFeed(uint64_t seed);

/// Builds the cube of \p feed through the parallel XML pipeline at the
/// machine's thread count.
Result<scdwarf::dwarf::DwarfCube> BuildCube(const Feed& feed);

// ------------------------------------------------------------- one-shots

/// Request classes of the generated one-shots.
enum class QueryClass { kPoint, kAggregate, kSlice, kRollup, kCount };
const char* QueryClassName(QueryClass c);

struct Query {
  std::string json;
  QueryClass cls = QueryClass::kPoint;
};

/// \brief Draws one-shot requests that always succeed on the cube: point and
/// aggregate keys come from real base tuples, range bounds bracket them, and
/// slices and rollups stay well under the 1 MiB frame limit.
class QueryGenerator {
 public:
  explicit QueryGenerator(const scdwarf::dwarf::DwarfCube& cube);

  /// Share of each class in the mix, indexed by QueryClass: the shares of
  /// the fleet soak sessions (soak::Fleet::MakeRandomRequest), the repo's
  /// own model of fleet traffic. No recorded traffic exists to take them
  /// from. Slices are the heavy class (a few hundred KB each), so p99 lies
  /// well inside it and p50 inside the light classes.
  static constexpr double kMix[] = {0.30, 0.25, 0.20, 0.25};

  /// A query of class \p cls; \p variant picks its shape (slice dimension,
  /// rollup grouping, id- or value-form range) round-robin, the rest is
  /// drawn from \p rng.
  Query Make(QueryClass cls, size_t variant, scdwarf::Rng& rng) const;
  /// A query whose class and shape are drawn by kMix.
  Query Next(scdwarf::Rng& rng) const;
  /// A slice or rollup query object for a cursor drain.
  std::string NextRowsQuery(scdwarf::Rng& rng) const;

 private:
  std::string Point(scdwarf::Rng& rng) const;
  std::string Aggregate(size_t variant, scdwarf::Rng& rng) const;
  std::string SliceQuery(size_t variant, scdwarf::Rng& rng) const;
  std::string Rollup(size_t variant, scdwarf::Rng& rng) const;

  const scdwarf::dwarf::DwarfCube& cube_;
  std::vector<scdwarf::dwarf::SliceRow> base_;
  std::vector<std::string> dim_names_;
  size_t date_dim_ = 0;
  size_t hour_dim_ = 0;
  size_t station_dim_ = 0;
};

/// Prints each class's share of \p latency_us and how many of its requests
/// lie at or above the tail, so a p99 on the boundary between a light and a
/// heavy class shows.
void ReportTailClasses(const std::vector<double>& latency_us,
                       const std::vector<QueryClass>& classes);

/// Median round trip of 300 sequential pings on \p conn, in microseconds.
double PingP50Micros(scdwarf::client::CubeClient& conn);

// ----------------------------------------------------------------- checks

/// True when \p response is an ok envelope.
bool ResponseOk(std::string_view response);

/// The (epoch, cached) envelope fields of a response.
struct Envelope {
  uint64_t epoch = 0;
  bool cached = false;
};
Result<Envelope> ParseEnvelope(std::string_view response);

/// The response \p cube must produce for \p request at \p epoch:
/// MakeResponse(ExecuteRequest(cube, request)).
Result<std::string> ExpectedResponse(const scdwarf::dwarf::DwarfCube& cube,
                                     uint64_t epoch, bool cached,
                                     std::string_view request);

/// The inner text of the "rows":[...] array of a response or page (without
/// the brackets); empty for an empty array.
Result<std::string> RowsText(std::string_view response);

/// Raw text of the scalar field \p key of a JSON object ("cursor", "done").
Result<std::string> FieldText(std::string_view response, std::string_view key);

}  // namespace cubebench

#endif  // CUBEBENCH_BENCH_COMMON_H_
