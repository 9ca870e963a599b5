/// \file metrics.h
/// \brief Process-wide named-metric registry: counters, gauges and
/// fixed-bucket histograms behind one uniform (name, labels) API.
///
/// Design: registration is the slow path (one mutex acquisition, done once
/// per call site — typically into a function-local static pointer); the hot
/// path is a relaxed atomic increment on a pointer the registry handed out.
/// Metric objects are never deleted or moved while the registry is alive, so
/// cached pointers stay valid for the registry's lifetime.
///
/// Label sets are bounded: at most kMaxSeriesPerName distinct label
/// combinations are materialized per metric name. Requests beyond the cap
/// collapse into a single overflow series labeled {"overflow":"true"}, so a
/// bug that interpolates unbounded values into labels degrades metric
/// resolution instead of memory.
///
/// Two registries matter in practice: GlobalRegistry() collects the
/// build-side instrumentation (ETL, DWARF construction, mappers, storage
/// engines), and each server::QueryServer owns a private registry for its
/// serving counters so concurrent server instances (tests, benches) don't
/// bleed into each other. The "metrics" wire op returns both.

#ifndef SCDWARF_COMMON_METRICS_H_
#define SCDWARF_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace scdwarf::metrics {

/// \brief Label set of one series: (key, value) pairs. Order-insensitive —
/// the registry sorts by key before composing the series identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Distinct label sets materialized per metric name before the overflow
/// series absorbs further combinations.
constexpr size_t kMaxSeriesPerName = 64;

/// \brief Monotonic event counter. Wait-free increments, relaxed reads.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Instantaneous level (queue depths, open sessions). Signed so
/// transient Add/Sub imbalances stay representable instead of wrapping.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// Lowercase wire/doc name of \p type: "counter", "gauge", "histogram".
const char* MetricTypeName(MetricType type);

/// \brief Point-in-time view of one series (see MetricRegistry::Snapshot).
struct MetricSnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  Labels labels;  ///< sorted by key
  std::string help;
  uint64_t counter_value = 0;  ///< kCounter
  int64_t gauge_value = 0;     ///< kGauge
  /// kHistogram: count/min/max plus interpolated quantiles.
  uint64_t hist_count = 0;
  double hist_min = 0;
  double hist_max = 0;
  double hist_p50 = 0;
  double hist_p90 = 0;
  double hist_p99 = 0;
};

/// \brief A set of named metric series. Thread-safe; see the file comment
/// for the locking model.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// \brief Returns the counter series (\p name, \p labels), registering it
  /// on first use. \p help is recorded on first registration and ignored
  /// afterwards. Never returns null; on a type conflict (the name is already
  /// registered with a different type under the same labels) a process-wide
  /// dummy that is not part of any snapshot is returned and the conflict is
  /// logged once.
  Counter* GetCounter(std::string_view name, Labels labels = {},
                      std::string_view help = "");

  /// Gauge analogue of GetCounter.
  Gauge* GetGauge(std::string_view name, Labels labels = {},
                  std::string_view help = "");

  /// Histogram analogue of GetCounter. \p bounds empty selects the standard
  /// latency-microseconds ladder (FixedBucketHistogram::LatencyMicrosBounds);
  /// bounds are fixed by the first registration.
  FixedBucketHistogram* GetHistogram(std::string_view name, Labels labels = {},
                                     std::string_view help = "",
                                     std::vector<double> bounds = {});

  /// \brief Copies every registered series. Values are relaxed atomic reads
  /// taken while writers may be active: each individual value is exact at
  /// some instant, cross-metric consistency is not promised (the usual
  /// monitoring contract). Series appear in registration order.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Number of registered series (all names, all label sets).
  size_t size() const;

 private:
  struct Series {
    std::string name;
    MetricType type;
    Labels labels;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<FixedBucketHistogram> histogram;
  };

  /// Finds-or-creates the series, applying the cardinality cap. Returns the
  /// series when its type matches \p type, null on conflict.
  Series* GetSeries(std::string_view name, Labels labels, std::string_view help,
                    MetricType type, std::vector<double> bounds);

  mutable std::mutex mu_;
  /// Composed "name\x1f(k\x1ev)*" -> index into series_. The deque-like
  /// unique_ptr indirection keeps handed-out metric pointers stable.
  std::unordered_map<std::string, size_t> index_;
  std::vector<std::unique_ptr<Series>> series_;
  std::unordered_map<std::string, size_t> series_per_name_;
};

/// \brief The process-wide registry used by build-side instrumentation.
MetricRegistry& GlobalRegistry();

/// \brief Every series of \p instance followed by every series of
/// GlobalRegistry(): what a server's or router's "metrics" and
/// "metrics_text" ops report.
std::vector<MetricSnapshot> SnapshotWithGlobal(const MetricRegistry& instance);

/// \brief Renders snapshots as a JSON array (self-contained serializer so
/// common/ stays dependency-free):
///   [{"name":..., "type":"counter", "labels":{...}, "help":...,
///     "value":N}, ...,
///    {"name":..., "type":"histogram", ..., "count":N, "min":..,
///     "max":.., "p50":.., "p90":.., "p99":..}, ...]
std::string SnapshotToJson(const std::vector<MetricSnapshot>& snapshot);

/// \brief Renders snapshots in the Prometheus text exposition format (the
/// "metrics_text" wire op and the --prometheus-dump flags):
///
///   # HELP server_requests_total completed requests, including errors
///   # TYPE server_requests_total counter
///   server_requests_total 42
///
/// Counters and gauges map directly. Histograms are rendered as summaries
/// (quantile-labeled samples plus _count) followed by <name>_min / <name>_max
/// gauge families; FixedBucketHistogram tracks no sum, so no _sum sample is
/// emitted. Series of one name are grouped under a single HELP/TYPE header
/// regardless of their order in \p snapshot.
std::string SnapshotToPrometheusText(
    const std::vector<MetricSnapshot>& snapshot);

}  // namespace scdwarf::metrics

#endif  // SCDWARF_COMMON_METRICS_H_
