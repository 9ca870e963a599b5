#include "common/metrics.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "common/logging.h"

namespace scdwarf::metrics {

namespace {

/// Composes the series identity: name and sorted labels, joined with bytes
/// that cannot appear in metric names or sane label values.
std::string ComposeKey(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key.push_back('\x1f');
    key.append(k);
    key.push_back('\x1e');
    key.append(v);
  }
  return key;
}

Labels SortedLabels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// Minimal JSON string escaping; metric names and labels are controlled
/// identifiers, but help strings may hold arbitrary prose.
void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

}  // namespace

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "unknown";
}

MetricRegistry::Series* MetricRegistry::GetSeries(std::string_view name,
                                                  Labels labels,
                                                  std::string_view help,
                                                  MetricType type,
                                                  std::vector<double> bounds) {
  labels = SortedLabels(std::move(labels));
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = ComposeKey(name, labels);
  auto it = index_.find(key);
  if (it == index_.end()) {
    size_t& cardinality = series_per_name_[std::string(name)];
    if (cardinality >= kMaxSeriesPerName && !labels.empty()) {
      // Over the cap: collapse into the overflow series (registered outside
      // the cap so it always exists once needed).
      Labels overflow{{"overflow", "true"}};
      key = ComposeKey(name, overflow);
      it = index_.find(key);
      if (it == index_.end()) {
        labels = std::move(overflow);
      } else if (series_[it->second]->type != type) {
        return nullptr;
      } else {
        return series_[it->second].get();
      }
    } else {
      ++cardinality;
    }
    auto series = std::make_unique<Series>();
    series->name = std::string(name);
    series->type = type;
    series->labels = std::move(labels);
    series->help = std::string(help);
    switch (type) {
      case MetricType::kCounter:
        series->counter = std::make_unique<Counter>();
        break;
      case MetricType::kGauge:
        series->gauge = std::make_unique<Gauge>();
        break;
      case MetricType::kHistogram:
        series->histogram = std::make_unique<FixedBucketHistogram>(
            bounds.empty() ? FixedBucketHistogram::LatencyMicrosBounds()
                           : std::move(bounds));
        break;
    }
    index_.emplace(std::move(key), series_.size());
    series_.push_back(std::move(series));
    return series_.back().get();
  }
  if (series_[it->second]->type != type) return nullptr;
  return series_[it->second].get();
}

Counter* MetricRegistry::GetCounter(std::string_view name, Labels labels,
                                    std::string_view help) {
  Series* series = GetSeries(name, std::move(labels), help,
                             MetricType::kCounter, {});
  if (series == nullptr) {
    SCD_LOG(kWarning) << "metric '" << name
                     << "' re-registered with conflicting type counter";
    static Counter dummy;
    return &dummy;
  }
  return series->counter.get();
}

Gauge* MetricRegistry::GetGauge(std::string_view name, Labels labels,
                                std::string_view help) {
  Series* series =
      GetSeries(name, std::move(labels), help, MetricType::kGauge, {});
  if (series == nullptr) {
    SCD_LOG(kWarning) << "metric '" << name
                     << "' re-registered with conflicting type gauge";
    static Gauge dummy;
    return &dummy;
  }
  return series->gauge.get();
}

FixedBucketHistogram* MetricRegistry::GetHistogram(std::string_view name,
                                                   Labels labels,
                                                   std::string_view help,
                                                   std::vector<double> bounds) {
  Series* series = GetSeries(name, std::move(labels), help,
                             MetricType::kHistogram, std::move(bounds));
  if (series == nullptr) {
    SCD_LOG(kWarning) << "metric '" << name
                     << "' re-registered with conflicting type histogram";
    static FixedBucketHistogram dummy(
        FixedBucketHistogram::LatencyMicrosBounds());
    return &dummy;
  }
  return series->histogram.get();
}

std::vector<MetricSnapshot> MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(series_.size());
  for (const auto& series : series_) {
    MetricSnapshot snap;
    snap.name = series->name;
    snap.type = series->type;
    snap.labels = series->labels;
    snap.help = series->help;
    switch (series->type) {
      case MetricType::kCounter:
        snap.counter_value = series->counter->value();
        break;
      case MetricType::kGauge:
        snap.gauge_value = series->gauge->value();
        break;
      case MetricType::kHistogram: {
        const FixedBucketHistogram& h = *series->histogram;
        snap.hist_count = h.count();
        snap.hist_min = h.min();
        snap.hist_max = h.max();
        snap.hist_p50 = h.Quantile(0.50);
        snap.hist_p90 = h.Quantile(0.90);
        snap.hist_p99 = h.Quantile(0.99);
        break;
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::vector<MetricSnapshot> SnapshotWithGlobal(const MetricRegistry& instance) {
  std::vector<MetricSnapshot> all = instance.Snapshot();
  std::vector<MetricSnapshot> global = GlobalRegistry().Snapshot();
  all.insert(all.end(), std::make_move_iterator(global.begin()),
             std::make_move_iterator(global.end()));
  return all;
}

size_t MetricRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

MetricRegistry& GlobalRegistry() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

std::string SnapshotToJson(const std::vector<MetricSnapshot>& snapshot) {
  std::string out = "[";
  bool first = true;
  for (const MetricSnapshot& m : snapshot) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":");
    AppendJsonString(&out, m.name);
    out.append(",\"type\":\"");
    out.append(MetricTypeName(m.type));
    out.append("\",\"labels\":{");
    bool first_label = true;
    for (const auto& [k, v] : m.labels) {
      if (!first_label) out.push_back(',');
      first_label = false;
      AppendJsonString(&out, k);
      out.push_back(':');
      AppendJsonString(&out, v);
    }
    out.push_back('}');
    if (!m.help.empty()) {
      out.append(",\"help\":");
      AppendJsonString(&out, m.help);
    }
    switch (m.type) {
      case MetricType::kCounter:
        out.append(",\"value\":");
        out.append(std::to_string(m.counter_value));
        break;
      case MetricType::kGauge:
        out.append(",\"value\":");
        out.append(std::to_string(m.gauge_value));
        break;
      case MetricType::kHistogram:
        out.append(",\"count\":");
        out.append(std::to_string(m.hist_count));
        out.append(",\"min\":");
        AppendJsonDouble(&out, m.hist_min);
        out.append(",\"max\":");
        AppendJsonDouble(&out, m.hist_max);
        out.append(",\"p50\":");
        AppendJsonDouble(&out, m.hist_p50);
        out.append(",\"p90\":");
        AppendJsonDouble(&out, m.hist_p90);
        out.append(",\"p99\":");
        AppendJsonDouble(&out, m.hist_p99);
        break;
    }
    out.push_back('}');
  }
  out.push_back(']');
  return out;
}

namespace {

/// Prometheus escaping for HELP text: backslash and newline.
void AppendPromHelp(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '\\') out->append("\\\\");
    else if (c == '\n') out->append("\\n");
    else out->push_back(c);
  }
}

/// Prometheus escaping for label values: backslash, quote, newline.
void AppendPromLabelValue(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '\\') out->append("\\\\");
    else if (c == '"') out->append("\\\"");
    else if (c == '\n') out->append("\\n");
    else out->push_back(c);
  }
}

/// One label block: {k1="v1",k2="v2"} with \p extra appended last (used for
/// the quantile label). Empty when there is nothing to emit.
void AppendPromLabels(std::string* out, const Labels& labels,
                      std::string_view extra = {}) {
  if (labels.empty() && extra.empty()) return;
  out->push_back('{');
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out->push_back(',');
    first = false;
    out->append(k);
    out->append("=\"");
    AppendPromLabelValue(out, v);
    out->push_back('"');
  }
  if (!extra.empty()) {
    if (!first) out->push_back(',');
    out->append(extra);
  }
  out->push_back('}');
}

void AppendPromDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out->append(buf);
}

void AppendPromHeader(std::string* out, std::string_view name,
                      std::string_view help, std::string_view type) {
  if (!help.empty()) {
    out->append("# HELP ");
    out->append(name);
    out->push_back(' ');
    AppendPromHelp(out, help);
    out->push_back('\n');
  }
  out->append("# TYPE ");
  out->append(name);
  out->push_back(' ');
  out->append(type);
  out->push_back('\n');
}

}  // namespace

std::string SnapshotToPrometheusText(
    const std::vector<MetricSnapshot>& snapshot) {
  // Group by name (first-appearance order) so every family is contiguous
  // under one HELP/TYPE header, as the exposition format requires.
  std::vector<std::string> order;
  std::unordered_map<std::string, std::vector<const MetricSnapshot*>> families;
  for (const MetricSnapshot& m : snapshot) {
    auto [it, inserted] = families.try_emplace(m.name);
    if (inserted) order.push_back(m.name);
    it->second.push_back(&m);
  }
  std::string out;
  for (const std::string& name : order) {
    const std::vector<const MetricSnapshot*>& family = families[name];
    const MetricSnapshot& head = *family.front();
    switch (head.type) {
      case MetricType::kCounter:
        AppendPromHeader(&out, name, head.help, "counter");
        for (const MetricSnapshot* m : family) {
          out.append(name);
          AppendPromLabels(&out, m->labels);
          out.push_back(' ');
          out.append(std::to_string(m->counter_value));
          out.push_back('\n');
        }
        break;
      case MetricType::kGauge:
        AppendPromHeader(&out, name, head.help, "gauge");
        for (const MetricSnapshot* m : family) {
          out.append(name);
          AppendPromLabels(&out, m->labels);
          out.push_back(' ');
          out.append(std::to_string(m->gauge_value));
          out.push_back('\n');
        }
        break;
      case MetricType::kHistogram: {
        // Quantiles + count as a summary family; min/max as gauge families
        // (FixedBucketHistogram tracks no sum, so _sum is omitted).
        AppendPromHeader(&out, name, head.help, "summary");
        constexpr const char* kQuantileLabels[] = {
            "quantile=\"0.5\"", "quantile=\"0.9\"", "quantile=\"0.99\""};
        for (const MetricSnapshot* m : family) {
          const double quantiles[] = {m->hist_p50, m->hist_p90, m->hist_p99};
          for (size_t q = 0; q < 3; ++q) {
            out.append(name);
            AppendPromLabels(&out, m->labels, kQuantileLabels[q]);
            out.push_back(' ');
            AppendPromDouble(&out, quantiles[q]);
            out.push_back('\n');
          }
          out.append(name);
          out.append("_count");
          AppendPromLabels(&out, m->labels);
          out.push_back(' ');
          out.append(std::to_string(m->hist_count));
          out.push_back('\n');
        }
        AppendPromHeader(&out, name + "_min", "", "gauge");
        for (const MetricSnapshot* m : family) {
          out.append(name);
          out.append("_min");
          AppendPromLabels(&out, m->labels);
          out.push_back(' ');
          AppendPromDouble(&out, m->hist_min);
          out.push_back('\n');
        }
        AppendPromHeader(&out, name + "_max", "", "gauge");
        for (const MetricSnapshot* m : family) {
          out.append(name);
          out.append("_max");
          AppendPromLabels(&out, m->labels);
          out.push_back(' ');
          AppendPromDouble(&out, m->hist_max);
          out.push_back('\n');
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace scdwarf::metrics
