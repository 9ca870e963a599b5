// cubebench — the repository benchmark.
//
//   cubebench --workload build|serve|fleet --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--replica-bin PATH]
//
// Sets the workload up kSetups times (setup_s is the median), runs its timed
// phase, checks the answers and prints a human-readable report followed by
// one JSON line: {"correct","attempted","failed","metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the timed phase is
// split into an untraced and a traced half, spans are recorded around every
// call into the system, and the metrics are the per-layer numbers of the
// traced half plus how far each end-to-end metric moved between the halves.
// Usually launched through run.py, which builds this binary first.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace {

using namespace cubebench;
namespace fs = std::filesystem;

constexpr int kSetups = 5;

// The whole run must end well inside the 180 s a run is allowed.
constexpr unsigned kWatchdogSeconds = 170;

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: cubebench --workload build|serve|fleet --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--replica-bin PATH]\n",
               message);
  return 2;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<MetricSpec>& specs,
                 const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = values.find(specs[i].name);
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g",
                  it == values.end() ? 0.0 : it->second);
    if (i > 0) out += ", ";
    out += '"';
    out += specs[i].name;
    out += "\": {\"value\": ";
    out += number;
    out += ", \"unit\": \"";
    out += specs[i].unit;
    out += "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double Shift(double traced, double untraced) {
  return untraced == 0 ? 0 : (traced - untraced) / untraced;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  options.work_dir = ".bench_build/work";
  options.replica_bin = CUBEBENCH_REPLICA_BIN;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
      have_seconds = options.seconds > 0;
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--replica-bin") {
      options.replica_bin = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (!have_seed || !have_seconds || trace < 0) {
    return Usage("--seed, --seconds and --trace are required");
  }
  std::unique_ptr<Workload> (*factory)() = nullptr;
  if (workload == "build") factory = MakeBuildWorkload;
  if (workload == "serve") factory = MakeServeWorkload;
  if (workload == "fleet") factory = MakeFleetWorkload;
  if (factory == nullptr) return Usage("unknown workload");
  alarm(kWatchdogSeconds);

  std::string root = options.work_dir;
  options.work_dir = (fs::path(root) / (workload + "-" + std::to_string(getpid())))
                         .string();
  std::error_code ec;
  fs::remove_all(options.work_dir, ec);
  fs::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::printf("cubebench %s: seed %llu, %.1f s, trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              trace);

  // Set up kSetups times, tearing each instance down before the next; the
  // last one stays up for the timed phase. In a traced run the last set-up
  // is traced and the others give the untraced figure.
  scdwarf::trace::SetEnabled(false);
  std::vector<double> setup_s;
  std::unique_ptr<Workload> instance;
  for (int i = 0; i < kSetups; ++i) {
    instance.reset();
    scdwarf::trace::SetEnabled(trace == 1 && i == kSetups - 1);
    instance = factory();
    scdwarf::Stopwatch watch;
    Status status = instance->Setup(options);
    setup_s.push_back(watch.ElapsedSeconds());
    scdwarf::trace::SetEnabled(false);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  std::map<std::string, double> metrics;
  uint64_t attempted = 0, failed = 0;
  auto run_phase = [&](double seconds, bool traced)
      -> scdwarf::Result<PhaseResult> {
    scdwarf::trace::SetEnabled(traced);
    auto phase = instance->Run(seconds);
    scdwarf::trace::SetEnabled(false);
    if (phase.ok()) {
      attempted += phase->attempted;
      failed += phase->failed;
    }
    return phase;
  };

  auto untraced = run_phase(trace == 1 ? options.seconds / 2 : options.seconds,
                            false);
  if (!untraced.ok()) {
    std::fprintf(stderr, "run failed: %s\n", untraced.status().ToString().c_str());
    return 1;
  }
  if (trace == 0) {
    metrics = untraced->end_to_end;
    metrics["setup_s"] = Median(setup_s);
  } else {
    auto traced = run_phase(options.seconds / 2, true);
    if (!traced.ok()) {
      std::fprintf(stderr, "traced run failed: %s\n",
                   traced.status().ToString().c_str());
      return 1;
    }
    metrics = traced->layers;
    double traced_setup = setup_s.back();
    setup_s.pop_back();
    metrics["overhead.setup_s"] = Shift(traced_setup, Median(setup_s));
    for (const char* name : {"main_p50_ms", "aux_p50_ms"}) {
      metrics[std::string("overhead.") + name] =
          Shift(traced->end_to_end[name], untraced->end_to_end[name]);
    }
    fs::path trace_file = fs::path(root) / ("trace-" + workload + ".json");
    std::ofstream(trace_file) << scdwarf::trace::ExportChromeJson();
    std::printf("trace: %zu spans written to %s (%llu dropped by the ring)\n",
                scdwarf::trace::Snapshot().size(), trace_file.c_str(),
                static_cast<unsigned long long>(scdwarf::trace::dropped_spans()));
  }

  // Peak memory of set-up and the timed phases; the checks come after, so
  // what they hold is not counted.
  metrics["rss_peak_mb"] = PeakRssMb();
  Status check = instance->Check();
  if (!check.ok()) {
    std::printf("CHECK FAILED: %s\n", check.ToString().c_str());
  }
  instance.reset();
  fs::remove_all(options.work_dir, ec);

  std::string each;
  for (double s : setup_s) each += " " + std::to_string(s);
  Report("setup_s", Median(setup_s), "s", "median of set-ups:" + each);
  Report("rss_peak_mb", metrics["rss_peak_mb"], "MB");
  Report("error_rate",
         attempted == 0 ? 0 : static_cast<double>(failed) / attempted, "ratio",
         std::to_string(failed) + " failed of " + std::to_string(attempted) +
             " attempted");
  std::fflush(stdout);
  PrintResult(check.ok(), attempted, failed, trace == 1 ? kPerLayer : kEndToEnd,
              metrics);
  return check.ok() ? 0 : 1;
}
