// Open-ended fault-injected soak of the replica fan-out fleet (the
// src/testing/soak.h harness as an operator tool): an in-process publisher
// spools epochs to a shared directory, N real scdwarf_replica processes
// follow it by polling, an in-process router fronts them, and M session
// threads churn a mixed differential-checked workload while a killer
// SIGKILLs and respawns replicas and a corrupter drops broken files into the
// spool.
//
// Exit is nonzero on ANY differential mismatch, on a one-shot p99 over
// --p99-bound-us, or (when faults are enabled) when no injected kill
// produced a provable spool catch-up. Soak counters are merged into
// BENCH_server.json as one "soak_kills"-keyed row; all other rows are
// preserved. tools/check_soak.sh runs this for ~45 s as the CI gate.
//
//   soak_fleet [--duration-s=N] [--replicas=N] [--sessions=N]
//              [--publish-ms=N] [--kill-ms=N] [--corrupt-ms=N]
//              [--p99-bound-us=N] [--replica-bin=PATH] [--seed=N]
//
// The replica binary resolves like bench_router: --replica-bin, then
// SCDWARF_REPLICA_BIN, then <dir of this binary>/../src/replica/.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.h"
#include "json/json_parser.h"
#include "testing/soak.h"

namespace {

using namespace scdwarf;

// Replaces prior soak rows in BENCH_server.json while preserving every
// other row (bench_query_server / bench_router own those).
Status MergeIntoBenchJson(const std::string& path,
                          benchutil::BenchJsonRow soak_row) {
  std::vector<benchutil::BenchJsonRow> rows;
  std::string benchmark = "query_server";
  std::ifstream in(path);
  if (in) {
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    auto parsed = json::ParseJson(bytes);
    if (parsed.ok()) {
      if (auto name = parsed->Get("benchmark"); name.ok()) {
        if (auto text = name->AsString(); text.ok()) benchmark = *text;
      }
      if (auto results = parsed->Get("results"); results.ok()) {
        if (const json::JsonArray* array = results->AsArray()) {
          for (const json::JsonValue& row : *array) {
            if (row.Get("soak_kills").ok()) continue;  // replaced below
            if (const json::JsonObject* object = row.AsObject()) {
              rows.push_back(*object);
            }
          }
        }
      }
    }
  }
  rows.push_back(std::move(soak_row));
  return benchutil::WriteBenchJson(path, benchmark, rows);
}

int64_t FlagInt(const std::string& arg, size_t prefix_len) {
  return std::atoll(arg.c_str() + prefix_len);
}

}  // namespace

int main(int argc, char** argv) {
  double duration_s = 45;
  soak::FleetOptions options;
  options.replicas = 2;
  options.sessions = 4;
  options.publish_interval_ms = 2000;
  options.kill_interval_ms = 6000;
  options.corrupt_interval_ms = 5000;
  options.p99_bound_us = 200000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--duration-s=", 0) == 0) {
      duration_s = std::atof(arg.c_str() + 13);
    } else if (arg.rfind("--replicas=", 0) == 0) {
      options.replicas = static_cast<int>(FlagInt(arg, 11));
    } else if (arg.rfind("--sessions=", 0) == 0) {
      options.sessions = static_cast<int>(FlagInt(arg, 11));
    } else if (arg.rfind("--publish-ms=", 0) == 0) {
      options.publish_interval_ms = static_cast<int>(FlagInt(arg, 13));
    } else if (arg.rfind("--kill-ms=", 0) == 0) {
      options.kill_interval_ms = static_cast<int>(FlagInt(arg, 10));
    } else if (arg.rfind("--corrupt-ms=", 0) == 0) {
      options.corrupt_interval_ms = static_cast<int>(FlagInt(arg, 13));
    } else if (arg.rfind("--p99-bound-us=", 0) == 0) {
      options.p99_bound_us = std::atof(arg.c_str() + 15);
    } else if (arg.rfind("--replica-bin=", 0) == 0) {
      options.replica_bin = arg.substr(14);
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = static_cast<uint64_t>(FlagInt(arg, 7));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  soak::Fleet fleet(options);
  if (Status status = fleet.Start(); !status.ok()) {
    std::fprintf(stderr, "fleet start: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf(
      "=== Fleet soak: %d replicas, %d sessions, publish %dms, kill %dms, "
      "corrupt %dms, %.0fs ===\n",
      options.replicas, options.sessions, options.publish_interval_ms,
      options.kill_interval_ms, options.corrupt_interval_ms, duration_s);

  Status run = fleet.RunFor(duration_s);
  soak::FleetCounters counters = fleet.Counters();
  fleet.Stop();

  std::printf(
      "checked %llu one-shots + %llu cursor drains over %llu epochs\n"
      "kills %llu, restarts %llu, catch-ups %llu, corruptions %llu\n"
      "mismatches %llu, availability %llu, transport %llu, unchecked %llu\n"
      "one-shot p50 %.1fus, p99 %.1fus\n",
      static_cast<unsigned long long>(counters.requests),
      static_cast<unsigned long long>(counters.cursor_drains),
      static_cast<unsigned long long>(counters.published_epochs),
      static_cast<unsigned long long>(counters.kills),
      static_cast<unsigned long long>(counters.restarts),
      static_cast<unsigned long long>(counters.catchups),
      static_cast<unsigned long long>(counters.corruptions),
      static_cast<unsigned long long>(counters.mismatches),
      static_cast<unsigned long long>(counters.availability),
      static_cast<unsigned long long>(counters.transport_errors),
      static_cast<unsigned long long>(counters.unchecked),
      counters.p50_us, counters.p99_us);

  bool failed = false;
  if (!run.ok()) {
    std::fprintf(stderr, "soak failed: %s\n", run.ToString().c_str());
    failed = true;
  }
  if (options.kill_interval_ms > 0 && counters.kills > 0 &&
      counters.catchups == 0) {
    std::fprintf(stderr,
                 "no killed replica provably caught up via the spool\n");
    failed = true;
  }

  benchutil::BenchJsonRow row;
  row.emplace_back("soak_duration_s", json::JsonValue(duration_s));
  row.emplace_back("soak_replicas", json::JsonValue(options.replicas));
  row.emplace_back("soak_sessions", json::JsonValue(options.sessions));
  row.emplace_back("soak_requests",
                   json::JsonValue(static_cast<int64_t>(counters.requests)));
  row.emplace_back(
      "soak_cursor_drains",
      json::JsonValue(static_cast<int64_t>(counters.cursor_drains)));
  row.emplace_back(
      "soak_epochs",
      json::JsonValue(static_cast<int64_t>(counters.published_epochs)));
  row.emplace_back("soak_kills",
                   json::JsonValue(static_cast<int64_t>(counters.kills)));
  row.emplace_back("soak_restarts",
                   json::JsonValue(static_cast<int64_t>(counters.restarts)));
  row.emplace_back("soak_catchups",
                   json::JsonValue(static_cast<int64_t>(counters.catchups)));
  row.emplace_back(
      "soak_corruptions",
      json::JsonValue(static_cast<int64_t>(counters.corruptions)));
  row.emplace_back("soak_mismatches",
                   json::JsonValue(static_cast<int64_t>(counters.mismatches)));
  row.emplace_back(
      "soak_availability",
      json::JsonValue(static_cast<int64_t>(counters.availability)));
  row.emplace_back(
      "soak_transport_errors",
      json::JsonValue(static_cast<int64_t>(counters.transport_errors)));
  row.emplace_back("soak_p50_us", json::JsonValue(counters.p50_us));
  row.emplace_back("soak_p99_us", json::JsonValue(counters.p99_us));
  row.emplace_back("soak_p99_bound_us",
                   json::JsonValue(options.p99_bound_us));
  if (Status status = MergeIntoBenchJson("BENCH_server.json", std::move(row));
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return failed ? 1 : 0;
}
