// scdwarf_replica — read-only replica serving process.
//
// Loads the newest epoch snapshot file from a spool directory (written by
// scdwarf_server --snapshot-dir=...), serves it over the wire protocol, and
// follows later epochs via publisher "load_snapshot" notifications and/or
// spool polling:
//
//   scdwarf_replica --snapshot-dir=DIR [--port=N] [--bind=ADDR] [--workers=N]
//                   [--poll-ms=N] [--cache-capacity=N] [--retain-epochs=N]
//                   [--metrics-dump=PATH] [--trace-dump=PATH]
//                   [--prometheus-dump=PATH]
//
//   --snapshot-dir=DIR   spool directory to bootstrap from (required)
//   --port=N             TCP port (default 0 = kernel-assigned)
//   --bind=ADDR          IPv4 address to listen on (default 127.0.0.1;
//                        0.0.0.0 serves every interface — use when the spool
//                        is on a shared filesystem and clients are remote)
//   --workers=N          query worker threads (default 1)
//   --poll-ms=N          poll the spool every N ms for new epochs
//                        (default 0 = rely on load_snapshot notifications)
//   --cache-capacity=N   result-cache entries (default 4096; 0 disables)
//   --retain-epochs=N    epochs kept for epoch-pinned query_open (default 4)
//   --metrics-dump=PATH  on exit, write the metric registry snapshot as JSON
//   --trace-dump=PATH    enable span tracing; write chrome://tracing JSON
//   --prometheus-dump=PATH  on exit, write Prometheus text-format metrics
//
// Prints "replica serving on ADDR:PORT (epoch N, ...)" once ready —
// parent processes (bench_router) parse that line, so it is flushed
// explicitly. Runs until stdin closes or a "quit" line arrives.

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/files.h"
#include "common/trace.h"
#include "replica/replica.h"

using namespace scdwarf;

int main(int argc, char** argv) {
  replica::ReplicaOptions options;
  std::string metrics_dump;
  std::string trace_dump;
  std::string prometheus_dump;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--snapshot-dir=", 0) == 0) {
      options.snapshot_dir = arg.substr(15);
    } else if (arg.rfind("--port=", 0) == 0) {
      options.port = static_cast<uint16_t>(std::atoi(arg.c_str() + 7));
    } else if (arg.rfind("--bind=", 0) == 0) {
      options.bind_address = arg.substr(7);
    } else if (arg.rfind("--workers=", 0) == 0) {
      options.num_workers = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--poll-ms=", 0) == 0) {
      options.poll_interval_ms = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--cache-capacity=", 0) == 0) {
      options.cache_capacity =
          static_cast<size_t>(std::atol(arg.c_str() + 17));
    } else if (arg.rfind("--retain-epochs=", 0) == 0) {
      options.retain_epochs = static_cast<size_t>(std::atol(arg.c_str() + 16));
    } else if (arg.rfind("--metrics-dump=", 0) == 0) {
      metrics_dump = arg.substr(15);
    } else if (arg.rfind("--trace-dump=", 0) == 0) {
      trace_dump = arg.substr(13);
    } else if (arg.rfind("--prometheus-dump=", 0) == 0) {
      prometheus_dump = arg.substr(18);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }
  if (options.snapshot_dir.empty()) {
    std::cerr << "usage: scdwarf_replica --snapshot-dir=DIR [--port=N] "
                 "[--bind=ADDR] [--workers=N] [--poll-ms=N] "
                 "[--cache-capacity=N] [--retain-epochs=N]\n";
    return 2;
  }
  if (!trace_dump.empty()) trace::SetEnabled(true);

  replica::ReplicaServer replica_server(options);
  if (Status status = replica_server.Start(); !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  // stdout may be a pipe (bench_router forks replicas and parses this line):
  // flush so the parent is never left blocking on a buffered banner.
  std::cout << "replica serving on " << replica_server.tcp()->bind_address()
            << ":" << replica_server.port()
            << " (epoch " << replica_server.epoch() << ", "
            << replica_server.server()->num_workers() << " worker(s), spool "
            << options.snapshot_dir << ")" << std::endl;

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
  }
  replica_server.Stop();
  if (!metrics_dump.empty() &&
      !WriteFileAtomic(metrics_dump,
                       replica_server.server()->MetricsJson() + "\n")
           .ok()) {
    std::cerr << "failed to write metrics snapshot to " << metrics_dump
              << "\n";
    return 1;
  }
  if (!prometheus_dump.empty() &&
      !WriteFileAtomic(prometheus_dump,
                       replica_server.server()->MetricsText())
           .ok()) {
    std::cerr << "failed to write prometheus metrics to " << prometheus_dump
              << "\n";
    return 1;
  }
  if (!trace_dump.empty() &&
      !WriteFileAtomic(trace_dump, trace::ExportChromeJson()).ok()) {
    std::cerr << "failed to write trace to " << trace_dump << "\n";
    return 1;
  }
  return 0;
}
