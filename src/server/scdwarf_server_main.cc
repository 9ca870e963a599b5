// scdwarf_server — standalone cube query service.
//
// Builds the 8-dimension bikes cube from the synthetic XML feed and serves
// it over the length-prefixed JSON wire format (see src/server/wire.h):
//
//   scdwarf_server [--metrics-dump=PATH] [--trace-dump=PATH]
//                  [--snapshot-dir=DIR] [--notify=HOST:PORT,...]
//                  [--bind=ADDR] [--prometheus-dump=PATH]
//                  [port] [records] [workers]
//
//   port     TCP port (default 0 = kernel-assigned, printed)
//   records  synthetic feed records for the served cube (default 20000)
//   workers  query worker threads (default 0 = SCDWARF_THREADS / hardware)
//
//   --metrics-dump=PATH  on exit, write the full metric registry snapshot
//                        (the "metrics" op payload) as JSON to PATH
//   --trace-dump=PATH    enable span tracing (as if SCDWARF_TRACE=1) and on
//                        exit write a chrome://tracing-compatible JSON file
//   --snapshot-dir=DIR   spool every published epoch as a snapshot file in
//                        DIR (replica fleet feed; see docs/OPERATIONS.md)
//   --notify=LIST        comma-separated replica endpoints to send
//                        "load_snapshot" after each spooled publish
//   --bind=ADDR          IPv4 address to listen on (default 127.0.0.1;
//                        0.0.0.0 serves every interface)
//   --prometheus-dump=PATH  on exit, write the metric registries in
//                        Prometheus text exposition format to PATH
//
// Runs until stdin closes or a "quit" line arrives. Example session with
// python (4-byte big-endian length prefix per frame):
//
//   import socket, struct, json
//   s = socket.create_connection(("127.0.0.1", PORT))
//   req = json.dumps({"op": "rollup", "dims": ["Weekday"]}).encode()
//   s.sendall(struct.pack(">I", len(req)) + req)
//   n, = struct.unpack(">I", s.recv(4))
//   print(json.loads(s.recv(n)))

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "citibikes/bike_feed.h"
#include "client/client.h"
#include "common/files.h"
#include "common/trace.h"
#include "etl/parallel_pipeline.h"
#include "replica/replica.h"
#include "server/query_server.h"
#include "server/tcp_server.h"

using namespace scdwarf;

int main(int argc, char** argv) {
  std::string metrics_dump;
  std::string trace_dump;
  std::string prometheus_dump;
  std::string snapshot_dir;
  std::string notify_list;
  std::string bind_address = server::TcpServer::kLoopback;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--metrics-dump=", 0) == 0) {
      metrics_dump = arg.substr(15);
    } else if (arg.rfind("--trace-dump=", 0) == 0) {
      trace_dump = arg.substr(13);
    } else if (arg.rfind("--prometheus-dump=", 0) == 0) {
      prometheus_dump = arg.substr(18);
    } else if (arg.rfind("--snapshot-dir=", 0) == 0) {
      snapshot_dir = arg.substr(15);
    } else if (arg.rfind("--notify=", 0) == 0) {
      notify_list = arg.substr(9);
    } else if (arg.rfind("--bind=", 0) == 0) {
      bind_address = arg.substr(7);
    } else {
      positional.push_back(std::move(arg));
    }
  }
  if (!trace_dump.empty()) trace::SetEnabled(true);
  int port = positional.size() > 0 ? std::atoi(positional[0].c_str()) : 0;
  int records = positional.size() > 1 ? std::atoi(positional[1].c_str()) : 20000;
  int workers = positional.size() > 2 ? std::atoi(positional[2].c_str()) : 0;

  citibikes::BikeFeedConfig config;
  config.target_records = records;
  citibikes::BikeFeedGenerator feed(config);
  auto pipeline = etl::MakeBikesXmlParallelPipeline();
  if (!pipeline.ok()) {
    std::cerr << pipeline.status() << "\n";
    return 1;
  }
  while (feed.HasNext()) {
    if (Status status = pipeline->ConsumeXml(feed.NextXml()); !status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
  }
  auto cube = std::move(*pipeline).Finish();
  if (!cube.ok()) {
    std::cerr << cube.status() << "\n";
    return 1;
  }
  std::cout << "cube ready: " << cube->num_nodes() << " nodes, "
            << cube->stats().tuple_count << " tuples, "
            << cube->num_dimensions() << " dimensions\n";

  std::unique_ptr<replica::SnapshotNotifier> notifier;
  if (!notify_list.empty()) {
    auto endpoints = client::ParseEndpointList(notify_list);
    if (!endpoints.ok()) {
      std::cerr << endpoints.status() << "\n";
      return 1;
    }
    if (snapshot_dir.empty()) {
      std::cerr << "--notify requires --snapshot-dir (replicas load the "
                   "spooled files)\n";
      return 1;
    }
    notifier = std::make_unique<replica::SnapshotNotifier>(*endpoints);
  }

  server::ServerOptions options;
  options.num_workers = workers;
  options.snapshot_dir = snapshot_dir;
  if (notifier != nullptr) {
    options.post_publish = [&notifier](uint64_t epoch,
                                       const std::string& path) {
      size_t acked = notifier->NotifyAll(path);
      std::cout << "epoch " << epoch << " spooled to " << path << "; "
                << acked << " replica(s) loaded it\n";
    };
  }
  server::QueryServer server(std::move(*cube), options);
  server::TcpServer tcp(&server);
  if (Status status = tcp.Start(static_cast<uint16_t>(port), bind_address);
      !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  std::cout << "serving on " << tcp.bind_address() << ":" << tcp.port()
            << " with "
            << server.num_workers() << " worker(s)\n"
            << "wire: 4-byte big-endian length + JSON, e.g.\n"
            << R"(  {"op":"point","keys":[null,null,null,null,null,null,null,null]})"
            << "\n"
            << R"(  {"op":"rollup","dims":["Weekday"]})" << "\n"
            << R"(  {"op":"query_open","query":{"op":"rollup","dims":["Weekday"]},"page_size":64})"
            << "\n"
            << R"(  {"op":"query_next","cursor":1}   (repeat until "done":true))"
            << "\n"
            << R"(  {"op":"stats"})" << "\n"
            << R"(  {"op":"metrics"})" << "\n"
            << "type 'quit' (or close stdin) to stop\n";

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
  }
  tcp.Stop();
  server::ServerStats stats = server.Stats();
  std::cout << "served " << stats.queries_total << " queries ("
            << stats.rejected_total << " rejected), cache hit rate "
            << stats.cache_hit_rate << "\n";
  if (!metrics_dump.empty()) {
    if (WriteFileAtomic(metrics_dump, server.MetricsJson() + "\n").ok()) {
      std::cout << "metrics snapshot written to " << metrics_dump << "\n";
    } else {
      std::cerr << "failed to write metrics snapshot to " << metrics_dump
                << "\n";
      return 1;
    }
  }
  if (!prometheus_dump.empty()) {
    if (WriteFileAtomic(prometheus_dump, server.MetricsText()).ok()) {
      std::cout << "prometheus metrics written to " << prometheus_dump << "\n";
    } else {
      std::cerr << "failed to write prometheus metrics to " << prometheus_dump
                << "\n";
      return 1;
    }
  }
  if (!trace_dump.empty()) {
    if (WriteFileAtomic(trace_dump, trace::ExportChromeJson()).ok()) {
      std::cout << "trace written to " << trace_dump
                << " (load via chrome://tracing)\n";
    } else {
      std::cerr << "failed to write trace to " << trace_dump << "\n";
      return 1;
    }
  }
  return 0;
}
