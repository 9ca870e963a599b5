// scdwarf_router — shard router over a replica fleet.
//
// Speaks the same wire protocol as the servers it fronts: one-shot queries
// hash across healthy replicas, cursor sessions stick to one replica (with
// epoch-pinned failover mid-drain), and health checks evict dead replicas
// until they answer pings again. See src/replica/router.h.
//
//   scdwarf_router --replicas=HOST:PORT,HOST:PORT,... [--port=N]
//                  [--bind=ADDR] [--health-ms=N] [--metrics-dump=PATH]
//                  [--prometheus-dump=PATH]
//
//   --replicas=LIST      comma-separated replica endpoints (required)
//   --port=N             TCP port (default 0 = kernel-assigned)
//   --bind=ADDR          IPv4 address to listen on (default 127.0.0.1;
//                        0.0.0.0 serves every interface)
//   --health-ms=N        health-check period (default 500; 0 disables)
//   --metrics-dump=PATH  on exit, write the router metric registry as JSON
//   --prometheus-dump=PATH  on exit, write Prometheus text-format metrics
//
// Runs until stdin closes or a "quit" line arrives.

#include <cstdlib>
#include <iostream>
#include <string>

#include "client/client.h"
#include "common/files.h"
#include "replica/router.h"
#include "server/tcp_server.h"

using namespace scdwarf;

int main(int argc, char** argv) {
  std::string replica_list;
  std::string metrics_dump;
  std::string prometheus_dump;
  int port = 0;
  std::string bind_address = server::TcpServer::kLoopback;
  replica::RouterOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--replicas=", 0) == 0) {
      replica_list = arg.substr(11);
    } else if (arg.rfind("--port=", 0) == 0) {
      port = std::atoi(arg.c_str() + 7);
    } else if (arg.rfind("--bind=", 0) == 0) {
      bind_address = arg.substr(7);
    } else if (arg.rfind("--health-ms=", 0) == 0) {
      options.health_interval_ms = std::atoi(arg.c_str() + 12);
    } else if (arg.rfind("--metrics-dump=", 0) == 0) {
      metrics_dump = arg.substr(15);
    } else if (arg.rfind("--prometheus-dump=", 0) == 0) {
      prometheus_dump = arg.substr(18);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }
  if (replica_list.empty()) {
    std::cerr << "usage: scdwarf_router --replicas=HOST:PORT,... [--port=N] "
                 "[--bind=ADDR] [--health-ms=N]\n";
    return 2;
  }
  auto endpoints = client::ParseEndpointList(replica_list);
  if (!endpoints.ok()) {
    std::cerr << endpoints.status() << "\n";
    return 1;
  }

  replica::Router router(*endpoints, options);
  router.CheckReplicasOnce();  // populate health + epochs before serving
  server::TcpServer tcp(&router);
  if (Status status = tcp.Start(static_cast<uint16_t>(port), bind_address);
      !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  // Flushed for the same reason as the replica banner: parents parse it.
  std::cout << "router serving on " << tcp.bind_address() << ":" << tcp.port()
            << " over "
            << router.num_replicas() << " replica(s), "
            << router.healthy_replicas() << " healthy (epoch "
            << router.BestEpoch() << ")" << std::endl;

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
  }
  tcp.Stop();
  if (!metrics_dump.empty() &&
      !WriteFileAtomic(metrics_dump, router.MetricsJson() + "\n").ok()) {
    std::cerr << "failed to write metrics snapshot to " << metrics_dump
              << "\n";
    return 1;
  }
  if (!prometheus_dump.empty() &&
      !WriteFileAtomic(prometheus_dump, router.MetricsText()).ok()) {
    std::cerr << "failed to write prometheus metrics to " << prometheus_dump
              << "\n";
    return 1;
  }
  return 0;
}
