// Tests for the fleet soak harness (src/testing/soak.h) and the fault paths
// it leans on: a short deterministic churn slice of the full fleet, replica
// crash-restart with epoch-pinned failover mid-cursor-drain, spool-corruption
// skip-and-count (both through real scdwarf_replica subprocesses and against
// an in-process ReplicaServer), the replica launcher's failure path, and the
// TcpServer bind-address knob.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/client.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "dwarf/builder.h"
#include "json/json_parser.h"
#include "json/json_value.h"
#include "replica/replica.h"
#include "replica/snapshot.h"
#include "server/query_server.h"
#include "server/tcp_server.h"
#include "server/wire.h"
#include "testing/soak.h"

namespace scdwarf::soak {
namespace {

namespace fs = std::filesystem;

using json::JsonArray;
using json::JsonValue;

fs::path ScratchDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() / ("scdwarf_soak_test_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void WriteFileBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A small cube over the soak schema, deterministic in \p seed.
dwarf::DwarfCube BuildSoakCube(uint64_t seed, int tuples) {
  Rng rng(seed);
  dwarf::DwarfBuilder builder(SoakSchema());
  for (auto& [keys, measure] : SoakBatch(rng, tuples)) {
    EXPECT_TRUE(builder.AddTuple(keys, measure).ok());
  }
  return std::move(builder).Build().ValueOrDie();
}

/// "ping" a port directly; returns (epoch, open sessions).
struct PingInfo {
  bool ok = false;
  uint64_t epoch = 0;
  int64_t sessions = 0;
};

PingInfo PingPort(uint16_t port) {
  PingInfo info;
  client::Endpoint endpoint;
  endpoint.port = port;
  client::CubeClient conn(endpoint);
  auto response = conn.Call("{\"op\":\"ping\"}");
  if (!response.ok()) return info;
  auto root = json::ParseJson(*response);
  if (!root.ok()) return info;
  auto epoch = root->Get("epoch");
  if (!epoch.ok() || !epoch->AsNumber().ok()) return info;
  info.ok = true;
  info.epoch = static_cast<uint64_t>(*epoch->AsNumber());
  if (auto sessions = root->Get("sessions");
      sessions.ok() && sessions->AsNumber().ok()) {
    info.sessions = static_cast<int64_t>(*sessions->AsNumber());
  }
  return info;
}

/// Waits until the replica on \p port reports at least \p epoch.
bool WaitForEpoch(uint16_t port, uint64_t epoch, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    PingInfo info = PingPort(port);
    if (info.ok && info.epoch >= epoch) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return false;
}

uint64_t GlobalCounterValue(const std::string& name) {
  return metrics::GlobalRegistry().GetCounter(name, {}, "")->value();
}

// --------------------------------------------------------- the churn slice

// The ctest slice of the open-ended soak: full fleet (real replica
// subprocesses, router, publisher), all three fault injectors enabled at a
// cadence that guarantees several firings, differential checking on. Any
// wrong answer fails the run.
TEST(SoakFleetTest, ShortChurnSliceHasZeroMismatches) {
  FleetOptions options;
  options.replicas = 2;
  options.sessions = 2;
  options.publish_interval_ms = 150;
  options.kill_interval_ms = 900;
  options.corrupt_interval_ms = 700;
  options.replica_poll_ms = 50;
  options.drop_every = 48;
  options.seed = 0xc0ffee;
  Fleet fleet(options);
  ASSERT_TRUE(fleet.Start().ok());

  Status run = fleet.RunFor(3.5);
  FleetCounters counters = fleet.Counters();
  EXPECT_TRUE(run.ok()) << run;
  EXPECT_EQ(counters.mismatches, 0u);
  EXPECT_GT(counters.requests, 0u);
  EXPECT_GT(counters.cursor_drains, 0u);
  EXPECT_GT(counters.published_epochs, 0u);
  // The injectors actually fired.
  EXPECT_GT(counters.kills, 0u);
  EXPECT_GT(counters.corruptions, 0u);
  EXPECT_EQ(counters.kills, counters.restarts);
  // Every restart rejoined at the newest spooled epoch purely by polling
  // (the soak publisher sends no notifications).
  EXPECT_EQ(counters.catchups, counters.restarts);
  fleet.Stop();
}

// ------------------------------------------------------------ crash-restart

// kill -9 the exact replica a cursor is pinned to, mid-drain, and require
// the router's epoch-pinned failover to keep the pages byte-identical to the
// model; then respawn the replica and require it to fast-forward to the
// newest spooled epoch with no publisher notification.
TEST(SoakFleetTest, KillMidDrainFailsOverAndRestartCatchesUpViaSpool) {
  FleetOptions options;
  options.replicas = 2;
  options.sessions = 0;           // we drive everything by hand
  options.publish_interval_ms = 0;  // no background threads at all
  options.replica_poll_ms = 50;
  options.retain_epochs = 8;
  Fleet fleet(options);
  ASSERT_TRUE(fleet.Start().ok());

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fleet.PublishBatch().ok());
  }
  const uint64_t epoch = fleet.published_epoch();
  ASSERT_EQ(epoch, 3u);
  ASSERT_TRUE(WaitForEpoch(fleet.replica_port(0), epoch));
  ASSERT_TRUE(WaitForEpoch(fleet.replica_port(1), epoch));

  // Open a many-paged cursor through the router.
  client::Endpoint router_endpoint;
  router_endpoint.port = fleet.router_port();
  client::CubeClient conn(router_endpoint);
  const std::string query = R"({"op":"rollup","dims":["Date","Station"]})";
  auto opened =
      conn.Call("{\"op\":\"query_open\",\"query\":" + query +
                ",\"page_size\":3}");
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto open_root = json::ParseJson(*opened);
  ASSERT_TRUE(open_root.ok());
  ASSERT_TRUE(*open_root->Get("ok").ValueOrDie().AsBool()) << *opened;
  const uint64_t pinned_epoch = static_cast<uint64_t>(
      *open_root->Get("epoch").ValueOrDie().AsNumber());
  const uint64_t cursor = static_cast<uint64_t>(
      *open_root->Get("cursor").ValueOrDie().AsNumber());
  ASSERT_EQ(pinned_epoch, epoch);

  // The replica holding the session is the one whose ping reports it.
  int pinned = -1;
  for (int i = 0; i < 2; ++i) {
    PingInfo info = PingPort(fleet.replica_port(i));
    ASSERT_TRUE(info.ok);
    if (info.sessions > 0) pinned = i;
  }
  ASSERT_GE(pinned, 0) << "no replica reports the open session";

  // One page before the kill, the rest after — failover happens mid-drain.
  JsonArray rows;
  auto drain_page = [&](bool* done) {
    auto next = conn.Call("{\"op\":\"query_next\",\"cursor\":" +
                          std::to_string(cursor) + "}");
    ASSERT_TRUE(next.ok()) << next.status();
    auto page = json::ParseJson(*next);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE(*page->Get("ok").ValueOrDie().AsBool()) << *next;
    // Failover must keep the cursor pinned to the epoch it opened on.
    EXPECT_EQ(static_cast<uint64_t>(
                  *page->Get("epoch").ValueOrDie().AsNumber()),
              pinned_epoch);
    const JsonArray* page_rows =
        page->Get("rows").ValueOrDie().AsArray();
    ASSERT_NE(page_rows, nullptr);
    rows.insert(rows.end(), page_rows->begin(), page_rows->end());
    *done = *page->Get("done").ValueOrDie().AsBool();
  };
  bool done = false;
  drain_page(&done);
  ASSERT_FALSE(done) << "query too small to still be draining at the kill";

  ASSERT_TRUE(fleet.KillReplica(pinned).ok());
  for (int pages = 0; !done && pages < 10000; ++pages) drain_page(&done);
  ASSERT_TRUE(done);

  // Byte-identical to the model pinned to the open epoch.
  auto snapshot = fleet.publisher()->store().SnapshotAt(pinned_epoch);
  ASSERT_TRUE(snapshot.ok());
  auto request = server::ParseRequest(query);
  ASSERT_TRUE(request.ok());
  server::ExecResult direct =
      server::ExecuteRequest(*snapshot->cube, *request);
  ASSERT_TRUE(direct.ok);
  auto direct_rows =
      json::ParseJson(direct.payload_json)->Get("rows").ValueOrDie();
  EXPECT_EQ(json::SerializeJson(JsonValue(std::move(rows))),
            json::SerializeJson(direct_rows));

  // Publish two more epochs while the replica is down, then respawn it: the
  // restart must rejoin at the newest spooled epoch (RestartReplica records
  // the publisher epoch before spawning and only counts a catch-up when the
  // banner proves it) — with no notifier anywhere, only the spool.
  ASSERT_TRUE(fleet.PublishBatch().ok());
  ASSERT_TRUE(fleet.PublishBatch().ok());
  ASSERT_TRUE(fleet.RestartReplica(pinned).ok());
  FleetCounters counters = fleet.Counters();
  EXPECT_EQ(counters.kills, 1u);
  EXPECT_EQ(counters.restarts, 1u);
  EXPECT_EQ(counters.catchups, 1u);
  // The fresh process bootstrapped from the oldest retained file and
  // fast-forwarded through the rest — those loads are counted.
  auto catchup_loads =
      fleet.ReplicaCounter(pinned, "replica_catchup_loads_total");
  ASSERT_TRUE(catchup_loads.ok()) << catchup_loads.status();
  EXPECT_GT(*catchup_loads, 0u);

  // And it keeps following: a post-restart publish arrives by polling.
  ASSERT_TRUE(fleet.PublishBatch().ok());
  EXPECT_TRUE(WaitForEpoch(fleet.replica_port(pinned),
                           fleet.published_epoch()));
  EXPECT_EQ(fleet.Counters().mismatches, 0u);
  fleet.Stop();
}

// --------------------------------------------------------- spool corruption

// Corrupt artifacts dropped into a live fleet's spool: real replica
// subprocesses must skip them (counting replica_snapshot_load_failures_total
// over the wire), keep serving, and load the good bytes once the publisher
// overwrites the slot.
TEST(SoakFleetTest, CorruptSpoolFilesAreSkippedCountedAndOverwritten) {
  FleetOptions options;
  options.replicas = 1;
  options.sessions = 0;
  options.publish_interval_ms = 0;
  options.replica_poll_ms = 50;
  Fleet fleet(options);
  ASSERT_TRUE(fleet.Start().ok());
  ASSERT_TRUE(fleet.PublishBatch().ok());
  ASSERT_TRUE(WaitForEpoch(fleet.replica_port(0), 1));

  // Two corrupt files at the next future epochs: bad magic at 2, a
  // truncated copy at 3. The replica must count both and stay on epoch 1.
  ASSERT_TRUE(fleet.CorruptSpool().ok());
  ASSERT_TRUE(fleet.CorruptSpool().ok());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  uint64_t failures = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    auto counted =
        fleet.ReplicaCounter(0, "replica_snapshot_load_failures_total");
    ASSERT_TRUE(counted.ok()) << counted.status();
    failures = *counted;
    if (failures >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_EQ(failures, 2u);
  EXPECT_EQ(PingPort(fleet.replica_port(0)).epoch, 1u);

  // Real publishes atomically overwrite the corrupt slots; the replica's
  // size-keyed retry picks the good bytes up and fast-forwards.
  ASSERT_TRUE(fleet.PublishBatch().ok());
  ASSERT_TRUE(fleet.PublishBatch().ok());
  EXPECT_TRUE(WaitForEpoch(fleet.replica_port(0), 3));
  auto catchup_loads =
      fleet.ReplicaCounter(0, "replica_catchup_loads_total");
  ASSERT_TRUE(catchup_loads.ok());
  EXPECT_GE(*catchup_loads, 2u);
  fleet.Stop();
}

// The same skip-and-count contract, in-process and fully deterministic:
// bootstrap walks past corrupt files to the first loadable one, PollOnce
// skips them on the way forward, a failed file is counted once (not once per
// poll) and retried only when its size changes.
TEST(ReplicaSpoolTest, CorruptFilesSkippedCountedOnceAndRetriedOnNewBytes) {
  fs::path dir = ScratchDir("corrupt_spool");
  dwarf::DwarfCube cube = BuildSoakCube(7, 40);
  auto snapshot_path = [&dir](uint64_t epoch) {
    return (dir / replica::SnapshotFileName(epoch)).string();
  };
  ASSERT_TRUE(replica::WriteCubeSnapshot(cube, 1, snapshot_path(1)).ok());
  WriteFileBytes(snapshot_path(2), "NOTACUBE" + std::string(100, 'x'));
  {
    std::ifstream in(snapshot_path(1), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    WriteFileBytes(snapshot_path(3), bytes.substr(0, bytes.size() / 2));
  }
  ASSERT_TRUE(replica::WriteCubeSnapshot(cube, 4, snapshot_path(4)).ok());

  const uint64_t failures_before =
      GlobalCounterValue("replica_snapshot_load_failures_total");
  replica::ReplicaOptions options;
  options.snapshot_dir = dir.string();
  options.poll_interval_ms = 0;  // tests drive PollOnce directly
  options.bootstrap_wait_ms = 2000;
  options.retain_epochs = 8;
  replica::ReplicaServer server(options);
  ASSERT_TRUE(server.Start().ok());
  // Bootstrapped at 1, fast-forwarded past the two corrupt files to 4.
  EXPECT_EQ(server.epoch(), 4u);
  EXPECT_EQ(GlobalCounterValue("replica_snapshot_load_failures_total"),
            failures_before + 2);

  // Polling again must not re-count the same bad files.
  auto polled = server.PollOnce();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(*polled, 0u);
  EXPECT_EQ(GlobalCounterValue("replica_snapshot_load_failures_total"),
            failures_before + 2);

  // A new corrupt file at a newer epoch is counted (once), and the replica
  // keeps serving its current epoch.
  WriteFileBytes(snapshot_path(5), "NOTACUBE????");
  polled = server.PollOnce();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(*polled, 0u);
  EXPECT_EQ(GlobalCounterValue("replica_snapshot_load_failures_total"),
            failures_before + 3);
  EXPECT_EQ(server.epoch(), 4u);

  // Good bytes landing under the failed name (different size) are retried
  // and load — the self-healing path a publisher overwrite exercises.
  ASSERT_TRUE(replica::WriteCubeSnapshot(cube, 5, snapshot_path(5)).ok());
  polled = server.PollOnce();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(*polled, 1u);
  EXPECT_EQ(server.epoch(), 5u);
  EXPECT_EQ(GlobalCounterValue("replica_snapshot_load_failures_total"),
            failures_before + 3);
  server.Stop();
  fs::remove_all(dir);
}

// A spool holding nothing loadable fails bootstrap with a clear NotFound
// after the wait — it must not crash or spin forever.
TEST(ReplicaSpoolTest, BootstrapFailsCleanlyWhenNothingLoads) {
  fs::path dir = ScratchDir("all_corrupt");
  WriteFileBytes(dir / replica::SnapshotFileName(1), "NOTACUBE");
  replica::ReplicaOptions options;
  options.snapshot_dir = dir.string();
  options.bootstrap_wait_ms = 300;
  replica::ReplicaServer server(options);
  Status status = server.Start();
  EXPECT_TRUE(status.IsNotFound()) << status;
  EXPECT_NE(status.ToString().find("no loadable snapshot"), std::string::npos)
      << status;
  fs::remove_all(dir);
}

// -------------------------------------------------------- bind-address knob

// A child whose banner names no port is stopped and reaped, and its pipes
// closed: no process outlives a failed launch.
TEST(ReplicaLauncherTest, BannerWithoutPortStopsTheChild) {
  Result<ReplicaProcess> replica = SpawnReplica(
      "/bin/sh", {"-c", "echo replica serving nowhere; exec cat"});
  ASSERT_FALSE(replica.ok());
  EXPECT_NE(replica.status().ToString().find("no port"), std::string::npos)
      << replica.status();
  int status = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);  // no child left, running or unreaped
}

TEST(TcpServerBindTest, DefaultsToLoopback) {
  server::QueryServer query_server(BuildSoakCube(11, 20));
  server::TcpServer tcp(&query_server);
  ASSERT_TRUE(tcp.Start().ok());
  EXPECT_EQ(tcp.bind_address(), "127.0.0.1");
  EXPECT_TRUE(PingPort(static_cast<uint16_t>(tcp.port())).ok);
  tcp.Stop();
}

TEST(TcpServerBindTest, BindsAllInterfacesOnRequest) {
  server::QueryServer query_server(BuildSoakCube(12, 20));
  server::TcpServer tcp(&query_server);
  ASSERT_TRUE(tcp.Start(0, "0.0.0.0").ok());
  EXPECT_EQ(tcp.bind_address(), "0.0.0.0");
  // A wildcard bind is still reachable over loopback.
  EXPECT_TRUE(PingPort(static_cast<uint16_t>(tcp.port())).ok);
  tcp.Stop();
}

TEST(TcpServerBindTest, RejectsGarbageAddressesWithClearError) {
  server::QueryServer query_server(BuildSoakCube(13, 20));
  server::TcpServer tcp(&query_server);
  for (const std::string& bad :
       {std::string("not-an-address"), std::string("256.0.0.1"),
        std::string("10.0.0"), std::string("")}) {
    Status status = tcp.Start(0, bad);
    EXPECT_TRUE(status.IsInvalidArgument()) << bad << ": " << status;
    EXPECT_NE(status.ToString().find("invalid bind address"),
              std::string::npos)
        << status;
  }
  // The failed attempts must not leak a listener: a good Start still works.
  ASSERT_TRUE(tcp.Start(0, "127.0.0.1").ok());
  EXPECT_TRUE(PingPort(static_cast<uint16_t>(tcp.port())).ok);
  tcp.Stop();
}

}  // namespace
}  // namespace scdwarf::soak
