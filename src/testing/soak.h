/// \file soak.h
/// \brief Fault-injected endurance harness for the replica fan-out fleet.
///
/// A soak::Fleet runs the whole serving stack the way an operator would
/// deploy it — except everything lives under one roof so a test can steer
/// it deterministically:
///
///  - an in-process publisher (server::QueryServer) that applies a random
///    tuple batch every publish interval and spools each epoch to a shared
///    snapshot directory. The publisher sends NO load_snapshot
///    notifications: replicas follow the spool purely by polling, so every
///    epoch a replica serves past its bootstrap proves the spool catch-up
///    path (the shared-filesystem deployment mode);
///  - N real scdwarf_replica subprocesses over that spool, each on a fixed
///    port so a killed replica can be respawned in place;
///  - one in-process replica::Router fronted by a server::TcpServer;
///  - M session threads hammering the router with a mixed workload (point /
///    slice / rollup / rollup-where / aggregate-range / cursor drains),
///    each answer differentially checked against a model cube pinned to the
///    epoch the answer declares (see below);
///  - optional fault injectors: a killer (SIGKILL a random replica, respawn
///    it, require the restart to catch up to the newest spooled epoch), a
///    spool corrupter (bad-magic / truncated / leftover-tmp files dropped
///    into the spool at future epochs), and periodic client connection
///    drops inside the session threads.
///
/// Differential checking: the publisher retains a window of epoch → cube
/// models. Every one-shot answer must be byte-identical to
/// MakeResponse(ExecuteRequest(model[epoch], request)) (either cached
/// variant); every cursor drain must deliver pages all pinned to the open
/// epoch whose concatenated rows equal the model's one-shot rows. Answers
/// carrying a fleet availability code (overloaded, no_healthy_replica,
/// too_many_sessions, epoch_gone, not yet bootstrapped) and transport
/// errors are counted but are not mismatches — the soak's correctness bar
/// is "never a wrong answer", not "never a refused one".
///
/// bench/soak_fleet runs this open-ended for operators;
/// tools/check_soak.sh runs a ~45 s slice in CI; tests/soak_test.cc runs a
/// short deterministic slice plus single-step fault cases.

#ifndef SCDWARF_TESTING_SOAK_H_
#define SCDWARF_TESTING_SOAK_H_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/client.h"
#include "common/histogram.h"
#include "common/result.h"
#include "common/rng.h"
#include "dwarf/dwarf_cube.h"
#include "replica/router.h"
#include "server/query_server.h"
#include "server/tcp_server.h"

namespace scdwarf::soak {

/// \brief A running scdwarf_replica child process.
struct ReplicaProcess {
  pid_t pid = -1;
  int stdin_fd = -1;   ///< write end; closing it tells the replica to exit
  int stdout_fd = -1;  ///< banner side; kept open for the process lifetime
  uint16_t port = 0;
  uint64_t banner_epoch = 0;  ///< the epoch its banner reported
};

/// \brief Forks \p binary with \p flags and reads its "replica serving on
/// 127.0.0.1:PORT (epoch N, ...)" banner. On every error the child, if one
/// was forked, is stopped and every pipe closed. The one replica launcher
/// of the soak fleet and bench_router.
Result<ReplicaProcess> SpawnReplica(const std::string& binary,
                                    const std::vector<std::string>& flags);

/// \brief Closes \p replica's stdin, which tells it to exit, waits up to
/// about 2 s before killing it, and closes both pipes.
void StopReplica(ReplicaProcess& replica);

/// \brief Knobs of one soak run. Defaults suit the ctest slice; the bench
/// binary and check_soak.sh widen them.
struct FleetOptions {
  int replicas = 2;              ///< scdwarf_replica subprocesses
  int sessions = 2;              ///< client churn threads
  int publish_interval_ms = 500; ///< publisher batch cadence
  int kill_interval_ms = 0;      ///< 0 disables the killer thread
  int corrupt_interval_ms = 0;   ///< 0 disables the spool corrupter
  int replica_poll_ms = 100;     ///< --poll-ms handed to each replica
  int health_interval_ms = 100;  ///< router health-check cadence
  int batch_size = 16;           ///< tuples per published batch
  size_t model_epochs = 16;      ///< differential model window
  size_t retain_epochs = 6;      ///< replica/publisher epoch retention
  double p99_bound_us = 0;       ///< 0 = unchecked; else RunFor fails over it
  uint64_t seed = 0x50a1c;
  /// Drop (Close) a session's client connection roughly every N requests;
  /// 0 disables. The next call reconnects.
  int drop_every = 64;
  std::string replica_bin;   ///< empty = DefaultReplicaBinary()
  std::string spool_dir;     ///< empty = fresh directory under /tmp
};

/// \brief Monotonic run counters; Counters() returns a consistent copy.
struct FleetCounters {
  uint64_t requests = 0;        ///< one-shot answers differentially checked
  uint64_t cursor_drains = 0;   ///< cursor sessions drained and checked
  uint64_t mismatches = 0;      ///< wrong answers — must stay 0, always
  uint64_t kills = 0;           ///< SIGKILLs delivered to replicas
  uint64_t restarts = 0;        ///< replicas respawned after a kill
  uint64_t catchups = 0;        ///< restarts that rejoined at the newest
                                ///< spooled epoch (spool catch-up proof)
  uint64_t corruptions = 0;     ///< corrupt files dropped into the spool
  uint64_t availability = 0;    ///< refused answers (overloaded, failover...)
  uint64_t transport_errors = 0;///< dropped/failed connections seen
  uint64_t unchecked = 0;       ///< answers older than the model window
  uint64_t published_epochs = 0;
  double p50_us = 0;            ///< one-shot latency through the router
  double p99_us = 0;
};

/// \brief The fleet under soak. Start() brings everything up; RunFor()
/// drives churn + faults for a wall-clock window; Stop() tears down.
/// Single-step helpers (PublishBatch, KillReplica, RestartReplica,
/// CorruptSpool) let tests build deterministic fault scenarios without the
/// background threads.
class Fleet {
 public:
  explicit Fleet(FleetOptions options);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// \brief Publishes the initial cube, spawns the replicas, starts the
  /// router and the publisher thread (plus killer/corrupter when their
  /// intervals are set).
  Status Start();

  /// \brief Runs the session churn threads for \p seconds, then joins them.
  /// Publisher and fault threads keep running across calls. Returns an
  /// error when any mismatch was recorded, or when p99_bound_us is set and
  /// the one-shot p99 exceeds it.
  Status RunFor(double seconds);

  /// \brief Stops every thread and subprocess. Idempotent; run by the
  /// destructor. The spool directory is left behind only when the caller
  /// provided it.
  void Stop();

  FleetCounters Counters() const;

  /// First few recorded mismatches, for failure messages.
  std::vector<std::string> MismatchSamples() const;

  /// \brief One publisher batch: ApplyUpdate + spool + model capture.
  /// Returns the published epoch.
  Result<uint64_t> PublishBatch();

  /// \brief SIGKILLs replica \p index (no restart). Its port stays
  /// reserved for RestartReplica.
  Status KillReplica(int index);

  /// \brief Respawns replica \p index on its original port and verifies the
  /// banner epoch is at least the newest epoch the publisher had spooled
  /// before the spawn — the spool catch-up proof (there is no notifier in a
  /// soak fleet). Counts a restart, and a catch-up when the proof holds.
  Status RestartReplica(int index);

  /// \brief Drops one corrupt artifact into the spool at a near-future
  /// epoch: cycles bad-magic, truncated-copy-of-newest, and a leftover
  /// ".cf.tmp" (the mid-rename shape, invisible to ListSnapshots). Real
  /// publishes later overwrite the slot and replicas recover on their own.
  Status CorruptSpool();

  /// \brief Counter \p name (global or per-instance) read from replica
  /// \p index over its own port via the "metrics" op; 0 when absent.
  Result<uint64_t> ReplicaCounter(int index, const std::string& name);

  uint16_t router_port() const { return router_port_; }
  uint16_t replica_port(int index) const;
  uint64_t published_epoch() const;
  const std::string& spool_dir() const { return spool_; }
  server::QueryServer* publisher() { return publisher_.get(); }

 private:
  /// What a differential check concluded about one answer.
  enum class Verdict { kChecked, kAvailability, kTransport, kUnchecked };

  /// Spawns one replica of this fleet over the spool, on \p port (0: any).
  Result<ReplicaProcess> LaunchReplica(uint16_t port);
  /// Model cube for \p epoch: waits (bounded) for the publisher to catch
  /// up, nullptr + kUnchecked when the epoch aged out of the window,
  /// records a mismatch on a never-published epoch.
  std::shared_ptr<const dwarf::DwarfCube> ModelFor(uint64_t epoch,
                                                   Verdict* verdict);
  void RecordMismatch(const std::string& what);
  /// One session thread: mixed workload against the router until
  /// churn_stop_ flips.
  void SessionLoop(int session_index);
  /// Differentially checks one one-shot response. \p raw is the full
  /// response frame payload as received.
  Verdict CheckOneShot(const std::string& request_json,
                       const std::string& raw);
  /// Opens, drains and checks one cursor session on \p conn.
  void RunCursorDrain(client::CubeClient& conn, const std::string& query_json,
                      size_t page_size);
  std::string MakeRandomRequest(Rng& rng) const;
  std::string MakeRowsQuery(Rng& rng) const;

  FleetOptions options_;
  std::string spool_;
  bool owns_spool_ = false;
  std::unique_ptr<server::QueryServer> publisher_;
  std::unique_ptr<replica::Router> router_;
  std::unique_ptr<server::TcpServer> router_tcp_;
  uint16_t router_port_ = 0;
  std::vector<ReplicaProcess> replicas_;
  mutable std::mutex replicas_mu_;  ///< guards replicas_ (killer vs helpers)

  // epoch → model cube, pruned to the trailing model_epochs entries.
  mutable std::mutex model_mu_;
  std::condition_variable model_cv_;
  std::map<uint64_t, std::shared_ptr<const dwarf::DwarfCube>> models_;
  uint64_t newest_epoch_ = 0;

  mutable std::mutex counters_mu_;
  FleetCounters counters_;
  std::vector<std::string> mismatch_samples_;
  FixedBucketHistogram latency_us_;

  std::atomic<uint64_t> corrupt_variant_{0};  ///< cycles CorruptSpool shapes
  std::atomic<bool> stopping_{false};
  std::atomic<bool> churn_stop_{true};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;  ///< wakes the background threads early
  std::thread publish_thread_;
  std::thread kill_thread_;
  std::thread corrupt_thread_;
  std::vector<std::thread> session_threads_;
};

/// \brief The scdwarf_replica binary next to the calling test/bench binary
/// (<dir of /proc/self/exe>/../src/replica/scdwarf_replica), overridable
/// via SCDWARF_REPLICA_BIN. Empty string when neither resolves.
std::string DefaultReplicaBinary();

/// \brief The soak cube schema: Date (ordered), Day, Station — wide enough
/// to exercise value-range predicates, rollup-where and merges with fresh
/// keys. Exposed so tests can build compatible cubes directly.
dwarf::CubeSchema SoakSchema();

/// \brief A deterministic batch of \p size tuples over the soak vocabulary;
/// roughly one batch in four carries a never-seen-before station so delta
/// merges keep extending dictionaries.
std::vector<std::pair<std::vector<std::string>, dwarf::Measure>> SoakBatch(
    Rng& rng, int size);

}  // namespace scdwarf::soak

#endif  // SCDWARF_TESTING_SOAK_H_
