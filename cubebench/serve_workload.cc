// Workload `serve`: one QueryServer with default options over the Month
// cube, behind TcpServer on loopback. kQueryConnections closed-loop
// CubeClient connections cycle a fixed pool of distinct one-shots that fits
// in the 4096-entry result cache, while one publisher thread calls
// QueryServer::ApplyUpdate with small batches at a fixed rate — enough
// publishes per run to cross several compactions. Cache hits, wire handling
// and the publish path (delta build, merge, revalidation sweep, compaction)
// all run here; tree traversal mostly does not.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <set>
#include <thread>

#include "bench_common.h"
#include "client/client.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "dwarf/update.h"
#include "replica/snapshot.h"
#include "server/epoch_cube.h"
#include "server/query_server.h"
#include "server/tcp_server.h"
#include "server/wire.h"

namespace cubebench {
namespace {

using namespace scdwarf;
namespace fs = std::filesystem;

constexpr size_t kPoolSize = 256;
// Publish batches are drawn the way the fleet soak publisher draws them
// (soak::SoakBatch): 16 tuples, every dimension's key drawn on its own from
// the base cube's dictionary, a fresh Station value with probability 0.06
// (one of 32 names), measures 1-40. So publishes insert new paths and grow
// a dictionary, not only bump measures. The rate has no traffic source: 20/s
// is what crosses several compactions (one per 64 chunks) in a run.
constexpr double kPublishesPerSecond = 20;
constexpr size_t kBatchTuples = 16;
constexpr double kFreshStationShare = 0.06;
// Answers kept for the model check: kSampleBursts bursts per reader and
// phase, spread evenly over the phase, of kBurstLength consecutive answers
// (mostly of one epoch, so each model rebuild checks several).
constexpr size_t kSampleBursts = 20;
constexpr size_t kBurstLength = 5;
// Distinct epochs the model is rebuilt at in Check().
constexpr size_t kMaxCheckedEpochs = 10;

using Batch = std::vector<std::pair<std::vector<std::string>, dwarf::Measure>>;

struct Sample {
  size_t pool_index = 0;
  std::string response;
};

// One reader connection's record of a phase.
struct ReaderLog {
  std::vector<double> latency_us;
  std::vector<QueryClass> classes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Sample> samples;
};

struct PublishLog {
  double wall_ms = 0;
  dwarf::UpdateProfile profile;
};

class ServeWorkload : public Workload {
 public:
  ~ServeWorkload() override {
    if (tcp_ != nullptr) tcp_->Stop();
  }

  Status Setup(const RunOptions& options) override {
    options_ = options;
    SCD_ASSIGN_OR_RETURN(Feed feed, GenerateMonthFeed(options.seed));
    SCD_ASSIGN_OR_RETURN(dwarf::DwarfCube cube, BuildCube(feed));
    base_ = std::make_unique<dwarf::DwarfCube>(cube);

    // Inputs: the query pool and every publish batch of the run.
    QueryGenerator generator(*base_);
    Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 1);
    // Exact class quotas, so every seed serves the same mix. A shape with
    // few distinct queries (a rollup without "where") is skipped once it
    // keeps repeating.
    std::set<std::string> seen;
    for (size_t c = 0; c < std::size(QueryGenerator::kMix); ++c) {
      size_t quota = c + 1 < std::size(QueryGenerator::kMix)
                         ? static_cast<size_t>(kPoolSize * QueryGenerator::kMix[c] + 0.5)
                         : kPoolSize - pool_.size();
      for (size_t variant = 0, added = 0; added < quota; ++variant) {
        for (int attempt = 0; attempt < 8; ++attempt) {
          Query query = generator.Make(static_cast<QueryClass>(c), variant, rng);
          if (seen.insert(query.json).second) {
            pool_.push_back(std::move(query));
            ++added;
            break;
          }
        }
      }
    }
    const size_t dims = base_->num_dimensions();
    size_t batches = static_cast<size_t>(std::ceil(options.seconds * kPublishesPerSecond)) + 2;
    for (size_t b = 0; b < batches; ++b) {
      Batch batch;
      for (size_t t = 0; t < kBatchTuples; ++t) {
        std::vector<std::string> keys;
        for (size_t dim = 0; dim < dims; ++dim) {
          const dwarf::Dictionary& dict = base_->dictionary(dim);
          if (base_->schema().dimensions()[dim].name == "Station" &&
              rng.NextBool(kFreshStationShare)) {
            keys.push_back("Fresh" + std::to_string(rng.NextBelow(32)));
          } else {
            keys.push_back(dict.DecodeUnchecked(
                static_cast<dwarf::DimKey>(rng.NextBelow(dict.size()))));
          }
        }
        batch.emplace_back(std::move(keys),
                           static_cast<dwarf::Measure>(rng.NextInRange(1, 40)));
      }
      batches_.push_back(std::move(batch));
    }

    server_ = std::make_unique<server::QueryServer>(std::move(cube));
    tcp_ = std::make_unique<server::TcpServer>(server_.get());
    SCD_RETURN_IF_ERROR(tcp_->Start(0));
    endpoint_.port = static_cast<uint16_t>(tcp_->port());
    // Connect every reader and fill the cache before timing starts.
    for (int c = 0; c < kQueryConnections; ++c) {
      clients_.push_back(std::make_unique<client::CubeClient>(endpoint_));
      SCD_RETURN_IF_ERROR(clients_.back()->Call("{\"op\":\"ping\"}").status());
    }
    for (const Query& query : pool_) {
      SCD_RETURN_IF_ERROR(clients_.front()->Call(query.json).status());
    }
    return Status::OK();
  }

  Result<PhaseResult> Run(double seconds) override {
    const server::ServerStats before = server_->Stats();
    const size_t publishes = static_cast<size_t>(std::llround(seconds * kPublishesPerSecond));
    std::vector<ReaderLog> logs(kQueryConnections);
    std::vector<PublishLog> publish_log;
    uint64_t publish_attempted = 0;
    uint64_t publish_failed = 0;
    std::atomic<bool> stop{false};
    Stopwatch phase_watch;

    std::vector<std::thread> readers;
    for (int c = 0; c < kQueryConnections; ++c) {
      readers.emplace_back([&, c] {
        ReaderLog& log = logs[c];
        client::CubeClient& conn = *clients_[c];
        Rng rng(options_.seed * 31 + static_cast<uint64_t>(c) + 7 * phases_);
        double next_burst_s = 0;
        size_t burst_left = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          size_t index = rng.NextBelow(pool_.size());
          ++log.attempted;
          Stopwatch watch;
          Result<std::string> response = [&] {
            trace::ScopedSpan span("client.call");
            return conn.Call(pool_[index].json);
          }();
          double us = watch.ElapsedMicros();
          if (!response.ok() || !ResponseOk(*response)) {
            ++log.failed;
            continue;
          }
          log.latency_us.push_back(us);
          log.classes.push_back(pool_[index].cls);
          if (burst_left == 0 && phase_watch.ElapsedSeconds() >= next_burst_s &&
              log.samples.size() < kSampleBursts * kBurstLength) {
            burst_left = kBurstLength;
            next_burst_s += seconds / kSampleBursts;
          }
          if (burst_left > 0) {
            log.samples.push_back({index, std::move(*response)});
            --burst_left;
          }
        }
      });
    }
    std::thread publisher([&] {
      auto start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < publishes && next_batch_ < batches_.size(); ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::duration<double>(i / kPublishesPerSecond));
        ++publish_attempted;
        Stopwatch watch;
        Result<uint64_t> epoch = [&] {
          trace::ScopedSpan span("server.apply_update");
          return server_->ApplyUpdate(batches_[next_batch_]);
        }();
        double ms = watch.ElapsedMillis();
        size_t batch = next_batch_++;
        if (!epoch.ok()) {
          ++publish_failed;
          continue;
        }
        applied_.push_back(batch);
        publish_log.push_back({ms, server_->Stats().last_update});
      }
    });
    publisher.join();
    while (phase_watch.ElapsedSeconds() < seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop = true;
    for (std::thread& reader : readers) reader.join();
    double elapsed = phase_watch.ElapsedSeconds();
    const server::ServerStats after = server_->Stats();
    ++phases_;

    // ---------------------------------------------------------- end to end
    PhaseResult phase;
    std::vector<double> latency_us;
    std::vector<QueryClass> classes;
    for (ReaderLog& log : logs) {
      phase.attempted += log.attempted;
      phase.failed += log.failed;
      latency_us.insert(latency_us.end(), log.latency_us.begin(), log.latency_us.end());
      classes.insert(classes.end(), log.classes.begin(), log.classes.end());
      for (Sample& sample : log.samples) samples_.push_back(std::move(sample));
    }
    phase.attempted += publish_attempted;
    phase.failed += publish_failed;
    std::vector<double> publish_ms, delta_ms, merge_ms, reused, other_ms,
        compaction_ms;
    for (const PublishLog& entry : publish_log) {
      publish_ms.push_back(entry.wall_ms);
      if (entry.profile.incremental) {
        delta_ms.push_back(entry.profile.delta_build_ms);
        merge_ms.push_back(entry.profile.merge_ms);
        reused.push_back(static_cast<double>(entry.profile.nodes_reused));
        other_ms.push_back(entry.wall_ms - entry.profile.delta_build_ms -
                           entry.profile.merge_ms);
      } else {
        compaction_ms.push_back(entry.profile.rebuild_ms);
      }
    }
    double qps = static_cast<double>(latency_us.size()) / elapsed;
    double p50_us = Median(latency_us);
    phase.end_to_end["main_p50_ms"] = p50_us / 1000.0;
    phase.end_to_end["aux_p50_ms"] = Median(publish_ms);

    // Storage of the served cube after the publishes, dead merge slots
    // included: the snapshot file the publisher would spool.
    server::EpochCubeStore::Snapshot live = server_->store().snapshot();
    std::string spool = (fs::path(options_.work_dir) / "serve.cf").string();
    SCD_RETURN_IF_ERROR(replica::WriteCubeSnapshot(*live.cube, live.epoch, spool));
    uint64_t tuples = std::max<uint64_t>(1, live.cube->stats().tuple_count);
    phase.end_to_end["bytes_per_tuple"] =
        static_cast<double>(fs::file_size(spool)) / static_cast<double>(tuples);
    fs::remove(spool);

    std::printf("serve: %d connections, pool %zu one-shots (cache %zu), "
                "%zu publishes of %zu tuples at %.0f/s, %.2f s\n",
                kQueryConnections, pool_.size(), server_->cache().capacity(),
                publish_log.size(), kBatchTuples, kPublishesPerSecond, elapsed);
    Report("query_qps", qps, "1/s");
    ReportLatency("query", latency_us, "us");
    ReportTailClasses(latency_us, classes);
    ReportLatency("publish", publish_ms, "ms");
    // Compactions are the heavy publish class; say where the tail lies.
    Tail publish_tail = TailOf(publish_ms);
    std::vector<double> incremental_ms;
    for (const PublishLog& entry : publish_log) {
      if (entry.profile.incremental) incremental_ms.push_back(entry.wall_ms);
    }
    std::printf("  publish classes: incremental %zu (p50 %.2f ms, max %.2f ms), "
                "compaction %zu (p50 %.2f ms); tail p%.1f has %zu beyond, "
                "%zu of them compactions\n",
                incremental_ms.size(), Median(incremental_ms),
                Quantile(incremental_ms, 1.0), compaction_ms.size(),
                Median(compaction_ms), publish_tail.q * 100, publish_tail.beyond,
                std::min(publish_tail.beyond, compaction_ms.size()));
    Report("served_bytes_per_tuple", phase.end_to_end["bytes_per_tuple"], "B",
           "epoch " + std::to_string(live.epoch) + ", tuples " +
               std::to_string(base_->stats().tuple_count) + " -> " +
               std::to_string(live.cube->stats().tuple_count));

    // ----------------------------------------------------------- per layer
    auto& layers = phase.layers;
    uint64_t hits = after.cache.hits - before.cache.hits;
    uint64_t lookups = hits + after.cache.misses - before.cache.misses;
    layers["server.cache_hit_ratio"] = lookups == 0 ? 0 : double(hits) / lookups;
    layers["server.cache_lookups"] = static_cast<double>(lookups);
    layers["server.handle_us_p50"] = after.latency_p50_us;
    layers["server.handle_us_p99"] = after.latency_p99_us;
    layers["client.transport_us_p50"] = p50_us - after.latency_p50_us;
    layers["server.ping_us_p50"] = PingP50Micros(*clients_.front());
    layers["server.parse_us"] = ParseMicros();
    layers["dwarf.delta_build_ms"] = Median(delta_ms);
    layers["dwarf.merge_ms"] = Median(merge_ms);
    layers["dwarf.nodes_reused"] = Median(reused);
    layers["server.publish_other_ms"] = Median(other_ms);
    double published = std::max<double>(1, publish_log.size());
    layers["server.revalidated_per_publish"] =
        (after.cache.revalidated - before.cache.revalidated) / published;
    layers["server.invalidated_per_publish"] =
        (after.cache.invalidations - before.cache.invalidations) / published;
    layers["dwarf.compactions"] = static_cast<double>(compaction_ms.size());
    layers["dwarf.compaction_ms"] = Median(compaction_ms);
    return phase;
  }

  // Every sampled answer must be byte-identical to the model's: the base
  // cube plus every batch applied before the epoch the answer declares,
  // rebuilt from scratch (the reference update path, not the incremental
  // merge the server ran).
  Status Check() override {
    std::map<uint64_t, std::vector<const Sample*>> by_epoch;
    for (const Sample& sample : samples_) {
      SCD_ASSIGN_OR_RETURN(Envelope envelope, ParseEnvelope(sample.response));
      by_epoch[envelope.epoch].push_back(&sample);
    }
    std::vector<uint64_t> epochs;
    for (const auto& [epoch, unused] : by_epoch) epochs.push_back(epoch);
    std::vector<uint64_t> checked;
    for (size_t i = 0; i < kMaxCheckedEpochs && i < epochs.size(); ++i) {
      checked.push_back(epochs[i * epochs.size() / std::min(kMaxCheckedEpochs, epochs.size())]);
    }
    size_t compared = 0;
    for (uint64_t epoch : checked) {
      if (epoch > applied_.size()) return Status::Internal("answer from an unpublished epoch");
      dwarf::CubeUpdater updater(*base_);
      for (size_t i = 0; i < epoch; ++i) {
        for (const auto& [keys, measure] : batches_[applied_[i]]) {
          SCD_RETURN_IF_ERROR(updater.AddTuple(keys, measure));
        }
      }
      SCD_ASSIGN_OR_RETURN(dwarf::DwarfCube model, std::move(updater).Rebuild());
      for (const Sample* sample : by_epoch[epoch]) {
        SCD_ASSIGN_OR_RETURN(Envelope envelope, ParseEnvelope(sample->response));
        SCD_ASSIGN_OR_RETURN(std::string expected,
                             ExpectedResponse(model, epoch, envelope.cached,
                                              pool_[sample->pool_index].json));
        if (expected != sample->response) {
          return Status::Internal("answer at epoch " + std::to_string(epoch) +
                                  " differs from the model for " +
                                  pool_[sample->pool_index].json);
        }
        ++compared;
      }
    }
    if (compared == 0) return Status::Internal("no answers sampled");
    std::printf("serve check: %zu sampled answers at %zu epochs match the model\n",
                compared, checked.size());
    return Status::OK();
  }

 private:
  double ParseMicros() const {
    constexpr int kPasses = 20;
    Stopwatch watch;
    size_t parsed = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const Query& query : pool_) {
        parsed += server::ParseRequest(query.json).ok() ? 1 : 0;
      }
    }
    return watch.ElapsedMicros() / std::max<size_t>(1, parsed);
  }

  RunOptions options_;
  std::unique_ptr<dwarf::DwarfCube> base_;
  std::vector<Query> pool_;
  std::vector<Batch> batches_;
  size_t next_batch_ = 0;        ///< batches handed to ApplyUpdate so far
  std::vector<size_t> applied_;  ///< batches that took effect; epoch k = first k
  int phases_ = 0;
  std::unique_ptr<server::QueryServer> server_;
  std::unique_ptr<server::TcpServer> tcp_;
  client::Endpoint endpoint_;
  std::vector<std::unique_ptr<client::CubeClient>> clients_;
  std::vector<Sample> samples_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload() {
  return std::make_unique<ServeWorkload>();
}

}  // namespace cubebench
