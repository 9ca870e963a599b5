// Workload `build`: the paper's path. The Month XML feed, generated in
// memory at set-up, is built over and over: parallel pipeline at the
// machine's thread count -> Finish() -> NoSqlDwarfMapper::Store into a fresh
// directory, flush included. Every build-side layer does all of its work
// here and no serving layer runs.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "etl/parallel_pipeline.h"
#include "mapper/nosql_dwarf_mapper.h"
#include "nosql/database.h"

namespace cubebench {
namespace {

using namespace scdwarf;
namespace fs = std::filesystem;

constexpr const char* kKeyspace = "bench";

// FNV-1a over every file of \p dir, in path order: two stores hash equal
// only when they hold the same bytes under the same names.
Result<uint64_t> HashDirectory(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](const std::string& bytes) {
    for (unsigned char c : bytes) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
  };
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) return Status::IoError("cannot read " + file.string());
    mix(fs::relative(file, dir).string());
    mix(std::string((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>()));
  }
  return hash;
}

// What one repetition produced, beyond its timings.
struct BuildOutcome {
  uint64_t nodes = 0;
  uint64_t cells = 0;
  uint64_t tuples = 0;
  uint64_t disk_bytes = 0;
  uint64_t store_hash = 0;
};

// One repetition: its timings, the profiles the APIs return, and what it
// produced.
struct Rep {
  bool ok = false;  ///< false when the pipeline or the store returned an error
  double wall_ms = 0;
  double consume_ms = 0;
  double finish_ms = 0;
  double store_ms = 0;
  etl::PipelineProfile profile;
  mapper::NoSqlStoreStats store_stats;
  BuildOutcome outcome;
};

class BuildWorkload : public Workload {
 public:
  // Generates the feed, then builds it once untimed so thread pools, the
  // allocator and the page cache are warm before the timed builds.
  Status Setup(const RunOptions& options) override {
    options_ = options;
    SCD_ASSIGN_OR_RETURN(feed_, GenerateMonthFeed(options.seed));
    SCD_ASSIGN_OR_RETURN(Rep warm_up, BuildOnce());
    return warm_up.ok ? Status::OK() : Status::Internal("warm-up build failed");
  }

  Result<PhaseResult> Run(double seconds) override {
    std::vector<double> wall_ms, consume_ms, finish_ms, drain_ms, merge_ms,
        sort_ms, construct_ms, store_ms, apply_ms, flush_ms;
    PhaseResult phase;
    BuildOutcome outcome;
    Stopwatch phase_watch;
    // At least three repetitions so the medians have a middle.
    while ((phase_watch.ElapsedSeconds() < seconds || wall_ms.size() < 3) &&
           phase.failed < 3) {
      ++phase.attempted;
      SCD_ASSIGN_OR_RETURN(Rep rep, BuildOnce());
      if (!rep.ok) {
        ++phase.failed;
        continue;
      }
      wall_ms.push_back(rep.wall_ms);
      consume_ms.push_back(rep.consume_ms);
      finish_ms.push_back(rep.finish_ms);
      drain_ms.push_back(rep.profile.drain_ms);
      merge_ms.push_back(rep.profile.dict_merge_ms);
      sort_ms.push_back(rep.profile.build.sort_ms);
      construct_ms.push_back(rep.profile.build.construct_ms);
      store_ms.push_back(rep.store_ms);
      apply_ms.push_back(rep.store_stats.apply_ms);
      flush_ms.push_back(rep.store_stats.flush_ms);
      sweep_tasks_ = rep.profile.build.sweep_tasks;
      rows_ = rep.store_stats.node_rows + rep.store_stats.cell_rows;
      outcome = rep.outcome;
      outcomes_.push_back(outcome);
    }
    if (wall_ms.empty()) return Status::Internal("every build failed");

    double wall = Median(wall_ms);
    phase.end_to_end["main_p50_ms"] = wall;
    phase.end_to_end["aux_p50_ms"] = Median(store_ms);
    phase.end_to_end["bytes_per_tuple"] =
        static_cast<double>(outcome.disk_bytes) /
        static_cast<double>(std::max<uint64_t>(1, outcome.tuples));

    auto& layers = phase.layers;
    layers["etl.consume_ms"] = Median(consume_ms);
    layers["etl.finish_ms"] = Median(finish_ms);
    layers["etl.drain_ms"] = Median(drain_ms);
    layers["etl.dict_merge_ms"] = Median(merge_ms);
    layers["dwarf.sort_ms"] = Median(sort_ms);
    layers["dwarf.construct_ms"] = Median(construct_ms);
    layers["dwarf.sweep_tasks"] = sweep_tasks_;
    layers["mapper.store_ms"] = Median(store_ms);
    layers["mapper.apply_ms"] = Median(apply_ms);
    layers["nosql.flush_ms"] = Median(flush_ms);
    layers["dwarf.nodes"] = static_cast<double>(outcome.nodes);
    layers["dwarf.cells"] = static_cast<double>(outcome.cells);
    layers["nosql.rows"] = static_cast<double>(rows_);
    layers["nosql.bytes"] = static_cast<double>(outcome.disk_bytes);

    std::printf("build: %zu builds of %llu records (%zu documents), %d threads\n",
                wall_ms.size(), static_cast<unsigned long long>(feed_.records),
                feed_.documents.size(), DefaultThreadCount());
    Report("build_tuples_per_s", static_cast<double>(feed_.records) / (wall / 1000.0),
           "1/s", "median over builds");
    Report("build_ms", wall, "ms", "median feed -> stored cube");
    Report("store_bytes_per_tuple", phase.end_to_end["bytes_per_tuple"], "B",
           std::to_string(outcome.disk_bytes) + " B / " +
               std::to_string(outcome.tuples) + " tuples");
    return phase;
  }

  // Counts and stored bytes must be identical across repetitions, and the
  // cube loaded back from the last store must equal the built one (rebuilt
  // here from the feed, so no built cube is kept alive during the run).
  Status Check() override {
    for (const BuildOutcome& outcome : outcomes_) {
      const BuildOutcome& first = outcomes_.front();
      if (outcome.nodes != first.nodes || outcome.cells != first.cells ||
          outcome.tuples != first.tuples) {
        return Status::Internal("node/cell/tuple counts differ between builds");
      }
      if (outcome.store_hash != first.store_hash ||
          outcome.disk_bytes != first.disk_bytes) {
        return Status::Internal("stored bytes differ between builds");
      }
    }
    if (outcomes_.empty()) return Status::Internal("no build to check");
    SCD_ASSIGN_OR_RETURN(auto db, nosql::Database::Open(StoreDir().string()));
    mapper::NoSqlDwarfMapper cube_mapper(&db, kKeyspace);
    SCD_ASSIGN_OR_RETURN(dwarf::DwarfCube loaded, cube_mapper.Load(schema_id_));
    SCD_ASSIGN_OR_RETURN(dwarf::DwarfCube built, BuildCube(feed_));
    if (!loaded.StructurallyEquals(built)) {
      return Status::Internal("cube loaded from the store differs from the built one");
    }
    std::printf("build check: %zu builds identical, store round-trips\n",
                outcomes_.size());
    return Status::OK();
  }

 private:
  fs::path StoreDir() const { return fs::path(options_.work_dir) / "store"; }

  // One build, feed -> stored cube, into a fresh work_dir/store. Counts,
  // sizes and the store hash are taken after the timing stops.
  Result<Rep> BuildOnce() {
    const int threads = DefaultThreadCount();
    fs::path dir = StoreDir();
    std::error_code ec;
    fs::remove_all(dir, ec);
    Rep rep;

    trace::ScopedSpan build_span("bench.build");
    Stopwatch build_watch;
    auto pipeline = etl::MakeBikesXmlParallelPipeline({.num_threads = threads},
                                                      {.num_threads = threads});
    if (!pipeline.ok()) return pipeline.status();
    Status consumed = Status::OK();
    {
      trace::ScopedSpan span("etl.consume");
      for (const std::string& document : feed_.documents) {
        Stopwatch call;
        consumed = pipeline->ConsumeXml(document);
        rep.consume_ms += call.ElapsedMillis();
        if (!consumed.ok()) break;
      }
    }
    Stopwatch finish_watch;
    Result<dwarf::DwarfCube> cube = [&]() -> Result<dwarf::DwarfCube> {
      trace::ScopedSpan span("etl.finish");
      return std::move(*pipeline).Finish(&rep.profile);
    }();
    rep.finish_ms = finish_watch.ElapsedMillis();
    if (!consumed.ok() || !cube.ok()) return rep;
    Stopwatch store_watch;
    auto db = nosql::Database::Open(dir.string());
    if (!db.ok()) return db.status();
    mapper::NoSqlDwarfMapper cube_mapper(&*db, kKeyspace);
    Result<int64_t> schema_id = [&] {
      trace::ScopedSpan span("mapper.store");
      return cube_mapper.Store(*cube, {.num_threads = threads}, &rep.store_stats);
    }();
    rep.store_ms = store_watch.ElapsedMillis();
    rep.wall_ms = build_watch.ElapsedMillis();
    if (!schema_id.ok()) return rep;

    SCD_ASSIGN_OR_RETURN(rep.outcome.disk_bytes, db->DiskSizeBytes());
    SCD_ASSIGN_OR_RETURN(rep.outcome.store_hash, HashDirectory(dir));
    const dwarf::CubeStats& stats = cube->stats();
    rep.outcome.nodes = stats.node_count;
    rep.outcome.cells = stats.cell_count;
    rep.outcome.tuples = stats.tuple_count;
    schema_id_ = *schema_id;
    rep.ok = true;
    return rep;
  }

  RunOptions options_;
  Feed feed_;
  std::vector<BuildOutcome> outcomes_;
  int sweep_tasks_ = 0;
  uint64_t rows_ = 0;
  int64_t schema_id_ = 0;  ///< schema of the store the last build left
};

}  // namespace

std::unique_ptr<Workload> MakeBuildWorkload() {
  return std::make_unique<BuildWorkload>();
}

}  // namespace cubebench
