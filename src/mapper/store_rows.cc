#include "mapper/store_rows.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "nosql/database.h"

namespace scdwarf::mapper {

namespace {

/// Nodes per generation chunk.
constexpr size_t kRowChunkNodes = 1024;

// Lane instrumentation, shared across every lane (one gauge for the summed
// queue depth rather than a per-table series — table names are unbounded).
metrics::Gauge* ApplyQueueDepthGauge() {
  static metrics::Gauge* const gauge = metrics::GlobalRegistry().GetGauge(
      "mapper_apply_queue_depth", {},
      "chunk row sets queued across all apply lanes, not yet taken");
  return gauge;
}

metrics::Counter* ApplyTasksCounter() {
  static metrics::Counter* const counter = metrics::GlobalRegistry().GetCounter(
      "mapper_apply_tasks_total", {},
      "row batches applied by the apply lanes (one insert each)");
  return counter;
}

FixedBucketHistogram* ApplyTaskHistogram() {
  static FixedBucketHistogram* const hist =
      metrics::GlobalRegistry().GetHistogram(
          "mapper_apply_task_us", {}, "per-batch apply latency on a lane (us)");
  return hist;
}

/// \brief One destination table's apply lane: it gathers the table's chunk
/// batches, in push order, until they hold at least rows_per_insert rows
/// and applies them as one insert. Threaded, it does so on its own worker
/// behind a bounded FIFO; otherwise inline, on the caller. Errors are
/// sticky: after the first one the lane drops the batches it still holds,
/// and Push and Finish return that error.
template <typename Batch>
class RowLane {
 public:
  RowLane(std::string table, const RowSink<Batch>& sink, bool threaded)
      : table_(std::move(table)),
        rows_per_insert_(std::max<size_t>(sink.rows_per_insert, 1)),
        apply_(sink.apply) {
    if (threaded) worker_ = std::thread([this] { Loop(); });
  }

  ~RowLane() { (void)Finish(); }

  RowLane(const RowLane&) = delete;
  RowLane& operator=(const RowLane&) = delete;

  /// Hands the lane one chunk's batch. Threaded, it blocks while the worker
  /// is kCapacity chunks behind, back-pressuring generation against the
  /// engine. Call only before Close.
  Status Push(Batch batch) {
    if (!worker_.joinable()) {
      if (error_.ok()) error_ = Add(std::move(batch));
      return error_;
    }
    std::unique_lock<std::mutex> lock(mu_);
    space_.wait(lock,
                [this] { return queue_.size() < kCapacity || !error_.ok(); });
    if (!error_.ok()) return error_;
    queue_.push_back(std::move(batch));
    ApplyQueueDepthGauge()->Add(1);
    wake_.notify_one();
    return Status::OK();
  }

  /// Ends the input: the lane drains its queue and applies its last,
  /// partial insert — on its worker, or inline when it has none. Does not
  /// wait for the worker, so every lane's last insert can run at once.
  void Close() {
    if (!worker_.joinable()) {
      if (!finished_ && error_.ok()) error_ = ApplyPending();
      finished_ = true;
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      finished_ = true;
    }
    wake_.notify_all();
  }

  /// Closes the lane, joins its worker, and returns the lane's first error.
  /// Idempotent.
  Status Finish() {
    Close();
    if (worker_.joinable()) worker_.join();
    return error_;
  }

 private:
  static constexpr size_t kCapacity = 8;

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      wake_.wait(lock, [this] { return finished_ || !queue_.empty(); });
      if (queue_.empty()) break;  // finished, and fully drained
      Batch batch = std::move(queue_.front());
      queue_.pop_front();
      ApplyQueueDepthGauge()->Sub(1);
      space_.notify_all();
      if (!error_.ok()) continue;
      lock.unlock();
      Status status = Add(std::move(batch));
      lock.lock();
      if (!status.ok()) {
        error_ = std::move(status);
        space_.notify_all();  // release a producer blocked on capacity
      }
    }
    if (!error_.ok()) return;
    lock.unlock();
    Status status = ApplyPending();
    lock.lock();
    error_ = std::move(status);
  }

  /// Adds one chunk's batch to the pending insert and applies it once it
  /// holds rows_per_insert rows.
  Status Add(Batch batch) {
    if (batch.size() == 0) return Status::OK();
    pending_rows_ += batch.size();
    pending_.push_back(std::move(batch));
    return pending_rows_ < rows_per_insert_ ? Status::OK() : ApplyPending();
  }

  /// Applies the pending batches, when there are any, as one insert.
  Status ApplyPending() {
    if (pending_.empty()) return Status::OK();
    trace::ScopedSpan span("mapper.apply_task");
    Stopwatch watch;
    pending_rows_ = 0;
    Status status = apply_(table_, std::exchange(pending_, {}));
    ApplyTaskHistogram()->Record(watch.ElapsedMicros());
    ApplyTasksCounter()->Increment();
    if (status.ok()) return status;
    return status.WithContext("apply lane '" + table_ + "'");
  }

  const std::string table_;
  const size_t rows_per_insert_;
  const std::function<Status(const std::string&, std::vector<Batch>)>& apply_;
  /// The next insert's batches and their rows; touched only by the worker,
  /// or inline by the caller.
  std::vector<Batch> pending_;
  size_t pending_rows_ = 0;
  std::mutex mu_;
  std::condition_variable wake_;   ///< worker: chunk available or finished
  std::condition_variable space_;  ///< producer: queue has room (or error)
  std::deque<Batch> queue_;
  Status error_;
  bool finished_ = false;
  std::thread worker_;  // last member: starts after the state above exists
};

/// One chunk's batches, one per table, or the error that stopped them.
template <typename Batch>
struct PreparedChunk {
  Status status;
  std::vector<Batch> batches;
};

}  // namespace

template <typename Batch>
Status StoreRows(int num_threads, size_t num_nodes,
                 const std::vector<std::string>& tables,
                 const GenerateRowsFn& generate, const RowSink<Batch>& sink) {
  const int threads = ResolveThreadCount(num_threads);
  std::deque<RowLane<Batch>> lanes;
  for (const std::string& table : tables) {
    lanes.emplace_back(table, sink, threads > 1);
  }
  // Generates nodes [begin, end) and prepares each table's rows, on the
  // thread that generated them.
  auto prepare = [&](size_t begin, size_t end) {
    std::vector<Rows> rows = generate(begin, end);
    SCD_CHECK_EQ(rows.size(), tables.size());
    PreparedChunk<Batch> chunk;
    chunk.batches.reserve(rows.size());
    for (size_t t = 0; t < rows.size(); ++t) {
      Result<Batch> batch = sink.prepare(tables[t], std::move(rows[t]));
      if (!batch.ok()) {
        chunk.status =
            batch.status().WithContext("preparing rows of '" + tables[t] + "'");
        break;
      }
      chunk.batches.push_back(std::move(*batch));
    }
    return chunk;
  };
  // Hands one chunk's batches to the lanes, stopping at the first error.
  auto push = [&lanes](PreparedChunk<Batch> chunk) -> Status {
    SCD_RETURN_IF_ERROR(chunk.status);
    for (size_t t = 0; t < lanes.size(); ++t) {
      SCD_RETURN_IF_ERROR(lanes[t].Push(std::move(chunk.batches[t])));
    }
    return Status::OK();
  };
  // The chunks: waves of one chunk per thread, each wave split into
  // near-equal shards of about kRowChunkNodes nodes.
  std::vector<ShardRange> chunks;
  const size_t wave_nodes = kRowChunkNodes * static_cast<size_t>(threads);
  for (size_t wave = 0; wave < num_nodes; wave += wave_nodes) {
    for (ShardRange shard :
         SplitShards(std::min(num_nodes, wave + wave_nodes) - wave, threads)) {
      chunks.push_back({chunks.size(), wave + shard.begin, wave + shard.end});
    }
  }
  Status status;
  if (threads <= 1) {
    for (const ShardRange& chunk : chunks) {
      status = push(prepare(chunk.begin, chunk.end));
      if (!status.ok()) break;
    }
  } else {
    // The pool keeps up to two chunks per thread in flight and the caller
    // pushes them in chunk order as they finish, so no thread waits for the
    // slowest chunk of a wave. Declared before the pool, the slots outlive
    // every task, also those still running when an error ends the loop.
    std::mutex mu;
    std::condition_variable done;
    std::vector<std::optional<PreparedChunk<Batch>>> ready(chunks.size());
    ThreadPool pool(threads);
    size_t submitted = 0;
    auto submit_next = [&] {
      if (submitted == chunks.size()) return;
      pool.Submit([&, chunk = chunks[submitted++]] {
        PreparedChunk<Batch> prepared = prepare(chunk.begin, chunk.end);
        std::lock_guard<std::mutex> lock(mu);
        ready[chunk.shard] = std::move(prepared);
        done.notify_all();
      });
    };
    for (int i = 0; i < 2 * threads; ++i) submit_next();
    for (size_t next = 0; next < chunks.size() && status.ok(); ++next) {
      std::optional<PreparedChunk<Batch>> chunk;
      {
        std::unique_lock<std::mutex> lock(mu);
        done.wait(lock, [&] { return ready[next].has_value(); });
        chunk = std::exchange(ready[next], std::nullopt);
      }
      submit_next();
      status = push(std::move(*chunk));
    }
  }
  // Every lane applies its last insert, all at once, and is joined, even
  // after an error, so no insert outlives this call.
  for (RowLane<Batch>& lane : lanes) lane.Close();
  for (RowLane<Batch>& lane : lanes) {
    Status lane_status = lane.Finish();
    if (status.ok()) status = std::move(lane_status);
  }
  return status;
}

template Status StoreRows<nosql::InsertBatch>(
    int, size_t, const std::vector<std::string>&, const GenerateRowsFn&,
    const RowSink<nosql::InsertBatch>&);

Status StoreRows(int num_threads, size_t num_nodes,
                 const std::vector<std::string>& tables,
                 size_t rows_per_insert, const GenerateRowsFn& generate,
                 const ApplyRowsFn& apply) {
  return StoreRows<Rows>(
      num_threads, num_nodes, tables, generate,
      {.prepare = [](const std::string&, Rows rows) -> Result<Rows> {
         return rows;
       },
       .apply =
           [&apply](const std::string& table, std::vector<Rows> chunks) {
             Rows rows = std::move(chunks[0]);
             for (size_t i = 1; i < chunks.size(); ++i) {
               rows.insert(rows.end(),
                           std::make_move_iterator(chunks[i].begin()),
                           std::make_move_iterator(chunks[i].end()));
             }
             return apply(table, std::move(rows));
           },
       .rows_per_insert = rows_per_insert});
}

}  // namespace scdwarf::mapper
