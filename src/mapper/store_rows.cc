#include "mapper/store_rows.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/trace.h"

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

/// \brief One destination table's apply lane: it coalesces the table's chunk
/// rows, in push order, into batches of at least rows_per_insert rows and
/// applies each batch. Threaded, it does so on its own worker behind a
/// bounded FIFO; otherwise inline, on the caller. Errors are sticky: after
/// the first one the lane drops the rows it still holds, and Push and
/// Finish return that error.
class RowLane {
 public:
  RowLane(std::string table, size_t rows_per_insert, const ApplyRowsFn& apply,
          bool threaded)
      : table_(std::move(table)),
        rows_per_insert_(std::max<size_t>(rows_per_insert, 1)),
        apply_(apply) {
    if (threaded) worker_ = std::thread([this] { Loop(); });
  }

  ~RowLane() { (void)Finish(); }

  RowLane(const RowLane&) = delete;
  RowLane& operator=(const RowLane&) = delete;

  /// Hands the lane one chunk's rows. Threaded, it blocks while the worker
  /// is kCapacity chunks behind, back-pressuring generation against the
  /// engine. Call only before Close.
  Status Push(Rows rows) {
    if (!worker_.joinable()) {
      if (error_.ok()) error_ = Add(std::move(rows));
      return error_;
    }
    std::unique_lock<std::mutex> lock(mu_);
    space_.wait(lock,
                [this] { return queue_.size() < kCapacity || !error_.ok(); });
    if (!error_.ok()) return error_;
    queue_.push_back(std::move(rows));
    ApplyQueueDepthGauge()->Add(1);
    wake_.notify_one();
    return Status::OK();
  }

  /// Ends the input: the lane drains its queue and applies its last,
  /// partial batch — on its worker, or inline when it has none. Does not
  /// wait for the worker, so every lane's last batch can run at once.
  void Close() {
    if (!worker_.joinable()) {
      if (!finished_ && error_.ok()) error_ = ApplyBatch();
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
      Rows rows = std::move(queue_.front());
      queue_.pop_front();
      ApplyQueueDepthGauge()->Sub(1);
      space_.notify_all();
      if (!error_.ok()) continue;
      lock.unlock();
      Status status = Add(std::move(rows));
      lock.lock();
      if (!status.ok()) {
        error_ = std::move(status);
        space_.notify_all();  // release a producer blocked on capacity
      }
    }
    if (!error_.ok()) return;
    lock.unlock();
    Status status = ApplyBatch();
    lock.lock();
    error_ = std::move(status);
  }

  /// Appends one chunk's rows to the batch and applies the batch once it
  /// holds rows_per_insert rows.
  Status Add(Rows rows) {
    if (batch_.empty()) {
      batch_ = std::move(rows);
    } else {
      batch_.insert(batch_.end(), std::make_move_iterator(rows.begin()),
                    std::make_move_iterator(rows.end()));
    }
    return batch_.size() < rows_per_insert_ ? Status::OK() : ApplyBatch();
  }

  /// Applies the batch, when it holds any row, as one insert.
  Status ApplyBatch() {
    if (batch_.empty()) return Status::OK();
    trace::ScopedSpan span("mapper.apply_task");
    Stopwatch watch;
    Status status = apply_(table_, std::exchange(batch_, {}));
    ApplyTaskHistogram()->Record(watch.ElapsedMicros());
    ApplyTasksCounter()->Increment();
    if (status.ok()) return status;
    return status.WithContext("apply lane '" + table_ + "'");
  }

  const std::string table_;
  const size_t rows_per_insert_;
  const ApplyRowsFn& apply_;
  Rows batch_;  ///< touched only by the worker, or inline by the caller
  std::mutex mu_;
  std::condition_variable wake_;   ///< worker: chunk available or finished
  std::condition_variable space_;  ///< producer: queue has room (or error)
  std::deque<Rows> queue_;
  Status error_;
  bool finished_ = false;
  std::thread worker_;  // last member: starts after the state above exists
};

}  // namespace

Status StoreRows(int num_threads, size_t num_nodes,
                 const std::vector<std::string>& tables,
                 size_t rows_per_insert, const GenerateRowsFn& generate,
                 const ApplyRowsFn& apply) {
  const int threads = ResolveThreadCount(num_threads);
  std::deque<RowLane> lanes;
  for (const std::string& table : tables) {
    lanes.emplace_back(table, rows_per_insert, apply, threads > 1);
  }
  // Hands one chunk's rows to the lanes, stopping at the first lane error.
  auto push = [&lanes](std::vector<Rows> chunk) -> Status {
    SCD_CHECK_EQ(chunk.size(), lanes.size());
    for (size_t t = 0; t < lanes.size(); ++t) {
      SCD_RETURN_IF_ERROR(lanes[t].Push(std::move(chunk[t])));
    }
    return Status::OK();
  };
  Status status;
  if (threads <= 1) {
    for (size_t begin = 0; begin < num_nodes && status.ok();
         begin += kRowChunkNodes) {
      status =
          push(generate(begin, std::min(num_nodes, begin + kRowChunkNodes)));
    }
  } else {
    ThreadPool pool(threads);
    const size_t wave_nodes = kRowChunkNodes * static_cast<size_t>(threads);
    for (size_t wave = 0; wave < num_nodes && status.ok(); wave += wave_nodes) {
      // One near-equal shard per worker, about kRowChunkNodes nodes each.
      std::vector<std::vector<Rows>> chunks =
          ParallelMapShards<std::vector<Rows>>(
              pool, std::min(num_nodes, wave + wave_nodes) - wave,
              [&](const ShardRange& shard) {
                return generate(wave + shard.begin, wave + shard.end);
              });
      for (std::vector<Rows>& chunk : chunks) {
        if (status.ok()) status = push(std::move(chunk));
      }
    }
  }
  // Every lane applies its last batch, all at once, and is joined, even
  // after an error, so no insert outlives this call.
  for (RowLane& lane : lanes) lane.Close();
  for (RowLane& lane : lanes) {
    Status lane_status = lane.Finish();
    if (status.ok()) status = std::move(lane_status);
  }
  return status;
}

}  // namespace scdwarf::mapper
