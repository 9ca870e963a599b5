/// \file parallel_apply.h
/// \brief Ordered apply lanes: one background worker per destination table
/// that applies staged row batches in FIFO order.
///
/// GenerateApplyChunks (parallel_rows.h) parallelizes row *generation* but
/// applies every chunk on the calling thread, so with several destination
/// tables the apply phase serializes behind one thread. An ApplyLane moves
/// the per-table application onto its own worker: the mapper pushes one
/// closure per (chunk, table) and each lane drains its queue in push order.
/// Because a single worker applies every chunk of its table (through a
/// batcher, or one BulkInsert per chunk), rows reach every table in exactly
/// the serial order — segment bytes stay byte-identical to the
/// single-threaded apply — while different tables' inserts overlap. The
/// engines' per-table shard locks make the concurrent BulkInserts safe.
///
/// Error handling is sticky: the first failing task is recorded, later
/// pushes and queued tasks are skipped, and Finish() (or the destructor)
/// joins the worker and reports the error.

#ifndef SCDWARF_MAPPER_PARALLEL_APPLY_H_
#define SCDWARF_MAPPER_PARALLEL_APPLY_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace scdwarf::mapper {

namespace internal {

/// Lane instrumentation, shared across every lane (one gauge for the summed
/// queue depth rather than a per-table series — table names are unbounded).
inline metrics::Gauge* ApplyQueueDepthGauge() {
  static metrics::Gauge* const gauge = metrics::GlobalRegistry().GetGauge(
      "mapper_apply_queue_depth", {},
      "row batches queued across all apply lanes, not yet applied");
  return gauge;
}

inline metrics::Counter* ApplyTasksCounter() {
  static metrics::Counter* const counter = metrics::GlobalRegistry().GetCounter(
      "mapper_apply_tasks_total", {},
      "apply-lane tasks executed (chunk x table applications)");
  return counter;
}

inline FixedBucketHistogram* ApplyTaskHistogram() {
  static FixedBucketHistogram* const hist =
      metrics::GlobalRegistry().GetHistogram(
          "mapper_apply_task_us", {},
          "per-task apply latency on a lane worker (us)");
  return hist;
}

}  // namespace internal

/// \brief A FIFO queue of apply tasks drained by one background worker.
class ApplyLane {
 public:
  /// \p capacity bounds the queue: Push blocks when the worker falls this
  /// many tasks behind, back-pressuring generation against the engine.
  explicit ApplyLane(std::string name, size_t capacity = 8)
      : name_(std::move(name)),
        capacity_(capacity),
        worker_([this] { Loop(); }) {}

  ~ApplyLane() { (void)Finish(); }

  ApplyLane(const ApplyLane&) = delete;
  ApplyLane& operator=(const ApplyLane&) = delete;

  /// Enqueues \p task, blocking while the queue is full. Returns the sticky
  /// error without enqueueing once any task has failed.
  Status Push(std::function<Status()> task) {
    std::unique_lock<std::mutex> lock(mu_);
    space_.wait(lock, [this] {
      return queue_.size() < capacity_ || !error_.ok() || finished_;
    });
    if (!error_.ok()) return error_;
    if (finished_) {
      return Status::FailedPrecondition("lane '" + name_ + "' is finished");
    }
    queue_.push_back(std::move(task));
    internal::ApplyQueueDepthGauge()->Add(1);
    wake_.notify_one();
    return Status::OK();
  }

  /// Drains the queue, joins the worker, and returns the first task error
  /// (OK when every task succeeded). Idempotent.
  Status Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      finished_ = true;
    }
    wake_.notify_all();
    space_.notify_all();
    if (worker_.joinable()) worker_.join();
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      wake_.wait(lock, [this] { return finished_ || !queue_.empty(); });
      if (queue_.empty()) return;  // finished, and fully drained
      std::function<Status()> task = std::move(queue_.front());
      queue_.pop_front();
      internal::ApplyQueueDepthGauge()->Sub(1);
      space_.notify_all();
      if (!error_.ok()) continue;  // sticky error: skip remaining tasks
      lock.unlock();
      Status status;
      {
        trace::ScopedSpan span("mapper.apply_task");
        Stopwatch watch;
        status = task();
        internal::ApplyTaskHistogram()->Record(watch.ElapsedMicros());
        internal::ApplyTasksCounter()->Increment();
      }
      lock.lock();
      if (!status.ok() && error_.ok()) {
        error_ = status.WithContext("apply lane '" + name_ + "'");
        space_.notify_all();  // release any producer blocked on capacity
      }
    }
  }

  std::string name_;
  size_t capacity_;
  std::mutex mu_;
  std::condition_variable wake_;   ///< worker: task available or finished
  std::condition_variable space_;  ///< producers: queue has room (or error)
  std::deque<std::function<Status()>> queue_;
  Status error_;
  bool finished_ = false;
  std::thread worker_;  // last member: starts after the state above exists
};

}  // namespace scdwarf::mapper

#endif  // SCDWARF_MAPPER_PARALLEL_APPLY_H_
