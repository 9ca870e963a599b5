#include "nosql/database.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <set>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace scdwarf::nosql {

namespace {

metrics::Counter* FlushesCounter() {
  static metrics::Counter* const counter = metrics::GlobalRegistry().GetCounter(
      "nosql_flushes_total", {}, "Database::Flush calls");
  return counter;
}

FixedBucketHistogram* FlushHistogram() {
  static FixedBucketHistogram* const hist =
      metrics::GlobalRegistry().GetHistogram(
          "nosql_flush_us", {},
          "full Flush wall time: rotation + segment writes + barrier (us)");
  return hist;
}

metrics::Counter* LogRotationsCounter() {
  static metrics::Counter* const counter = metrics::GlobalRegistry().GetCounter(
      "nosql_log_rotations_total", {},
      "commit-log rotations to the flush sidecar");
  return counter;
}

FixedBucketHistogram* LogRotateHistogram() {
  static FixedBucketHistogram* const hist =
      metrics::GlobalRegistry().GetHistogram(
          "nosql_log_rotate_us", {},
          "commit-log rotation critical section incl. writer exclusion (us)");
  return hist;
}

metrics::Counter* AsyncFlushesCounter() {
  static metrics::Counter* const counter = metrics::GlobalRegistry().GetCounter(
      "nosql_async_flushes_total", {},
      "segment flush jobs handed to the background flusher");
  return counter;
}

metrics::Counter* SegmentFlushesCounter() {
  static metrics::Counter* const counter = metrics::GlobalRegistry().GetCounter(
      "nosql_segment_flushes_total", {},
      "per-table segment serializations actually written (dirty tables)");
  return counter;
}

FixedBucketHistogram* SegmentFlushHistogram() {
  static FixedBucketHistogram* const hist =
      metrics::GlobalRegistry().GetHistogram(
          "nosql_segment_flush_us", {},
          "one table's segment serialize + atomic write time (us)");
  return hist;
}

}  // namespace

/// \brief Background segment serializer: a small fixed pool of worker
/// threads drains a bounded queue of (keyspace, table) flush jobs, so the
/// segments of different tables serialize concurrently.
///
/// No two flushes of one table ever run at once: a worker takes the oldest
/// queued job whose table has no flush running. Otherwise an older
/// serialization could reach disk after a newer one was marked flushed,
/// and the next Flush() would skip the table as clean and delete the
/// sidecar holding the rows the stale segment lacks.
///
/// Enqueue() blocks while the queue is full (back-pressure against an
/// ingester outrunning the disk), Wait() blocks until the queue and any
/// in-flight job drain and reports the first error since the last barrier.
/// The destructor drains remaining jobs before joining, so no accepted
/// flush is ever dropped.
class Database::Flusher {
 public:
  explicit Flusher(Database* db) : db_(db) {
    for (size_t i = 0; i < kWorkers; ++i) {
      workers_.emplace_back([this] { Loop(); });
    }
  }

  ~Flusher() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    wake_.notify_all();
    space_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  Status Enqueue(const std::string& keyspace, const std::string& table) {
    std::unique_lock<std::mutex> lock(mu_);
    space_.wait(lock,
                [this] { return queue_.size() < kCapacity || stopping_; });
    if (stopping_) return Status::FailedPrecondition("flusher is stopping");
    queue_.emplace_back(keyspace, table);
    ++in_flight_;
    wake_.notify_all();
    return Status::OK();
  }

  Status Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    drained_.wait(lock, [this] { return in_flight_ == 0; });
    Status first = std::move(first_error_);
    first_error_ = Status::OK();
    return first;
  }

 private:
  using Job = std::pair<std::string, std::string>;  ///< (keyspace, table)

  /// Bounded queue depth: enough to overlap serialization with ingestion,
  /// small enough that back-pressure caps memory held in pending jobs.
  static constexpr size_t kCapacity = 8;
  /// Worker threads. A Store() flushes two large column families (nodes
  /// and cells) and two small ones; four workers serialize them all at
  /// once, and each holds at most one segment image in memory.
  static constexpr size_t kWorkers = 4;

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      auto next = queue_.end();
      wake_.wait(lock, [&] {
        next = std::find_if(queue_.begin(), queue_.end(),
                            [this](const Job& job) {
                              return running_.count(job) == 0;
                            });
        return next != queue_.end() || (stopping_ && queue_.empty());
      });
      if (next == queue_.end()) return;  // stopping, and fully drained
      Job job = std::move(*next);
      queue_.erase(next);
      running_.insert(job);
      space_.notify_all();
      lock.unlock();
      Status status = db_->FlushTableNow(job.first, job.second);
      lock.lock();
      running_.erase(job);
      if (!status.ok() && first_error_.ok()) first_error_ = std::move(status);
      if (--in_flight_ == 0) drained_.notify_all();
      // A job queued behind this table's flush may run now.
      if (!queue_.empty()) wake_.notify_all();
    }
  }

  Database* db_;
  std::mutex mu_;
  std::condition_variable wake_;     ///< workers: a runnable job, or stopping
  std::condition_variable space_;    ///< producers: queue has room
  std::condition_variable drained_;  ///< barrier: all jobs completed
  std::deque<Job> queue_;
  std::set<Job> running_;  ///< tables with a flush in progress
  size_t in_flight_ = 0;   ///< queued + currently running
  bool stopping_ = false;
  Status first_error_;
  std::vector<std::thread> workers_;  // started last, once the state exists
};

Database::Database() = default;

Database::~Database() = default;  // ~Flusher drains + joins first

Database::Database(Database&& other) noexcept {
  other.flusher_.reset();  // drain + join: the worker holds &other
  catalog_ = std::move(other.catalog_);
}

Database& Database::operator=(Database&& other) noexcept {
  if (this != &other) {
    flusher_.reset();
    other.flusher_.reset();
    catalog_ = std::move(other.catalog_);
  }
  return *this;
}

Result<Database> Database::Open(const std::string& data_dir) {
  Database db;
  // Loads <dir>/<keyspace>/<table>.cf, then replays commitlog.bin, which is
  // not fsynced per append (Cassandra's periodic sync).
  SCD_RETURN_IF_ERROR(
      db.catalog_.Open(data_dir, "commitlog", /*fsync_each_append=*/false));
  return db;
}

Status Database::CreateTable(const TableSchema& schema) {
  SCD_RETURN_IF_ERROR(schema.Validate());
  return catalog_.CreateTable(schema.keyspace(), schema.name(),
                              std::make_shared<Table>(schema));
}

Result<std::shared_ptr<const Table>> Database::GetTable(
    const std::string& keyspace, const std::string& table) const {
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<Table> t,
                       catalog_.GetTable(keyspace, table));
  return std::shared_ptr<const Table>(std::move(t));
}

Status Database::Insert(const std::string& keyspace, const std::string& table,
                        Row row) {
  std::vector<Row> rows;
  rows.push_back(std::move(row));
  return BulkInsert(keyspace, table, rows);
}

Status Database::BulkInsert(const std::string& keyspace,
                            const std::string& table,
                            const std::vector<Row>& rows) {
  trace::ScopedSpan span("nosql.bulk_insert");
  SCD_ASSIGN_OR_RETURN(InsertBatch batch, EncodeInsert(keyspace, table, rows));
  return ApplyInsert(std::move(batch));
}

Result<InsertBatch> Database::EncodeInsert(const std::string& keyspace,
                                           const std::string& table,
                                           const std::vector<Row>& rows) const {
  trace::ScopedSpan span("nosql.log_encode");
  InsertBatch batch;
  SCD_ASSIGN_OR_RETURN(batch.table_, catalog_.GetTable(keyspace, table));
  batch.keyspace_ = keyspace;
  batch.table_name_ = table;
  // One pass validates each row, encodes it into the record, whose row
  // bytes the table then keeps, and hashes its key for the table's index,
  // so a rejected batch leaves no record for replay to trip over and
  // applies no row. Memory mode builds the same record and only skips its
  // append.
  ByteWriter record;
  PutMutationHeader(&record, keyspace, table, rows.size(),
                    /*is_delete=*/false);
  batch.rows_.rows.reserve(rows.size());
  for (const Row& row : rows) {
    SCD_RETURN_IF_ERROR(batch.table_->ValidateRow(row));
    const size_t offset = PutMutationRow(&record, row);
    const std::span<const uint8_t> values =
        std::span<const uint8_t>(record.data()).subspan(offset);
    batch.rows_.rows.push_back(
        {offset, values.size(), batch.table_->KeyHash(values)});
  }
  batch.rows_.bytes = record.TakeBuffer();
  return batch;
}

Status Database::ApplyInsert(InsertBatch batch) {
  Table& t = *batch.table_;
  // One shard-lock critical section covers the log append and the in-memory
  // apply, so no mutation straddles Flush()'s log rotation (which holds
  // every shard lock): a logged row is applied before the rotation cut or
  // logged entirely after it.
  SCD_ASSIGN_OR_RETURN(
      std::unique_lock<std::mutex> lock,
      catalog_.LockTable(batch.keyspace_, batch.table_name_, t));
  if (catalog_.durable()) {
    trace::ScopedSpan log_span("nosql.log_append");
    SCD_RETURN_IF_ERROR(catalog_.AppendLog(batch.rows_.bytes));
  }
  trace::ScopedSpan apply_span("nosql.table_apply");
  t.InsertEncoded(std::move(batch.rows_));
  return Status::OK();
}

Status Database::Reserve(const std::string& keyspace, const std::string& table,
                         size_t rows) {
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, GetTable(keyspace, table));
  std::lock_guard<std::mutex> lock(catalog_.TableLock(keyspace, table));
  t->ReserveAdditional(rows);
  return Status::OK();
}

Status Database::Delete(const std::string& keyspace, const std::string& table,
                        const Value& key) {
  return BulkDelete(keyspace, table, {key});
}

Status Database::Flush() {
  if (!catalog_.durable()) return Status::OK();
  trace::ScopedSpan span("nosql.flush");
  Stopwatch flush_watch;
  FlushesCounter()->Increment();
  // Rotate the commit log with every writer excluded (all shard locks).
  // Afterwards each logged mutation is either in the sidecar and already
  // applied to its table — so the serialization below captures it — or
  // entirely in the fresh live log.
  SCD_RETURN_IF_ERROR(
      catalog_.RotateLog(LogRotationsCounter(), LogRotateHistogram()));
  // Jobs are collected after the rotation so every table with sidecar
  // records still in the catalog gets a flush job.
  std::vector<std::pair<std::string, std::string>> jobs;
  SCD_RETURN_IF_ERROR(catalog_.ForEachTable(
      [&jobs](const std::string& keyspace, const std::string& name, Table&) {
        jobs.emplace_back(keyspace, name);
        return Status::OK();
      }));
  for (const auto& [keyspace, name] : jobs) {
    SCD_RETURN_IF_ERROR(FlushTableAsync(keyspace, name));
  }
  SCD_RETURN_IF_ERROR(WaitFlushed());
  // Every sidecar record is now covered by a fsynced segment in a keyspace
  // directory made durable at its creation (records for tables dropped
  // meanwhile are skipped at replay anyway), so the sidecar can go. On any
  // earlier error it survives and is replayed at the next reopen.
  catalog_.RemoveRotatedLog();
  FlushHistogram()->Record(flush_watch.ElapsedMicros());
  return Status::OK();
}

Status Database::FlushTableAsync(const std::string& keyspace,
                                 const std::string& table) {
  if (!catalog_.durable()) return Status::OK();
  AsyncFlushesCounter()->Increment();
  Flusher* flusher = nullptr;
  {
    std::lock_guard<std::mutex> lock(*flusher_mu_);
    if (flusher_ == nullptr) flusher_ = std::make_unique<Flusher>(this);
    flusher = flusher_.get();
  }
  return flusher->Enqueue(keyspace, table);
}

Status Database::WaitFlushed() {
  Flusher* flusher = nullptr;
  {
    std::lock_guard<std::mutex> lock(*flusher_mu_);
    flusher = flusher_.get();
  }
  if (flusher == nullptr) return Status::OK();
  return flusher->Wait();
}

Status Database::FlushTableNow(const std::string& keyspace,
                               const std::string& table) {
  trace::ScopedSpan span("nosql.segment_flush");
  Stopwatch watch;
  // A table dropped since enqueue is skipped. The catalog lock stays shared
  // through the write: a concurrent DropTable either removed the entry
  // before the look-up or waits until the segment is out and then removes
  // the file, so a drop is never resurrected by a stale flush.
  return catalog_.WithTable(keyspace, table, [&](Table& t) -> Status {
    ByteWriter writer;
    uint64_t version = 0;
    {
      std::lock_guard<std::mutex> lock(catalog_.TableLock(keyspace, table));
      version = t.mutation_version();
      if (version == t.flushed_version()) return Status::OK();  // clean
      trace::ScopedSpan serialize_span("nosql.serialize");
      t.SerializeTo(&writer);
    }
    SCD_RETURN_IF_ERROR(
        catalog_.WriteTableFile(keyspace, table, writer.view()));
    t.MarkFlushed(version);
    SegmentFlushesCounter()->Increment();
    SegmentFlushHistogram()->Record(watch.ElapsedMicros());
    return Status::OK();
  });
}

}  // namespace scdwarf::nosql
