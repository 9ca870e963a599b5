#include "nosql/database.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <functional>
#include <set>
#include <thread>
#include <utility>

#include "common/files.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace scdwarf::nosql {

namespace fs = std::filesystem;

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

Database::Database() : sync_(std::make_unique<Sync>()) {}

Database::~Database() = default;  // ~Flusher drains + joins first

Database::Database(Database&& other) noexcept {
  other.flusher_.reset();  // drain + join: the worker holds &other
  data_dir_ = std::move(other.data_dir_);
  keyspaces_ = std::move(other.keyspaces_);
  sync_ = std::move(other.sync_);
  log_ = std::move(other.log_);
}

Database& Database::operator=(Database&& other) noexcept {
  if (this != &other) {
    flusher_.reset();
    other.flusher_.reset();
    data_dir_ = std::move(other.data_dir_);
    keyspaces_ = std::move(other.keyspaces_);
    sync_ = std::move(other.sync_);
    log_ = std::move(other.log_);
  }
  return *this;
}

Result<Database> Database::Open(const std::string& data_dir) {
  if (data_dir.empty()) {
    return Status::InvalidArgument("data_dir must not be empty; "
                                   "use the default constructor for memory mode");
  }
  Database db;
  db.data_dir_ = data_dir;
  // The commit log is not fsynced per append (Cassandra's periodic sync).
  db.log_ = std::make_unique<RecordLog>(data_dir, "commitlog",
                                        /*fsync_each_append=*/false);
  std::error_code ec;
  fs::create_directories(data_dir, ec);
  if (ec) return Status::IoError("cannot create " + data_dir + ": " + ec.message());

  // Load existing segments: <dir>/<keyspace>/<table>.cf
  for (const auto& ks_entry : fs::directory_iterator(data_dir)) {
    if (!ks_entry.is_directory()) continue;
    std::string keyspace = ks_entry.path().filename().string();
    db.keyspaces_[keyspace];  // ensure keyspace exists even if empty
    for (const auto& cf_entry : fs::directory_iterator(ks_entry.path())) {
      if (cf_entry.path().extension() != ".cf") continue;
      SCD_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                           ReadFile(cf_entry.path().string()));
      ByteReader reader(bytes);
      auto table = Table::Deserialize(&reader);
      if (!table.ok()) {
        return table.status().WithContext("loading " +
                                          cf_entry.path().string());
      }
      std::string name = (*table)->schema().name();
      db.keyspaces_[keyspace][name] = std::move(*table);
    }
  }
  // The sidecar (a flush that never finished) holds older records than the
  // live log and replays first. Inserts are upserts, so records whose rows
  // also reached a segment re-apply idempotently.
  SCD_RETURN_IF_ERROR(db.log_->Replay(
      [&db](ByteReader* record) { return db.ReplayCommitLogRecord(record); }));
  return db;
}

bool Database::HasKeyspace(const std::string& name) const {
  std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
  return keyspaces_.count(name) > 0;
}

Status Database::CreateKeyspace(const std::string& name) {
  if (name.empty()) return Status::InvalidArgument("empty keyspace name");
  std::unique_lock<std::shared_mutex> catalog(sync_->catalog_mu);
  if (keyspaces_.count(name) > 0) {
    return Status::AlreadyExists("keyspace '" + name + "' already exists");
  }
  keyspaces_[name];
  return Status::OK();
}

Status Database::CreateTable(const TableSchema& schema) {
  SCD_RETURN_IF_ERROR(schema.Validate());
  std::unique_lock<std::shared_mutex> catalog(sync_->catalog_mu);
  auto ks = keyspaces_.find(schema.keyspace());
  if (ks == keyspaces_.end()) {
    return Status::NotFound("keyspace '" + schema.keyspace() + "' does not exist");
  }
  if (ks->second.count(schema.name()) > 0) {
    return Status::AlreadyExists("table " + schema.QualifiedName() +
                                 " already exists");
  }
  ks->second[schema.name()] = std::make_shared<Table>(schema);
  return Status::OK();
}

Status Database::DropTable(const std::string& keyspace,
                           const std::string& table) {
  std::unique_lock<std::shared_mutex> catalog(sync_->catalog_mu);
  auto ks = keyspaces_.find(keyspace);
  if (ks == keyspaces_.end() || ks->second.erase(table) == 0) {
    return Status::NotFound("table " + keyspace + "." + table +
                            " does not exist");
  }
  if (!data_dir_.empty()) {
    std::error_code ec;
    fs::remove(SegmentPath(keyspace, table), ec);
  }
  return Status::OK();
}

Status Database::CreateIndex(const std::string& keyspace,
                             const std::string& table,
                             const std::string& column) {
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, GetTable(keyspace, table));
  std::lock_guard<std::mutex> lock(TableLock(keyspace, table));
  return t->CreateIndex(column);
}

Result<std::shared_ptr<Table>> Database::GetTable(const std::string& keyspace,
                                                  const std::string& table) {
  std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
  auto ks = keyspaces_.find(keyspace);
  if (ks == keyspaces_.end()) {
    return Status::NotFound("keyspace '" + keyspace + "' does not exist");
  }
  auto it = ks->second.find(table);
  if (it == ks->second.end()) {
    return Status::NotFound("table " + keyspace + "." + table +
                            " does not exist");
  }
  return it->second;
}

Result<std::shared_ptr<const Table>> Database::GetTable(
    const std::string& keyspace, const std::string& table) const {
  auto* self = const_cast<Database*>(this);
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<Table> t,
                       self->GetTable(keyspace, table));
  return std::shared_ptr<const Table>(std::move(t));
}

Status Database::Insert(const std::string& keyspace, const std::string& table,
                        Row row) {
  std::vector<Row> rows;
  rows.push_back(std::move(row));
  return BulkInsert(keyspace, table, std::move(rows));
}

Status Database::BulkInsert(const std::string& keyspace,
                            const std::string& table, std::vector<Row> rows) {
  trace::ScopedSpan span("nosql.bulk_insert");
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, GetTable(keyspace, table));
  // One pass validates each row and encodes it into the log record; the
  // record is appended only after the pass, so a rejected batch leaves no
  // log record for replay to trip over and applies no row. The pass reads
  // only the columns, which no writer changes, so it runs outside the lock,
  // and concurrent writers to different tables run theirs in parallel.
  const bool durable = !data_dir_.empty();
  ByteWriter record;
  {
    trace::ScopedSpan encode_span("nosql.log_encode");
    if (durable) {
      PutMutationHeader(&record, keyspace, table, rows.size(),
                        /*is_delete=*/false);
    }
    for (const Row& row : rows) {
      SCD_RETURN_IF_ERROR(t->ValidateRow(row));
      if (durable) PutMutationRow(&record, row);
    }
  }
  // One shard-lock critical section covers the log append and the in-memory
  // apply, so no mutation straddles Flush()'s log rotation (which holds
  // every shard lock): a logged row is applied before the rotation cut or
  // logged entirely after it.
  std::lock_guard<std::mutex> lock(TableLock(keyspace, table));
  if (durable) {
    trace::ScopedSpan log_span("nosql.log_append");
    SCD_RETURN_IF_ERROR(log_->Append(record.data()));
  }
  trace::ScopedSpan apply_span("nosql.table_apply");
  t->ReserveAdditional(rows.size());
  for (Row& row : rows) t->InsertValidated(std::move(row));
  return Status::OK();
}

Status Database::Reserve(const std::string& keyspace, const std::string& table,
                         size_t rows) {
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, GetTable(keyspace, table));
  std::lock_guard<std::mutex> lock(TableLock(keyspace, table));
  t->ReserveAdditional(rows);
  return Status::OK();
}

Status Database::Delete(const std::string& keyspace, const std::string& table,
                        const Value& key) {
  return BulkDelete(keyspace, table, {key});
}

Status Database::BulkDelete(const std::string& keyspace,
                            const std::string& table,
                            const std::vector<Value>& keys) {
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, GetTable(keyspace, table));
  ByteWriter record;
  if (!data_dir_.empty()) {
    // Deletes are logged as single-value rows with the delete flag set.
    PutMutationHeader(&record, keyspace, table, keys.size(),
                      /*is_delete=*/true);
    for (const Value& key : keys) PutMutationRow(&record, {&key, 1});
  }
  std::lock_guard<std::mutex> lock(TableLock(keyspace, table));
  if (!data_dir_.empty()) {
    trace::ScopedSpan log_span("nosql.log_append");
    SCD_RETURN_IF_ERROR(log_->Append(record.data()));
  }
  for (const Value& key : keys) {
    SCD_RETURN_IF_ERROR(t->DeleteByPk(key));
  }
  return Status::OK();
}

Status Database::Flush() {
  if (data_dir_.empty()) return Status::OK();
  trace::ScopedSpan span("nosql.flush");
  Stopwatch flush_watch;
  FlushesCounter()->Increment();
  // Rotate the commit log with every writer excluded (all shard locks).
  // Afterwards each logged mutation is either in the sidecar and already
  // applied to its table — so the serialization below captures it — or
  // entirely in the fresh live log.
  {
    Stopwatch rotate_watch;
    std::array<std::unique_lock<std::mutex>, kTableLockShards> shard_locks;
    for (size_t i = 0; i < kTableLockShards; ++i) {
      shard_locks[i] = std::unique_lock<std::mutex>(sync_->table_shards[i]);
    }
    SCD_ASSIGN_OR_RETURN(bool rotated, log_->Rotate());
    if (rotated) LogRotationsCounter()->Increment();
    LogRotateHistogram()->Record(rotate_watch.ElapsedMicros());
  }
  // Jobs are collected after the rotation so every table with sidecar
  // records still in the catalog gets a flush job.
  std::vector<std::pair<std::string, std::string>> jobs;
  {
    std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
    for (const auto& [keyspace, tables] : keyspaces_) {
      // Keyspace directories are created even when empty so a reopen
      // rediscovers the keyspace.
      std::error_code ec;
      fs::create_directories(fs::path(data_dir_) / SanitizeName(keyspace), ec);
      if (ec) {
        return Status::IoError("cannot create keyspace dir: " + ec.message());
      }
      for (const auto& [name, table] : tables) jobs.emplace_back(keyspace, name);
    }
  }
  for (const auto& [keyspace, name] : jobs) {
    SCD_RETURN_IF_ERROR(FlushTableAsync(keyspace, name));
  }
  SCD_RETURN_IF_ERROR(WaitFlushed());
  // Every sidecar record is now covered by a fsynced segment (records for
  // tables dropped meanwhile are skipped at replay anyway), so the sidecar
  // can go once the keyspace directories' entries are durable too. On any
  // earlier error it survives and is replayed at the next reopen.
  SCD_RETURN_IF_ERROR(SyncDirectory(data_dir_));
  log_->RemoveRotated();
  FlushHistogram()->Record(flush_watch.ElapsedMicros());
  return Status::OK();
}

Status Database::FlushTableAsync(const std::string& keyspace,
                                 const std::string& table) {
  if (data_dir_.empty()) return Status::OK();
  AsyncFlushesCounter()->Increment();
  Flusher* flusher = nullptr;
  {
    std::lock_guard<std::mutex> lock(sync_->flusher_mu);
    if (flusher_ == nullptr) flusher_ = std::make_unique<Flusher>(this);
    flusher = flusher_.get();
  }
  return flusher->Enqueue(keyspace, table);
}

Status Database::WaitFlushed() {
  Flusher* flusher = nullptr;
  {
    std::lock_guard<std::mutex> lock(sync_->flusher_mu);
    flusher = flusher_.get();
  }
  if (flusher == nullptr) return Status::OK();
  return flusher->Wait();
}

Status Database::FlushTableNow(const std::string& keyspace,
                               const std::string& table) {
  trace::ScopedSpan span("nosql.segment_flush");
  Stopwatch watch;
  std::shared_ptr<Table> t;
  {
    std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
    auto ks = keyspaces_.find(keyspace);
    if (ks == keyspaces_.end()) return Status::OK();  // dropped since enqueue
    auto it = ks->second.find(table);
    if (it == ks->second.end()) return Status::OK();
    t = it->second;
  }
  ByteWriter writer;
  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(TableLock(keyspace, table));
    version = t->mutation_version();
    if (version == t->flushed_version()) return Status::OK();  // clean
    trace::ScopedSpan serialize_span("nosql.serialize");
    t->SerializeTo(&writer);
  }
  // The segment is written under the catalog shared lock: a concurrent
  // DropTable (exclusive) either already removed the entry — the
  // re-validation skips the write — or blocks until the segment is out and
  // then removes the file, so a drop is never resurrected by a stale flush.
  std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
  auto ks = keyspaces_.find(keyspace);
  if (ks == keyspaces_.end()) return Status::OK();
  auto it = ks->second.find(table);
  if (it == ks->second.end() || it->second != t) return Status::OK();
  std::error_code ec;
  fs::create_directories(fs::path(data_dir_) / SanitizeName(keyspace), ec);
  if (ec) {
    return Status::IoError("cannot create keyspace dir: " + ec.message());
  }
  SCD_RETURN_IF_ERROR(
      WriteFileAtomic(SegmentPath(keyspace, table), writer.view()));
  t->MarkFlushed(version);
  SegmentFlushesCounter()->Increment();
  SegmentFlushHistogram()->Record(watch.ElapsedMicros());
  return Status::OK();
}

std::mutex& Database::TableLock(const std::string& keyspace,
                                const std::string& table) const {
  size_t h = std::hash<std::string>()(keyspace) * 1000003u ^
             std::hash<std::string>()(table);
  return sync_->table_shards[h % kTableLockShards];
}

Result<uint64_t> Database::DiskSizeBytes() const {
  if (data_dir_.empty()) return uint64_t{0};
  return DirectoryBytes(data_dir_);
}

uint64_t Database::EstimateBytes() const {
  uint64_t total = 0;
  std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
  for (const auto& [keyspace, tables] : keyspaces_) {
    for (const auto& [name, table] : tables) {
      total += table->EstimateSegmentBytes();
    }
  }
  return total;
}

Result<std::vector<std::string>> Database::ListTables(
    const std::string& keyspace) const {
  std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
  auto ks = keyspaces_.find(keyspace);
  if (ks == keyspaces_.end()) {
    return Status::NotFound("keyspace '" + keyspace + "' does not exist");
  }
  std::vector<std::string> names;
  names.reserve(ks->second.size());
  for (const auto& [name, table] : ks->second) names.push_back(name);
  return names;
}

std::string Database::SegmentPath(const std::string& keyspace,
                                  const std::string& table) const {
  return (fs::path(data_dir_) / SanitizeName(keyspace) /
          (SanitizeName(table) + ".cf"))
      .string();
}

Status Database::ReplayCommitLogRecord(ByteReader* record) {
  SCD_ASSIGN_OR_RETURN(Mutation mutation, DecodeMutation(record));
  auto table_result = GetTable(mutation.scope, mutation.table);
  // Rows for tables dropped since the log was written are skipped.
  if (!table_result.ok()) return Status::OK();
  for (Row& row : mutation.rows) {
    if (mutation.is_delete) {
      // A delete of a row that never reached a segment replays as a no-op.
      Status status = (*table_result)->DeleteByPk(row[0]);
      if (!status.ok() && !status.IsNotFound()) return status;
    } else {
      SCD_RETURN_IF_ERROR((*table_result)->Insert(std::move(row)));
    }
  }
  return Status::OK();
}

}  // namespace scdwarf::nosql
