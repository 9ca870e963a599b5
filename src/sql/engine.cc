#include "sql/engine.h"

#include <filesystem>
#include <functional>

#include "common/files.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace scdwarf::sql {

namespace fs = std::filesystem;

namespace {

metrics::Counter* FlushesCounter() {
  static metrics::Counter* const counter = metrics::GlobalRegistry().GetCounter(
      "sql_flushes_total", {}, "SqlEngine::Flush calls");
  return counter;
}

FixedBucketHistogram* FlushHistogram() {
  static FixedBucketHistogram* const hist =
      metrics::GlobalRegistry().GetHistogram(
          "sql_flush_us", {},
          "full Flush wall time: rotation + tablespace serialization (us)");
  return hist;
}

metrics::Counter* LogRotationsCounter() {
  static metrics::Counter* const counter = metrics::GlobalRegistry().GetCounter(
      "sql_log_rotations_total", {},
      "redo-log rotations to the flush sidecar");
  return counter;
}

FixedBucketHistogram* LogRotateHistogram() {
  static FixedBucketHistogram* const hist =
      metrics::GlobalRegistry().GetHistogram(
          "sql_log_rotate_us", {},
          "redo-log rotation critical section incl. writer exclusion (us)");
  return hist;
}

}  // namespace

Result<SqlEngine> SqlEngine::Open(const std::string& data_dir) {
  if (data_dir.empty()) {
    return Status::InvalidArgument(
        "data_dir must not be empty; use the default constructor for memory "
        "mode");
  }
  SqlEngine engine;
  engine.data_dir_ = data_dir;
  // InnoDB's default durability (innodb_flush_log_at_trx_commit = 1)
  // fsyncs the redo log at every commit; the Cassandra-style store syncs
  // its commit log only periodically, one of the write-path differences
  // behind Table 5.
  engine.log_ = std::make_unique<RecordLog>(data_dir, "redolog",
                                            /*fsync_each_append=*/true);
  std::error_code ec;
  fs::create_directories(data_dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + data_dir + ": " + ec.message());
  }
  for (const auto& db_entry : fs::directory_iterator(data_dir)) {
    if (!db_entry.is_directory()) continue;
    std::string database = db_entry.path().filename().string();
    engine.databases_[database];
    for (const auto& tbl_entry : fs::directory_iterator(db_entry.path())) {
      if (tbl_entry.path().extension() != ".tbl") continue;
      SCD_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                           ReadFile(tbl_entry.path().string()));
      ByteReader reader(bytes);
      auto table = HeapTable::Deserialize(&reader);
      if (!table.ok()) {
        return table.status().WithContext("loading " +
                                          tbl_entry.path().string());
      }
      std::string name = (*table)->def().name();
      engine.databases_[database][name] = std::move(*table);
    }
  }
  // The sidecar (a flush that never finished) holds older records than the
  // live log and replays first. Rows that also reached a tablespace replay
  // as tolerated AlreadyExists duplicates.
  SCD_RETURN_IF_ERROR(engine.log_->Replay([&engine](ByteReader* record) {
    return engine.ReplayRedoRecord(record);
  }));
  return engine;
}

bool SqlEngine::HasDatabase(const std::string& name) const {
  std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
  return databases_.count(name) > 0;
}

Status SqlEngine::CreateDatabase(const std::string& name) {
  if (name.empty()) return Status::InvalidArgument("empty database name");
  std::unique_lock<std::shared_mutex> catalog(sync_->catalog_mu);
  if (databases_.count(name) > 0) {
    return Status::AlreadyExists("database '" + name + "' already exists");
  }
  databases_[name];
  return Status::OK();
}

Status SqlEngine::CreateTable(const SqlTableDef& def) {
  SCD_RETURN_IF_ERROR(def.Validate());
  std::unique_lock<std::shared_mutex> catalog(sync_->catalog_mu);
  auto db = databases_.find(def.database());
  if (db == databases_.end()) {
    return Status::NotFound("database '" + def.database() + "' does not exist");
  }
  if (db->second.count(def.name()) > 0) {
    return Status::AlreadyExists("table " + def.QualifiedName() +
                                 " already exists");
  }
  db->second[def.name()] = std::make_shared<HeapTable>(def);
  return Status::OK();
}

Status SqlEngine::DropTable(const std::string& database,
                            const std::string& table) {
  std::unique_lock<std::shared_mutex> catalog(sync_->catalog_mu);
  auto db = databases_.find(database);
  if (db == databases_.end() || db->second.erase(table) == 0) {
    return Status::NotFound("table " + database + "." + table +
                            " does not exist");
  }
  if (!data_dir_.empty()) {
    std::error_code ec;
    fs::remove(TablespacePath(database, table), ec);
  }
  return Status::OK();
}

Status SqlEngine::CreateIndex(const std::string& database,
                              const std::string& table,
                              const std::string& column) {
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<HeapTable> t, GetTable(database, table));
  std::lock_guard<std::mutex> lock(TableLock(database, table));
  return t->CreateIndex(column);
}

Result<std::shared_ptr<HeapTable>> SqlEngine::GetTable(
    const std::string& database, const std::string& table) {
  std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
  auto db = databases_.find(database);
  if (db == databases_.end()) {
    return Status::NotFound("database '" + database + "' does not exist");
  }
  auto it = db->second.find(table);
  if (it == db->second.end()) {
    return Status::NotFound("table " + database + "." + table +
                            " does not exist");
  }
  return it->second;
}

Result<std::shared_ptr<const HeapTable>> SqlEngine::GetTable(
    const std::string& database, const std::string& table) const {
  auto* self = const_cast<SqlEngine*>(this);
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<HeapTable> t,
                       self->GetTable(database, table));
  return std::shared_ptr<const HeapTable>(std::move(t));
}

Status SqlEngine::Insert(const std::string& database, const std::string& table,
                         SqlRow row) {
  std::vector<SqlRow> rows;
  rows.push_back(std::move(row));
  return BulkInsert(database, table, std::move(rows));
}

Status SqlEngine::BulkInsert(const std::string& database,
                             const std::string& table,
                             std::vector<SqlRow> rows) {
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<HeapTable> t, GetTable(database, table));
  // Every row is validated before the record is encoded, once; the check
  // reads only the column definitions, which no writer changes, so it runs
  // outside the lock, and so does the encode.
  for (const SqlRow& row : rows) SCD_RETURN_IF_ERROR(t->ValidateRow(row));
  ByteWriter record;
  if (!data_dir_.empty()) {
    PutMutationHeader(&record, database, table, rows.size(),
                      /*is_delete=*/false);
    for (const SqlRow& row : rows) PutMutationRow(&record, row);
  }
  // The batch is applied first and logged only once every row is in: a
  // duplicate key (or a failed append) removes the rows the batch inserted
  // and logs nothing, so the batch is all or nothing both now and after
  // replay. One shard-lock critical section covers the apply and the
  // append, so no batch straddles Flush()'s log rotation (which holds every
  // shard lock).
  std::lock_guard<std::mutex> lock(TableLock(database, table));
  return t->InsertAll(std::move(rows), [&]() -> Status {
    if (data_dir_.empty()) return Status::OK();
    return log_->Append(record.data());
  });
}

Status SqlEngine::Delete(const std::string& database, const std::string& table,
                         const Value& key) {
  return BulkDelete(database, table, {key});
}

Status SqlEngine::BulkDelete(const std::string& database,
                             const std::string& table,
                             const std::vector<Value>& keys) {
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<HeapTable> t, GetTable(database, table));
  ByteWriter record;
  if (!data_dir_.empty()) {
    PutMutationHeader(&record, database, table, keys.size(),
                      /*is_delete=*/true);
    for (const Value& key : keys) PutMutationRow(&record, {&key, 1});
  }
  std::lock_guard<std::mutex> lock(TableLock(database, table));
  if (!data_dir_.empty()) SCD_RETURN_IF_ERROR(log_->Append(record.data()));
  for (const Value& key : keys) {
    SCD_RETURN_IF_ERROR(t->DeleteByPk(key));
  }
  return Status::OK();
}

Status SqlEngine::Flush() {
  trace::ScopedSpan span("sql.flush");
  Stopwatch flush_watch;
  FlushesCounter()->Increment();
  if (data_dir_.empty()) {
    std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
    for (const auto& [database, tables] : databases_) {
      for (const auto& [name, table] : tables) {
        std::lock_guard<std::mutex> lock(TableLock(database, name));
        table->CommitTransaction();
      }
    }
    return Status::OK();
  }
  // Rotate the redo log with every writer excluded (all shard locks);
  // after the cut each logged mutation is either in the sidecar and already
  // applied — captured by the serialization below — or entirely in the
  // fresh live log.
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
  std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
  std::string doublewrite = (fs::path(data_dir_) / "doublewrite.bin").string();
  for (const auto& [database, tables] : databases_) {
    std::error_code ec;
    fs::create_directories(fs::path(data_dir_) / SanitizeName(database), ec);
    if (ec) return Status::IoError("cannot create database dir: " + ec.message());
    for (const auto& [name, table] : tables) {
      ByteWriter writer;
      {
        // Serialize under the shard lock so a concurrent writer can't
        // mutate the page image mid-snapshot.
        std::lock_guard<std::mutex> lock(TableLock(database, name));
        table->SerializeTo(&writer);
      }
      // InnoDB writes every page twice: first to the doublewrite buffer,
      // then in place (torn-page protection; on by default).
      SCD_RETURN_IF_ERROR(WriteFileAtomic(doublewrite, writer.view()));
      SCD_RETURN_IF_ERROR(
          WriteFileAtomic(TablespacePath(database, name), writer.view()));
      std::lock_guard<std::mutex> lock(TableLock(database, name));
      table->CommitTransaction();
    }
  }
  // Every sidecar record is now covered by a fsynced tablespace; once the
  // database directories' entries are durable too the sidecar can go. On
  // any earlier error it survives and is replayed at the next reopen.
  std::error_code ec;
  fs::remove(doublewrite, ec);
  SCD_RETURN_IF_ERROR(SyncDirectory(data_dir_));
  log_->RemoveRotated();
  FlushHistogram()->Record(flush_watch.ElapsedMicros());
  return Status::OK();
}

Result<uint64_t> SqlEngine::DiskSizeBytes() const {
  if (data_dir_.empty()) return uint64_t{0};
  return DirectoryBytes(data_dir_);
}

uint64_t SqlEngine::EstimateBytes() const {
  uint64_t total = 0;
  std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
  for (const auto& [database, tables] : databases_) {
    for (const auto& [name, table] : tables) {
      total += table->EstimateTablespaceBytes();
    }
  }
  return total;
}

Result<std::vector<std::string>> SqlEngine::ListTables(
    const std::string& database) const {
  std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
  auto db = databases_.find(database);
  if (db == databases_.end()) {
    return Status::NotFound("database '" + database + "' does not exist");
  }
  std::vector<std::string> names;
  names.reserve(db->second.size());
  for (const auto& [name, table] : db->second) names.push_back(name);
  return names;
}

std::string SqlEngine::TablespacePath(const std::string& database,
                                      const std::string& table) const {
  return (fs::path(data_dir_) / SanitizeName(database) /
          (SanitizeName(table) + ".tbl"))
      .string();
}

std::mutex& SqlEngine::TableLock(const std::string& database,
                                 const std::string& table) const {
  size_t h = std::hash<std::string>()(database) * 1000003u ^
             std::hash<std::string>()(table);
  return sync_->table_shards[h % kTableLockShards];
}

Status SqlEngine::ReplayRedoRecord(ByteReader* record) {
  SCD_ASSIGN_OR_RETURN(Mutation mutation, DecodeMutation(record));
  auto table_result = GetTable(mutation.scope, mutation.table);
  if (!table_result.ok()) return Status::OK();
  for (SqlRow& row : mutation.rows) {
    if (mutation.is_delete) {
      Status status = (*table_result)->DeleteByPk(row[0]);
      if (!status.ok() && !status.IsNotFound()) return status;
    } else {
      Status status = (*table_result)->Insert(std::move(row));
      // Rows already present in a flushed tablespace replay as duplicates.
      if (!status.ok() && !status.IsAlreadyExists()) return status;
    }
  }
  return Status::OK();
}

}  // namespace scdwarf::sql
