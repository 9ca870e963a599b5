#include "sql/engine.h"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <functional>

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

Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + tmp + " for writing");
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) return Status::IoError("short write to " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return Status::IoError("rename failed: " + ec.message());
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0 && !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return Status::IoError("short read from " + path);
  }
  return bytes;
}

/// One redo record: the delete flag, the table's names and the rows.
std::vector<uint8_t> EncodeRedoRecord(const std::string& database,
                                      const std::string& table,
                                      const std::vector<SqlRow>& rows,
                                      bool is_delete) {
  ByteWriter writer;
  writer.PutU8(is_delete ? 1 : 0);
  writer.PutString(database);
  writer.PutString(table);
  writer.PutVarint(rows.size());
  for (const SqlRow& row : rows) {
    writer.PutVarint(row.size());
    for (const Value& value : row) value.EncodeTo(&writer);
  }
  return writer.TakeBuffer();
}

std::string SanitizeName(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-') {
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  return out;
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
  SCD_RETURN_IF_ERROR(engine.ReplayRedoLog());
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
  std::vector<uint8_t> record;
  if (!data_dir_.empty()) {
    record = EncodeRedoRecord(database, table, rows, /*is_delete=*/false);
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
    std::lock_guard<std::mutex> log_lock(sync_->log_mu);
    return AppendToRedoLog(record);
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
  std::vector<uint8_t> record;
  if (!data_dir_.empty()) {
    std::vector<SqlRow> key_rows;
    key_rows.reserve(keys.size());
    for (const Value& key : keys) key_rows.push_back({key});
    record = EncodeRedoRecord(database, table, key_rows, /*is_delete=*/true);
  }
  std::lock_guard<std::mutex> lock(TableLock(database, table));
  if (!data_dir_.empty()) {
    std::lock_guard<std::mutex> log_lock(sync_->log_mu);
    SCD_RETURN_IF_ERROR(AppendToRedoLog(record));
  }
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
  // Rotate the redo log with every writer excluded (all shard locks +
  // log_mu); after the cut each logged mutation is either in the sidecar
  // and already applied — captured by the serialization below — or
  // entirely in the fresh live log.
  {
    Stopwatch rotate_watch;
    std::array<std::unique_lock<std::mutex>, kTableLockShards> shard_locks;
    for (size_t i = 0; i < kTableLockShards; ++i) {
      shard_locks[i] = std::unique_lock<std::mutex>(sync_->table_shards[i]);
    }
    std::lock_guard<std::mutex> log_lock(sync_->log_mu);
    SCD_RETURN_IF_ERROR(RotateRedoLog());
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
      SCD_RETURN_IF_ERROR(WriteFileAtomic(doublewrite, writer.data()));
      SCD_RETURN_IF_ERROR(
          WriteFileAtomic(TablespacePath(database, name), writer.data()));
      std::lock_guard<std::mutex> lock(TableLock(database, name));
      table->CommitTransaction();
    }
  }
  // Every sidecar record is now covered by a tablespace; on any earlier
  // error the sidecar survives and is replayed at the next reopen.
  std::error_code ec;
  fs::remove(doublewrite, ec);
  fs::remove(RotatedRedoLogPath(), ec);
  FlushHistogram()->Record(flush_watch.ElapsedMicros());
  return Status::OK();
}

Result<uint64_t> SqlEngine::DiskSizeBytes() const {
  if (data_dir_.empty()) return uint64_t{0};
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(data_dir_, ec);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_regular_file()) total += it->file_size();
  }
  if (ec) return Status::IoError("walking " + data_dir_ + ": " + ec.message());
  return total;
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

std::string SqlEngine::RedoLogPath() const {
  return (fs::path(data_dir_) / "redolog.bin").string();
}

std::string SqlEngine::RotatedRedoLogPath() const {
  return (fs::path(data_dir_) / "redolog.old.bin").string();
}

Status SqlEngine::RotateRedoLog() {
  if (!fs::exists(RedoLogPath())) return Status::OK();
  LogRotationsCounter()->Increment();
  std::error_code ec;
  const std::string rotated = RotatedRedoLogPath();
  if (!fs::exists(rotated)) {
    fs::rename(RedoLogPath(), rotated, ec);
    if (ec) return Status::IoError("rotating redo log: " + ec.message());
    return Status::OK();
  }
  // A prior flush failed (or crashed) after rotating: append the live log
  // to the surviving sidecar so replay order — sidecar, then live — still
  // reproduces append order.
  SCD_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFile(RedoLogPath()));
  {
    std::ofstream out(rotated, std::ios::binary | std::ios::app);
    if (!out) return Status::IoError("cannot open rotated redo log");
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) return Status::IoError("short append to rotated redo log");
  }
  fs::remove(RedoLogPath(), ec);
  if (ec) return Status::IoError("removing redo log: " + ec.message());
  return Status::OK();
}

std::mutex& SqlEngine::TableLock(const std::string& database,
                                 const std::string& table) const {
  size_t h = std::hash<std::string>()(database) * 1000003u ^
             std::hash<std::string>()(table);
  return sync_->table_shards[h % kTableLockShards];
}

Status SqlEngine::AppendToRedoLog(const std::vector<uint8_t>& record) {
  // InnoDB's default durability (innodb_flush_log_at_trx_commit = 1) flushes
  // and fsyncs the redo log at every commit; the Cassandra-style store uses
  // periodic commit-log sync instead, one of the write-path differences
  // behind Table 5.
  int fd = ::open(RedoLogPath().c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Status::IoError("cannot open redo log");
  ByteWriter framed;
  framed.PutU32(static_cast<uint32_t>(record.size()));
  // Loop on short writes and EINTR: a signal delivered mid-append must not
  // turn into a torn redo record or a spurious IoError.
  auto write_full = [fd](const uint8_t* data, size_t size) {
    size_t written = 0;
    while (written < size) {
      ssize_t n = ::write(fd, data + written, size - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      written += static_cast<size_t>(n);
    }
    return true;
  };
  bool ok = write_full(framed.data().data(), framed.size()) &&
            write_full(record.data(), record.size());
  ok = ok && ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return Status::IoError("short write to redo log");
  return Status::OK();
}

Status SqlEngine::ReplayRedoLog() {
  // The sidecar (a flush that never finished) holds older records than the
  // live log; replay it first. Rows that also reached a tablespace replay
  // as tolerated AlreadyExists duplicates.
  SCD_RETURN_IF_ERROR(ReplayRedoLogFile(RotatedRedoLogPath()));
  return ReplayRedoLogFile(RedoLogPath());
}

Status SqlEngine::ReplayRedoLogFile(const std::string& path) {
  if (!fs::exists(path)) return Status::OK();
  SCD_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFile(path));
  ByteReader reader(bytes);
  while (!reader.AtEnd()) {
    auto frame_size = reader.ReadU32();
    if (!frame_size.ok()) break;  // torn tail
    if (reader.remaining() < *frame_size) break;
    // Each record is parsed inside its frame, so a corrupt record cannot
    // read into the next one.
    ByteReader record(bytes.data() + reader.offset(), *frame_size);
    SCD_RETURN_IF_ERROR(reader.Skip(*frame_size));
    Status status = ReplayRedoRecord(&record);
    if (!status.ok()) return status.WithContext("replaying " + path);
  }
  return Status::OK();
}

Status SqlEngine::ReplayRedoRecord(ByteReader* record) {
  SCD_ASSIGN_OR_RETURN(uint8_t op, record->ReadU8());
  SCD_ASSIGN_OR_RETURN(std::string database, record->ReadString());
  SCD_ASSIGN_OR_RETURN(std::string table, record->ReadString());
  SCD_ASSIGN_OR_RETURN(uint64_t num_rows, record->ReadVarint());
  auto table_result = GetTable(database, table);
  for (uint64_t r = 0; r < num_rows; ++r) {
    SCD_ASSIGN_OR_RETURN(uint64_t arity, record->ReadVarint());
    // Every value takes at least one byte, and a delete row is its key.
    if (arity > record->remaining()) {
      return Status::ParseError("row of " + std::to_string(arity) +
                                " values in " +
                                std::to_string(record->remaining()) + " bytes");
    }
    if (op == 1 && arity != 1) {
      return Status::ParseError("delete row of " + std::to_string(arity) +
                                " values");
    }
    SqlRow row;
    row.reserve(arity);
    for (uint64_t c = 0; c < arity; ++c) {
      SCD_ASSIGN_OR_RETURN(Value value, Value::DecodeFrom(record));
      row.push_back(std::move(value));
    }
    if (!table_result.ok()) continue;
    if (op == 1) {
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
