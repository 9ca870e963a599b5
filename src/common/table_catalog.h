/// \file table_catalog.h
/// \brief The table catalog under both storage engines: scopes (NoSQL
/// keyspaces, SQL databases) of named tables, the locks that guard them, the
/// log of their mutations, and every file and directory operation on them.

#ifndef SCDWARF_COMMON_TABLE_CATALOG_H_
#define SCDWARF_COMMON_TABLE_CATALOG_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/files.h"
#include "common/metrics.h"
#include "common/record_log.h"
#include "common/result.h"
#include "common/stopwatch.h"

namespace scdwarf {

/// \brief Scopes of tables of type \p T, kept, locked, logged and stored
/// alike by nosql::Database and sql::SqlEngine. T provides name(),
/// SerializeTo, CreateIndex, Insert, DeleteByPk and a static Deserialize.
///
/// Rooted at a data directory, each scope is the directory `<dir>/<scope>`,
/// each table the file `<dir>/<scope>/<table><extension>` holding
/// T::SerializeTo's bytes, and the mutations go to one RecordLog there;
/// without one, the catalog touches no file. Every catalog change is
/// durable when it returns: CreateScope creates its directory and fsyncs
/// the data directory, CreateTable logs the table's create record and then
/// writes its file (WriteFileAtomic), CreateIndex rewrites the file, and
/// DropTable removes it and fsyncs the scope's directory. Replay skips the
/// records of tables a reopen does not know and those logged before their
/// table's create record, so a dropped table's rows never come back. A
/// scope or table name that SanitizeName would change is rejected at
/// create, and a directory or file that breaks that rule at Open, so every
/// name round-trips through its file name. Flush is the one flush protocol
/// of both engines: rotate the log to its sidecar, write every table, and
/// delete the sidecar; an engine supplies only how one table is written
/// and on how many threads.
///
/// Locking: the catalog lock guards the map's shape. Catalog changes hold it
/// exclusively, file writes included; a flush holds it shared while it
/// writes the tables, so no catalog change interleaves with a table's
/// serialization and file write and a dropped table is never written again.
/// The flush lock lets one flush run at a time. A fixed pool of shard locks
/// (TableLock) guards row contents; each is taken after the catalog lock,
/// never before. Writers log and apply under LockTable, and DropTable takes
/// the table's shard lock too, so all records of a dropped table precede
/// its drop in the log.
template <typename T>
class TableCatalog {
 public:
  static constexpr size_t kShards = 16;
  using TableFn =
      std::function<Status(const std::string& scope, const std::string& name,
                           T& table)>;

  /// \p scope_noun names a scope in status messages ("keyspace" or
  /// "database"); \p extension ends each table file's name.
  TableCatalog(std::string scope_noun, std::string extension)
      : scope_noun_(std::move(scope_noun)), extension_(std::move(extension)) {}

  /// Roots the catalog at \p data_dir, creating the directory, loads every
  /// table file under it, and replays the log `<data_dir>/<log_stem>.bin`,
  /// whose appends are fsynced when \p fsync_each_append. Each
  /// subdirectory is a scope, empty or not. A subdirectory or table file
  /// not named as its scope or table would be fails the open.
  Status Open(const std::string& data_dir, const std::string& log_stem,
              bool fsync_each_append) {
    if (data_dir.empty()) {
      return Status::InvalidArgument(
          "data_dir must not be empty; use the default constructor for "
          "memory mode");
    }
    data_dir_ = data_dir;
    SCD_RETURN_IF_ERROR(CreateDirectory(data_dir_));
    SCD_ASSIGN_OR_RETURN(std::vector<std::string> scopes,
                         ListSubdirectories(data_dir_));
    for (const std::string& scope : scopes) {
      SCD_RETURN_IF_ERROR(CheckName(scope_noun_, scope)
                              .WithContext("opening " + data_dir_));
      Tables& tables = scopes_[scope];
      SCD_ASSIGN_OR_RETURN(std::vector<std::string> files,
                           ListFiles(ScopePath(scope), extension_));
      for (const std::string& file : files) {
        const std::string path = ScopePath(scope) + "/" + file;
        SCD_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFile(path));
        ByteReader reader(bytes);
        auto table = T::Deserialize(&reader);
        if (!table.ok()) return table.status().WithContext("loading " + path);
        const std::string name = (*table)->name();
        if (name + extension_ != file) {
          return Status::InvalidArgument(
              "loading " + path + ": holds table '" + name + "', not '" +
              file.substr(0, file.size() - extension_.size()) + "'");
        }
        tables[name] = std::move(*table);
      }
    }
    log_ = std::make_unique<RecordLog>(data_dir_, log_stem, fsync_each_append);
    // The sidecar (a flush that never finished) holds older records than the
    // live log and replays first. A row also in a table's file replays as an
    // upsert (NoSQL) or a tolerated duplicate (SQL), and a delete of a row
    // no file holds as a no-op.
    return ReplayMutations(log_.get(), [this](Mutation& mutation) -> Status {
      // No other thread sees the catalog before Open returns: no lock.
      std::shared_ptr<T> table = FindLocked(mutation.scope, mutation.table);
      if (table == nullptr) return Status::OK();  // dropped since logged
      for (std::vector<Value>& row : mutation.rows) {
        Status status = mutation.is_delete ? table->DeleteByPk(row[0])
                                           : table->Insert(std::move(row));
        if (!status.ok() && !status.IsNotFound() &&
            !status.IsAlreadyExists()) {
          return status;
        }
      }
      return Status::OK();
    });
  }

  const std::string& data_dir() const { return data_dir_; }
  bool durable() const { return !data_dir_.empty(); }

  bool HasScope(const std::string& name) const {
    std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
    return scopes_.count(name) > 0;
  }

  Status CreateScope(const std::string& name) {
    SCD_RETURN_IF_ERROR(CheckName(scope_noun_, name));
    std::unique_lock<std::shared_mutex> catalog(sync_->catalog_mu);
    if (scopes_.count(name) > 0) {
      return Status::AlreadyExists(scope_noun_ + " '" + name +
                                   "' already exists");
    }
    if (durable()) SCD_RETURN_IF_ERROR(CreateDirectory(ScopePath(name)));
    scopes_[name];
    return Status::OK();
  }

  /// Adds \p table as scope.name once its create record is logged, fsynced
  /// whatever the log's policy, and then its file written: no file reopens
  /// without the record that keeps a dropped table's rows out of it.
  Status CreateTable(const std::string& scope, const std::string& name,
                     std::shared_ptr<T> table) {
    SCD_RETURN_IF_ERROR(CheckName("table", name));
    std::unique_lock<std::shared_mutex> catalog(sync_->catalog_mu);
    auto tables = scopes_.find(scope);
    if (tables == scopes_.end()) return NoScope(scope);
    if (tables->second.count(name) > 0) {
      return Status::AlreadyExists("table " + scope + "." + name +
                                   " already exists");
    }
    if (durable()) {
      ByteWriter record;
      PutCreateRecord(&record, scope, name);
      SCD_RETURN_IF_ERROR(log_->Append(record.data(), /*sync=*/true));
    }
    SCD_RETURN_IF_ERROR(WriteLocked(scope, name, *table));
    tables->second[name] = std::move(table);
    return Status::OK();
  }

  /// Removes scope.name once its file is removed, after any writer holding
  /// its lock (LockTable) is done.
  Status DropTable(const std::string& scope, const std::string& name) {
    std::unique_lock<std::shared_mutex> catalog(sync_->catalog_mu);
    if (FindLocked(scope, name) == nullptr) return NoTable(scope, name);
    std::lock_guard<std::mutex> lock(TableLock(scope, name));
    if (durable()) SCD_RETURN_IF_ERROR(RemoveFile(TablePath(scope, name)));
    scopes_[scope].erase(name);
    return Status::OK();
  }

  /// Indexes \p column of scope.name under its shard lock, then rewrites
  /// the table's file.
  Status CreateIndex(const std::string& scope, const std::string& name,
                     const std::string& column) {
    std::unique_lock<std::shared_mutex> catalog(sync_->catalog_mu);
    std::shared_ptr<T> table = FindLocked(scope, name);
    if (table == nullptr) {
      return scopes_.count(scope) > 0 ? NoTable(scope, name) : NoScope(scope);
    }
    {
      std::lock_guard<std::mutex> lock(TableLock(scope, name));
      SCD_RETURN_IF_ERROR(table->CreateIndex(column));
    }
    return WriteLocked(scope, name, *table);
  }

  /// Deletes \p keys from scope.name under its lock (LockTable), logged
  /// first as rows of one key each.
  Status DeleteRows(const std::string& scope, const std::string& name,
                    const std::vector<Value>& keys) {
    SCD_ASSIGN_OR_RETURN(std::shared_ptr<T> table, GetTable(scope, name));
    ByteWriter record;
    if (durable()) {
      PutMutationHeader(&record, scope, name, keys.size(), /*is_delete=*/true);
      for (const Value& key : keys) PutMutationRow(&record, {&key, 1});
    }
    SCD_ASSIGN_OR_RETURN(std::unique_lock<std::mutex> lock,
                         LockTable(scope, name, *table));
    SCD_RETURN_IF_ERROR(AppendLog(record.data()));
    for (const Value& key : keys) SCD_RETURN_IF_ERROR(table->DeleteByPk(key));
    return Status::OK();
  }

  Result<std::shared_ptr<T>> GetTable(const std::string& scope,
                                      const std::string& name) const {
    std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
    std::shared_ptr<T> table = FindLocked(scope, name);
    if (table != nullptr) return table;
    return scopes_.count(scope) > 0 ? NoTable(scope, name) : NoScope(scope);
  }

  Result<std::vector<std::string>> ListTables(const std::string& scope) const {
    std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
    auto tables = scopes_.find(scope);
    if (tables == scopes_.end()) return NoScope(scope);
    std::vector<std::string> names;
    names.reserve(tables->second.size());
    for (const auto& [name, table] : tables->second) names.push_back(name);
    return names;
  }

  /// Calls \p fn on every table in name order under the catalog lock
  /// shared, stopping at the first error.
  Status ForEachTable(const TableFn& fn) const {
    std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
    for (const auto& [scope, tables] : scopes_) {
      for (const auto& [name, table] : tables) {
        SCD_RETURN_IF_ERROR(fn(scope, name, *table));
      }
    }
    return Status::OK();
  }

  /// The sum of \p bytes over every table.
  uint64_t SumTables(uint64_t (T::*bytes)() const) const {
    uint64_t total = 0;
    ForEachTable([&](const std::string&, const std::string&, T& table) {
      total += (table.*bytes)();
      return Status::OK();
    });
    return total;
  }

  /// Replaces scope.name's file with \p bytes. The caller holds the catalog
  /// lock (a write of Flush's).
  Status WriteTableFile(const std::string& scope, const std::string& name,
                        std::string_view bytes) const {
    return WriteFileAtomic(TablePath(scope, name), bytes);
  }

  /// `<data_dir>/<file>`, for an engine's own files beside the scopes.
  std::string DataPath(const std::string& file) const {
    return data_dir_ + "/" + file;
  }

  /// Bytes of every file under the data directory; 0 in memory.
  Result<uint64_t> DiskBytes() const {
    if (!durable()) return uint64_t{0};
    return DirectoryBytes(data_dir_);
  }

  /// The shard lock guarding scope.name's row contents.
  std::mutex& TableLock(const std::string& scope,
                        const std::string& name) const {
    size_t h = std::hash<std::string>()(scope) * 1000003u ^
               std::hash<std::string>()(name);
    return sync_->shards[h % kShards];
  }

  /// scope.name's shard lock, held, if \p table is still scope.name;
  /// NotFound once it was dropped. A writer that looked \p table up takes
  /// it to log and apply, so no record of a dropped table follows its drop.
  Result<std::unique_lock<std::mutex>> LockTable(const std::string& scope,
                                                 const std::string& name,
                                                 const T& table) const {
    std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
    if (FindLocked(scope, name).get() != &table) return NoTable(scope, name);
    return std::unique_lock<std::mutex>(TableLock(scope, name));
  }

  /// Appends a mutation record, under the lock LockTable gave; OK in
  /// memory.
  Status AppendLog(std::span<const uint8_t> record) {
    return durable() ? log_->Append(record) : Status::OK();
  }

  /// Puts every mutation logged before the call into its table's file, then
  /// deletes the log that held them; OK at once in memory. One flush runs
  /// at a time. It moves the log to its sidecar (RotateLog), then calls
  /// \p write once on each table, on up to \p max_threads threads, the
  /// caller's among them, with the catalog lock held shared. The sidecar is
  /// deleted only if every write returned OK; otherwise the first error in
  /// table order is returned and the sidecar replays at the next Open.
  Status Flush(size_t max_threads, const TableFn& write,
               metrics::Counter* rotations, FixedBucketHistogram* rotate_us) {
    if (!durable()) return Status::OK();
    std::lock_guard<std::mutex> flush(sync_->flush_mu);
    SCD_RETURN_IF_ERROR(RotateLog(rotations, rotate_us));
    // The tables are listed after the rotation, so each table with records
    // in the sidecar is written, unless it was dropped (replay skips those).
    std::shared_lock<std::shared_mutex> catalog(sync_->catalog_mu);
    struct Job {
      const std::string* scope;
      const std::string* name;
      T* table;
      Status status;
    };
    std::vector<Job> jobs;
    for (const auto& [scope, tables] : scopes_) {
      for (const auto& [name, table] : tables) {
        jobs.push_back({&scope, &name, table.get(), Status::OK()});
      }
    }
    std::atomic<size_t> next{0};
    auto drain = [&] {
      for (size_t i; (i = next.fetch_add(1)) < jobs.size();) {
        jobs[i].status = write(*jobs[i].scope, *jobs[i].name, *jobs[i].table);
      }
    };
    std::vector<std::thread> helpers;
    try {
      for (size_t i = 1; i < std::min(max_threads, jobs.size()); ++i) {
        helpers.emplace_back(drain);
      }
    } catch (const std::system_error&) {
      // No thread to spare: the caller writes what the helpers do not.
    }
    drain();
    for (std::thread& helper : helpers) helper.join();
    for (const Job& job : jobs) SCD_RETURN_IF_ERROR(job.status);
    log_->RemoveRotated();
    return Status::OK();
  }

 private:
  using Tables = std::map<std::string, std::shared_ptr<T>>;

  /// Lock state lives behind one heap allocation so the catalog, and the
  /// engine holding it, stay movable.
  struct Sync {
    std::shared_mutex catalog_mu;  ///< scopes_'s shape
    std::array<std::mutex, kShards> shards;  ///< row contents
    std::mutex flush_mu;  ///< one Flush at a time
  };

  std::string ScopePath(const std::string& scope) const {
    return DataPath(SanitizeName(scope));
  }
  std::string TablePath(const std::string& scope,
                        const std::string& name) const {
    return ScopePath(scope) + "/" + SanitizeName(name) + extension_;
  }

  /// Moves the log to its sidecar with every shard lock held, so each
  /// logged mutation is either in the sidecar and applied, or wholly in the
  /// fresh live log. Counts a rotation in \p rotations and records the
  /// time with the locks, their waits included, in \p rotate_us.
  Status RotateLog(metrics::Counter* rotations,
                   FixedBucketHistogram* rotate_us) {
    Stopwatch watch;
    std::array<std::unique_lock<std::mutex>, kShards> locks;
    for (size_t i = 0; i < kShards; ++i) {
      locks[i] = std::unique_lock<std::mutex>(sync_->shards[i]);
    }
    SCD_ASSIGN_OR_RETURN(bool rotated, log_->Rotate());
    if (rotated) rotations->Increment();
    rotate_us->Record(watch.ElapsedMicros());
    return Status::OK();
  }

  /// InvalidArgument unless \p name is non-empty and its own file name.
  static Status CheckName(const std::string& noun, const std::string& name) {
    if (name.empty()) return Status::InvalidArgument("empty " + noun + " name");
    if (SanitizeName(name) == name) return Status::OK();
    return Status::InvalidArgument(
        noun + " name '" + name +
        "' has a character outside [A-Za-z0-9_-], which no file name keeps");
  }
  Status NoScope(const std::string& scope) const {
    return Status::NotFound(scope_noun_ + " '" + scope + "' does not exist");
  }
  static Status NoTable(const std::string& scope, const std::string& name) {
    return Status::NotFound("table " + scope + "." + name + " does not exist");
  }

  /// Serializes \p table under its shard lock and replaces its file. The
  /// caller holds the catalog lock exclusively.
  Status WriteLocked(const std::string& scope, const std::string& name,
                     const T& table) const {
    if (!durable()) return Status::OK();
    ByteWriter writer;
    {
      std::lock_guard<std::mutex> lock(TableLock(scope, name));
      table.SerializeTo(&writer);
    }
    return WriteTableFile(scope, name, writer.view());
  }

  /// scope.name, or null; the caller holds the catalog lock.
  std::shared_ptr<T> FindLocked(const std::string& scope,
                                const std::string& name) const {
    auto tables = scopes_.find(scope);
    if (tables == scopes_.end()) return nullptr;
    auto it = tables->second.find(name);
    return it == tables->second.end() ? nullptr : it->second;
  }

  std::string scope_noun_;
  std::string extension_;
  std::string data_dir_;  // empty => in memory
  std::map<std::string, Tables> scopes_;
  std::unique_ptr<Sync> sync_ = std::make_unique<Sync>();
  std::unique_ptr<RecordLog> log_;  // null in memory
};

}  // namespace scdwarf

#endif  // SCDWARF_COMMON_TABLE_CATALOG_H_
