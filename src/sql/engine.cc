#include "sql/engine.h"

#include "common/files.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace scdwarf::sql {

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
  SqlEngine engine;
  // Loads <dir>/<database>/<table>.tbl, then replays redolog.bin. InnoDB's
  // default durability (innodb_flush_log_at_trx_commit = 1) fsyncs the redo
  // log at every commit; the Cassandra-style store syncs its commit log
  // only periodically, one of the write-path differences behind Table 5.
  SCD_RETURN_IF_ERROR(
      engine.catalog_.Open(data_dir, "redolog", /*fsync_each_append=*/true));
  return engine;
}

Status SqlEngine::CreateTable(const SqlTableDef& def) {
  SCD_RETURN_IF_ERROR(def.Validate());
  return catalog_.CreateTable(def.database(), def.name(),
                              std::make_shared<HeapTable>(def));
}

Result<std::shared_ptr<const HeapTable>> SqlEngine::GetTable(
    const std::string& database, const std::string& table) const {
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<HeapTable> t,
                       catalog_.GetTable(database, table));
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
  if (catalog_.durable()) {
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
  SCD_ASSIGN_OR_RETURN(std::unique_lock<std::mutex> lock,
                       catalog_.LockTable(database, table, *t));
  return t->InsertAll(std::move(rows),
                      [&] { return catalog_.AppendLog(record.data()); });
}

Status SqlEngine::Delete(const std::string& database, const std::string& table,
                         const Value& key) {
  return BulkDelete(database, table, {key});
}

Status SqlEngine::Flush() {
  trace::ScopedSpan span("sql.flush");
  Stopwatch flush_watch;
  FlushesCounter()->Increment();
  if (!catalog_.durable()) {
    return catalog_.ForEachTable([this](const std::string& database,
                                        const std::string& name,
                                        HeapTable& table) {
      std::lock_guard<std::mutex> lock(catalog_.TableLock(database, name));
      table.CommitTransaction();
      return Status::OK();
    });
  }
  // Tables are written one at a time: the doublewrite copy is one file.
  const std::string doublewrite = catalog_.DataPath("doublewrite.bin");
  SCD_RETURN_IF_ERROR(catalog_.Flush(
      /*max_threads=*/1,
      [&](const std::string& database, const std::string& name,
          HeapTable& table) -> Status {
        ByteWriter writer;
        {
          // Serialize under the shard lock so a concurrent writer can't
          // mutate the page image mid-snapshot.
          std::lock_guard<std::mutex> lock(catalog_.TableLock(database, name));
          table.SerializeTo(&writer);
        }
        // InnoDB writes every page twice: first to the doublewrite buffer,
        // then in place (torn-page protection; on by default). The copy
        // goes once the tablespace is durable.
        SCD_RETURN_IF_ERROR(WriteFileAtomic(doublewrite, writer.view()));
        SCD_RETURN_IF_ERROR(
            catalog_.WriteTableFile(database, name, writer.view()));
        SCD_RETURN_IF_ERROR(RemoveFile(doublewrite));
        std::lock_guard<std::mutex> lock(catalog_.TableLock(database, name));
        table.CommitTransaction();
        return Status::OK();
      },
      LogRotationsCounter(), LogRotateHistogram()));
  FlushHistogram()->Record(flush_watch.ElapsedMicros());
  return Status::OK();
}

}  // namespace scdwarf::sql
