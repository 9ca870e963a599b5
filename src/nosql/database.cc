#include "nosql/database.h"

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
          "full Flush wall time: rotation + segment writes (us)");
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
  // Each table's span parents on this one from whichever thread writes it.
  const uint64_t flush_span = trace::CurrentSpanId();
  SCD_RETURN_IF_ERROR(catalog_.Flush(
      kFlushThreads,
      [&](const std::string& keyspace, const std::string& name,
          Table& table) -> Status {
        trace::ScopedSpan segment_span("nosql.segment_flush", flush_span);
        Stopwatch watch;
        ByteWriter writer;
        uint64_t version = 0;
        {
          std::lock_guard<std::mutex> lock(catalog_.TableLock(keyspace, name));
          version = table.mutation_version();
          if (version == table.flushed_version()) return Status::OK();  // clean
          trace::ScopedSpan serialize_span("nosql.serialize");
          table.SerializeTo(&writer);
        }
        SCD_RETURN_IF_ERROR(
            catalog_.WriteTableFile(keyspace, name, writer.view()));
        table.MarkFlushed(version);
        SegmentFlushesCounter()->Increment();
        SegmentFlushHistogram()->Record(watch.ElapsedMicros());
        return Status::OK();
      },
      LogRotationsCounter(), LogRotateHistogram()));
  FlushHistogram()->Record(flush_watch.ElapsedMicros());
  return Status::OK();
}

}  // namespace scdwarf::nosql
