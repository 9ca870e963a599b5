/// \file store_rows.h
/// \brief The one load path of the four Store()s. Row generation fans out to
/// a pool in node chunks. On the pool thread that generated a chunk, each
/// destination table's rows become one batch in its engine's insert form (a
/// NoSQL batch is validated and encoded there, once), and every table
/// receives its batches in chunk order on its own apply lane, coalesced
/// until they hold at least `rows_per_insert` rows.
///
/// A lane is the table's only writer and sees the exact serial row sequence,
/// so stored bytes are identical at every thread count, while the different
/// tables' inserts overlap behind the engines' per-table shard locks. The
/// lanes apply every batch, the last partial one included, so nothing is
/// applied on the caller after them. At one thread the lanes run inline on
/// the caller and no thread is spawned. Memory stays bounded: the pool has
/// at most two chunks per thread in flight, and each lane queues at most a
/// few chunks ahead of its inserts.

#ifndef SCDWARF_MAPPER_STORE_ROWS_H_
#define SCDWARF_MAPPER_STORE_ROWS_H_

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace scdwarf::mapper {

/// Rows per insert for the SQL mappers. Every sql::SqlEngine::BulkInsert
/// appends and fsyncs one redo record (InnoDB's flush at each commit), so
/// committing every chunk would pay one fsync per 1,024 nodes; the SQL
/// mappers coalesce chunks into batches of at least this many rows instead.
/// The NoSQL store never fsyncs on insert, and its mappers pass 1: every
/// chunk becomes one insert.
inline constexpr size_t kSqlRowsPerInsert = 128 * 1024;

/// Rows bound for one table (nosql::Row and sql::SqlRow are both
/// std::vector<Value>).
using Rows = std::vector<std::vector<Value>>;

/// Appends a row of \p values to \p rows, moving each value in. A braced
/// list (`rows.push_back({...})`) can only be copied from, so it would
/// allocate every set and every text over 14 bytes twice.
template <typename... Values>
void AddRow(Rows* rows, Values&&... values) {
  std::vector<Value>& row = rows->emplace_back();
  row.reserve(sizeof...(values));
  (row.push_back(std::forward<Values>(values)), ...);
}

/// Generates the rows that nodes [begin, end) of the visit order contribute:
/// one Rows per destination table, in the order of StoreRows' \p tables.
/// Runs on pool threads, so it must not touch shared mutable state.
using GenerateRowsFn =
    std::function<std::vector<Rows>(size_t begin, size_t end)>;

/// \brief How StoreRows inserts into an engine whose insert takes a
/// \p Batch: the Rows themselves (SQL, and NoSQL's statement mode), or a
/// nosql::InsertBatch.
template <typename Batch>
struct RowSink {
  /// Turns one chunk's rows for \p table into a batch. Runs on the pool
  /// thread that generated the rows, for different chunks concurrently.
  std::function<Result<Batch>(const std::string& table, Rows rows)> prepare;
  /// Inserts \p batches, consecutive chunks' batches in chunk order, as
  /// one insert. Runs on \p table's lane; lanes of different tables call it
  /// concurrently.
  std::function<Status(const std::string& table, std::vector<Batch> batches)>
      apply;
  /// A lane hands apply its chunks' batches once they hold at least this
  /// many rows (a Batch counts them with size()).
  size_t rows_per_insert = 1;
};

/// \brief Generates the rows of \p num_nodes nodes in chunks of 1,024 nodes,
/// prepares each table's rows of each chunk where they were generated, and
/// applies each table's batches in chunk order.
///
/// \p num_threads: 0 = auto (SCDWARF_THREADS, else hardware concurrency),
/// 1 = inline on the caller. Only a table's last apply may hold fewer than
/// \p sink's rows_per_insert rows, and a table that receives no rows gets
/// no apply call. The first prepare error stops the load and carries the
/// table's name; the first apply error stops that table's lane and carries
/// the table's name. Either is returned once every lane has been joined.
/// Instantiated for Rows and nosql::InsertBatch.
template <typename Batch>
Status StoreRows(int num_threads, size_t num_nodes,
                 const std::vector<std::string>& tables,
                 const GenerateRowsFn& generate, const RowSink<Batch>& sink);

/// Inserts one batch of rows into \p table. Runs on \p table's lane; lanes
/// of different tables call it concurrently.
using ApplyRowsFn = std::function<Status(const std::string& table, Rows rows)>;

/// \brief StoreRows over plain Rows: each table's chunks are coalesced
/// until they hold at least \p rows_per_insert rows, and \p apply inserts
/// them as one Rows.
Status StoreRows(int num_threads, size_t num_nodes,
                 const std::vector<std::string>& tables,
                 size_t rows_per_insert, const GenerateRowsFn& generate,
                 const ApplyRowsFn& apply);

}  // namespace scdwarf::mapper

#endif  // SCDWARF_MAPPER_STORE_ROWS_H_
