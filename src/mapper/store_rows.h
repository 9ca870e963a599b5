/// \file store_rows.h
/// \brief The one load path of the four Store()s. Row generation fans out to
/// a pool in node chunks, and every destination table receives its rows in
/// chunk order on its own apply lane, coalesced into batches of at least
/// `rows_per_insert` rows.
///
/// A lane is the table's only writer and sees the exact serial row sequence,
/// so stored bytes are identical at every thread count, while the different
/// tables' inserts overlap behind the engines' per-table shard locks. The
/// lanes apply every batch, the last partial one included, so nothing is
/// applied on the caller after them. At one thread the lanes run inline on
/// the caller and no thread is spawned. Memory stays bounded: the pool
/// generates one wave (one chunk per thread) at a time, and each lane queues
/// at most a few chunks ahead of its inserts.

#ifndef SCDWARF_MAPPER_STORE_ROWS_H_
#define SCDWARF_MAPPER_STORE_ROWS_H_

#include <cstddef>
#include <functional>
#include <string>
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

/// Generates the rows that nodes [begin, end) of the visit order contribute:
/// one Rows per destination table, in the order of StoreRows' \p tables.
/// Runs on pool threads, so it must not touch shared mutable state.
using GenerateRowsFn =
    std::function<std::vector<Rows>(size_t begin, size_t end)>;

/// Inserts one batch of rows into \p table. Runs on \p table's lane; lanes
/// of different tables call it concurrently.
using ApplyRowsFn = std::function<Status(const std::string& table, Rows rows)>;

/// \brief Generates the rows of \p num_nodes nodes in chunks of 1,024 nodes
/// and applies each table's rows in chunk order.
///
/// \p num_threads: 0 = auto (SCDWARF_THREADS, else hardware concurrency),
/// 1 = inline on the caller. A table's chunks are coalesced until a batch
/// holds at least \p rows_per_insert rows; only its last batch may hold
/// fewer, and a table that receives no rows gets no apply call. The first
/// apply error stops that table's lane, carries the table's name, and is
/// returned once every lane has been joined.
Status StoreRows(int num_threads, size_t num_nodes,
                 const std::vector<std::string>& tables,
                 size_t rows_per_insert, const GenerateRowsFn& generate,
                 const ApplyRowsFn& apply);

}  // namespace scdwarf::mapper

#endif  // SCDWARF_MAPPER_STORE_ROWS_H_
