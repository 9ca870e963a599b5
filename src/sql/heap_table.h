/// \file heap_table.h
/// \brief An InnoDB-style table: rows clustered in a B-tree on the primary
/// key, non-unique secondary indexes, and page-based tablespace
/// serialization that models InnoDB's on-disk overheads (record headers,
/// transaction metadata, 16 KiB pages with a 15/16 fill factor).

#ifndef SCDWARF_SQL_HEAP_TABLE_H_
#define SCDWARF_SQL_HEAP_TABLE_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "sql/catalog.h"

namespace scdwarf::sql {

/// InnoDB-format constants used by the tablespace serializer. Sources:
/// compact record format (5-byte record header, 6-byte DB_TRX_ID, 7-byte
/// DB_ROLL_PTR) and the default 16 KiB page with ~1/16 reserved free space.
struct InnoDbFormat {
  static constexpr size_t kRecordHeaderBytes = 5;
  static constexpr size_t kTrxMetaBytes = 13;
  static constexpr size_t kPageBytes = 16 * 1024;
  static constexpr size_t kPageOverheadBytes = 128;  // fil + page headers, dir
  static constexpr size_t kPagePayloadBytes =
      (kPageBytes - kPageOverheadBytes) * 15 / 16;
  static constexpr size_t kIndexEntryOverheadBytes = kRecordHeaderBytes;
  /// Undo record: type + table id + pk reference (rollback support).
  static constexpr size_t kUndoHeaderBytes = 12;
};

/// \brief A relational table. Insert enforces primary-key uniqueness
/// (MySQL semantics — unlike the NoSQL store's upserts).
class HeapTable {
 public:
  explicit HeapTable(SqlTableDef def);

  const SqlTableDef& def() const { return def_; }
  const std::string& name() const { return def_.name(); }

  /// Checks \p row's arity, column types and NOT NULL constraints against
  /// the definition.
  Status ValidateRow(const SqlRow& row) const;

  /// Inserts a row; AlreadyExists on duplicate primary key,
  /// InvalidArgument on arity/type/nullability violations.
  Status Insert(SqlRow row);

  /// Inserts every row of \p rows, each of which has already passed
  /// ValidateRow, then runs \p commit. All or nothing: on a duplicate
  /// primary key, or when \p commit fails, the rows this call inserted are
  /// removed again and the error is returned. The engine logs the batch in
  /// \p commit, so a batch is logged only once every row is in.
  Status InsertAll(std::vector<SqlRow> rows,
                   const std::function<Status()>& commit);

  Result<const SqlRow*> GetByPk(const Value& key) const;

  /// Rows where \p column == \p value; uses the clustered or a secondary
  /// index when possible, otherwise falls back to a full scan (MySQL always
  /// allows filtering; it is just slow — which the insert benches never hit).
  Result<std::vector<const SqlRow*>> SelectEq(std::string_view column,
                                              const Value& value) const;

  /// All rows in primary-key order.
  std::vector<const SqlRow*> ScanAll() const;

  size_t num_rows() const { return rows_.size(); }

  Status CreateIndex(std::string_view column);

  /// Deletes the row with primary key \p key; NotFound when absent.
  Status DeleteByPk(const Value& key);

  /// Serializes the clustered index and all secondary indexes as page
  /// images — the bytes written to the .tbl tablespace file.
  void SerializeTo(ByteWriter* writer) const;
  uint64_t EstimateTablespaceBytes() const;

  static Result<std::unique_ptr<HeapTable>> Deserialize(ByteReader* reader);

  /// Commits the open transaction: discards the insert undo log (InnoDB
  /// purges insert undo at commit). Called by the engine's flush path.
  void CommitTransaction() { undo_log_.Clear(); }

 private:
  using RowMap = std::map<Value, SqlRow>;

  /// Inserts a validated row and returns its clustered-index entry;
  /// AlreadyExists on a duplicate primary key, which changes nothing.
  Result<RowMap::iterator> InsertValidated(SqlRow row);
  /// Removes \p row and its secondary index entries. Scans each entry run
  /// from its end, so a batch erased newest-first finds each entry at once.
  void EraseRow(RowMap::iterator row);

  SqlTableDef def_;
  size_t pk_index_ = 0;
  /// Scratch buffer for insert-time record formatting.
  ByteWriter record_scratch_;
  /// Physical bytes of all formatted records (headers included).
  uint64_t data_bytes_ = 0;
  /// Buffer-pool page images: every insert copies its formatted record into
  /// the current page, as InnoDB stores rows in page format from the moment
  /// they enter the buffer pool.
  std::vector<uint8_t> buffer_pool_;
  /// Insert undo log of the open transaction (cleared on commit/flush):
  /// InnoDB writes one undo record per inserted row for rollback.
  ByteWriter undo_log_;
  /// Clustered index: pk -> full row (InnoDB stores rows in the PK B-tree).
  RowMap rows_;
  /// column index -> (value -> pk) non-unique index.
  std::map<size_t, std::multimap<Value, Value>> secondary_;
};

}  // namespace scdwarf::sql

#endif  // SCDWARF_SQL_HEAP_TABLE_H_
