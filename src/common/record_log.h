/// \file record_log.h
/// \brief The log under both storage engines: the mutation record codec,
/// RecordLog, a framed append-only file with a flush sidecar, and the replay
/// of mutations. The NoSQL commit log and the SQL redo log are the same
/// bytes and differ only in whether an append is fsynced.

#ifndef SCDWARF_COMMON_RECORD_LOG_H_
#define SCDWARF_COMMON_RECORD_LOG_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/value.h"

namespace scdwarf {

/// \brief Writes a mutation record's header: the delete flag, the scope
/// (keyspace or database) and table names, and the row count. The rows
/// follow, one PutMutationRow each; a delete row is its key alone.
void PutMutationHeader(ByteWriter* writer, const std::string& scope,
                       const std::string& table, size_t num_rows,
                       bool is_delete);

/// \brief Writes one row of a mutation record: its arity, then its values.
/// Returns the offset in \p writer where the values begin, so a caller can
/// keep the row's value bytes (a NoSQL table's memtable holds exactly
/// those).
size_t PutMutationRow(ByteWriter* writer, std::span<const Value> row);

/// \brief Writes the create record of table scope.table: a header of op 2
/// and no rows, which DecodeMutation reads as an insert of no rows. Every
/// earlier record of that name is a dropped table's.
void PutCreateRecord(ByteWriter* writer, const std::string& scope,
                     const std::string& table);

/// \brief A decoded mutation record.
struct Mutation {
  bool is_delete = false;
  std::string scope;
  std::string table;
  std::vector<std::vector<Value>> rows;
};

/// \brief Decodes the record \p record spans exactly, so a corrupt record
/// cannot read into the next one. Rows overrunning the record, a row of more
/// values than bytes left and a delete row that is not one key are
/// ParseErrors.
Result<Mutation> DecodeMutation(ByteReader* record);

/// \brief Length-framed records in `<dir>/<stem>.bin`, moved at a flush to
/// the sidecar `<dir>/<stem>.old.bin`. Appends and rotations serialize
/// behind the log's own lock.
///
/// A failed append cuts the file back to its length before the append, so
/// no partial frame hides later records from replay; if that cut fails too,
/// every later append and rotation returns the same IoError.
class RecordLog {
 public:
  /// With \p fsync_each_append an append is durable when it returns (the
  /// redo log: InnoDB's innodb_flush_log_at_trx_commit = 1). Without it an
  /// append reaches only the page cache (the commit log: a power loss can
  /// lose what was appended since the last flush).
  RecordLog(const std::string& dir, const std::string& stem,
            bool fsync_each_append);
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Appends \p record behind its size as a 32-bit word, fsynced when the
  /// policy or \p sync says so.
  Status Append(std::span<const uint8_t> record, bool sync = false);

  /// Moves the live log to the sidecar, or appends it to a sidecar that a
  /// failed flush left, so replay order stays append order. Returns whether
  /// there was a live log. The caller keeps every writer out meanwhile.
  Result<bool> Rotate();

  /// Removes the sidecar, once everything its records cover is durable.
  void RemoveRotated();

  /// Calls \p apply on each record of the sidecar, then of the live log,
  /// with a reader spanning exactly that record; an error is returned naming
  /// the file. A file ending inside a frame (a crashed append's torn tail) is
  /// cut back to its last whole frame, so no later append lands behind it.
  /// Runs at open, before any append; \p apply runs without the lock held.
  Status Replay(const std::function<Status(ByteReader*)>& apply);

 private:
  /// Appends \p head and \p body to \p path, fsyncing it (and, when it
  /// is new, its directory) if \p sync, and cuts the file back if a write
  /// or an fsync fails. Caller holds mu_.
  Status AppendLocked(const std::string& path, std::span<const uint8_t> head,
                      std::span<const uint8_t> body, bool sync);

  const std::string dir_;
  const std::string path_;
  const std::string rotated_path_;
  const bool fsync_each_append_;
  std::mutex mu_;
  Status broken_;  ///< guarded by mu_; set when a failed cut leaves a tail
};

/// \brief Replays \p log and calls \p apply on each record that no later
/// create record of its table's name follows (a first pass finds them, and
/// a create record with rows is a ParseError), so a dropped table's rows
/// never reach a table created later under its name.
Status ReplayMutations(RecordLog* log,
                       const std::function<Status(Mutation&)>& apply);

}  // namespace scdwarf

#endif  // SCDWARF_COMMON_RECORD_LOG_H_
