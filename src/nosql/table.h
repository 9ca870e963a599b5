/// \file table.h
/// \brief One column family: a memtable of encoded rows, hash-indexed by
/// primary key (Cassandra-style), plus hidden ordered secondary indexes,
/// with binary segment serialization for on-disk persistence.
///
/// Every live row is kept as its encoded bytes: its values' Value::EncodeTo
/// bytes back to back, which are also its bytes in a segment and, behind an
/// arity varint, in a commit-log record (Cassandra has kept memtable cells
/// serialized since 2.1). The bytes live in append-only slab blocks that
/// are never reallocated: a bulk insert adopts its commit-log record whole
/// as one block, and the rows of a small record or a single row are copied
/// to the end of a copy block. A slot array points into them in insertion
/// order. An upsert keeps its
/// key's slot and points it at the new bytes, a delete empties the slot,
/// and segments write the live slots in slot order; once the bytes of
/// overwritten and deleted rows outweigh the live ones, the live rows are
/// copied into fresh blocks. Reads decode on access, and a read that needs
/// one column decodes only that column.
///
/// The primary index is a flat open-addressing table over the slots that
/// hashes and compares the key's encoded bytes (two values are equal
/// exactly when their encodings are): an insert allocates nothing (outside
/// growth), decodes nothing and copies no key.

#ifndef SCDWARF_NOSQL_TABLE_H_
#define SCDWARF_NOSQL_TABLE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "nosql/schema.h"

namespace scdwarf::nosql {

/// \brief Rows encoded once for one table, in one buffer: where each row's
/// values lie in \p bytes, and the hash of each row's key. The buffer may
/// hold other bytes around them (a commit-log record's header and each
/// row's arity).
struct EncodedRows {
  /// One row's values, \p size bytes from \p offset, and Table::KeyHash of
  /// them.
  struct Span {
    size_t offset = 0;
    size_t size = 0;
    uint64_t key_hash = 0;
  };
  std::vector<uint8_t> bytes;
  std::vector<Span> rows;
};

/// \brief A column family with rows, a primary hash index and secondary
/// ordered indexes. Inserts are upserts (Cassandra write semantics).
class Table {
 public:
  explicit Table(TableSchema schema);

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }

  /// Checks \p row's arity, its column types and its primary key against
  /// the schema.
  Status ValidateRow(const Row& row) const;

  /// Upserts \p row after ValidateRow, copying its encoding to the slab.
  /// Secondary indexes are maintained inline (one hidden ordered-structure
  /// write per index — the cost Table 5 measures for NoSQL-Min).
  Status Insert(const Row& row);

  /// The primary-index hash of the row whose encoded values are \p row:
  /// the hash of its key's bytes.
  uint64_t KeyHash(std::span<const uint8_t> row) const;

  /// Upserts every row of \p rows, in order, adopting their buffer as one
  /// slab block (a buffer under 4 KiB has its rows copied to the slab
  /// instead). Each row must have passed ValidateRow: the bulk write path
  /// validates a batch while it encodes it, and never twice. Nothing is
  /// decoded or hashed here unless the table has a secondary index, and the
  /// index buckets the next rows land in are fetched ahead.
  void InsertEncoded(EncodedRows rows);

  /// Pre-sizes the slot array and primary index for \p additional rows
  /// (called by the bulk write path before applying a mutation batch).
  /// Capacity grows geometrically, so a stream of small batches into a
  /// large table stays amortized O(1) per row instead of moving every slot
  /// and rehashing the index on each batch.
  void ReserveAdditional(size_t additional);

  /// Adds a secondary index on \p column and back-fills it from existing rows.
  Status CreateIndex(std::string_view column);

  /// Deletes the row with primary key \p key (tombstone + index cleanup);
  /// NotFound when absent.
  Status DeleteByPk(const Value& key);

  /// The row keyed by \p key, decoded; NotFound when absent.
  Result<Row> GetByPk(const Value& key) const;

  /// Calls \p visit on each row where \p column equals \p value, decoded
  /// into one Row that the next row overwrites; stops at the first error.
  /// Uses the secondary index when one exists; otherwise requires
  /// \p allow_filtering (Cassandra's rule) and scans, comparing only
  /// \p column's bytes of the rows that do not match. Primary-key equality
  /// is always allowed.
  Status SelectEq(std::string_view column, const Value& value,
                  bool allow_filtering,
                  const std::function<Status(const Row&)>& visit) const;

  /// The rows SelectEq visits, collected.
  Result<std::vector<Row>> SelectEq(std::string_view column,
                                    const Value& value,
                                    bool allow_filtering = false) const;

  /// Every live row, decoded, in slot order.
  std::vector<Row> ScanAll() const;

  /// Every live row's value in column \p index (schema order), in slot
  /// order, decoding only that column.
  std::vector<Value> ScanColumn(size_t index) const;

  size_t num_rows() const { return live_count_; }

  /// Bytes the memtable holds: every slab block's, with the bytes of
  /// overwritten and deleted rows not yet compacted away.
  uint64_t memtable_bytes() const;

  /// Serialized segment size in bytes (rows + index blocks + header),
  /// counted without writing the segment.
  uint64_t EstimateSegmentBytes() const;

  /// Writes the full segment (schema header, row data, secondary index
  /// blocks) — the bytes a Flush() puts on disk. The rows are the live
  /// slots' bytes, copied.
  void SerializeTo(ByteWriter* writer) const;

  /// Inverse of SerializeTo. Each row is checked by decoding it, and the
  /// table keeps its encoding.
  static Result<std::unique_ptr<Table>> Deserialize(ByteReader* reader);

  /// Monotonic mutation counter, bumped by every successful Insert /
  /// InsertEncoded / DeleteByPk / CreateIndex. Database::Flush compares it
  /// against flushed_version() to skip serializing tables whose last flush
  /// already captured every mutation.
  uint64_t mutation_version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// The mutation version the last completed flush captured (0 = never
  /// flushed; a fresh table therefore starts dirty).
  uint64_t flushed_version() const {
    return flushed_version_.load(std::memory_order_acquire);
  }

  /// Records that a serialization taken at \p version reached disk. Two
  /// flushes of one table never overlap (one Flush() runs at a time).
  void MarkFlushed(uint64_t version) {
    flushed_version_.store(version, std::memory_order_release);
  }

 private:
  using Bytes = std::span<const uint8_t>;

  static constexpr size_t kNoSlot = ~size_t{0};
  static constexpr size_t kMinBuckets = 16;
  /// Size of a copy block, the slab block single rows are copied to.
  static constexpr size_t kCopyBlockBytes = size_t{64} << 10;
  /// InsertEncoded adopts a buffer of at least this many bytes as a slab
  /// block and copies the rows of a smaller one to the copy block.
  static constexpr size_t kAdoptBytes = size_t{4} << 10;
  /// How many rows ahead InsertEncoded fetches a row's home bucket, so the
  /// cache miss of a random bucket overlaps the rows before it.
  static constexpr size_t kPrefetchRows = 8;

  /// One primary-index bucket: the hash of a live row's encoded primary
  /// key and the row's slot; kNoSlot marks a free bucket.
  struct Bucket {
    uint64_t hash = 0;
    size_t slot = kNoSlot;
  };

  /// The bytes of column \p index within \p row's bytes.
  Bytes ColumnBytes(Bytes row, size_t index) const;
  Bytes KeyBytes(Bytes row) const { return ColumnBytes(row, pk_index_); }
  Value DecodeColumn(Bytes row, size_t index) const;
  /// Decodes \p bytes into \p row, reusing its storage.
  void DecodeRow(Bytes bytes, Row* row) const;
  Row DecodeRow(Bytes bytes) const;

  /// The bucket holding the row whose encoded key is \p key, or kNoSlot.
  size_t FindBucket(Bytes key) const;
  size_t FindBucket(const Value& key) const;
  /// Grows the bucket array (doubling) until \p entries keys fit at a load
  /// factor of at most 1/2.
  void ReserveIndex(size_t entries);
  /// Empties \p bucket and shifts the rest of its probe run back, so every
  /// entry stays reachable from its home bucket without tombstones.
  void EraseBucket(size_t bucket);

  /// Upserts the row whose bytes, already in the slab, are \p row, and
  /// whose KeyHash is \p hash.
  void Put(Bytes row, uint64_t hash);
  /// Copies \p bytes to the end of the slab and returns them there.
  Bytes CopyToSlab(Bytes bytes);
  /// Copies the live rows into fresh blocks once the overwritten and
  /// deleted rows' bytes outweigh them, and frees the old blocks.
  void MaybeCompact();

  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }
  void IndexRow(size_t slot);
  void UnindexRow(size_t slot);
  /// Full write path of one hidden index entry: materialize the (value, pk)
  /// index row, then merge it into the index partition (read-before-write:
  /// an existing entry for the same pk is replaced, as Cassandra's index
  /// update does).
  void WriteIndexEntry(std::multimap<Value, Row>* index, const Value& value,
                       const Value& pk);

  TableSchema schema_;
  size_t pk_index_ = 0;
  /// The slab: blocks of encoded rows, never reallocated once rows point
  /// into them (a copy block is reserved whole when it is made).
  std::vector<std::vector<uint8_t>> blocks_;
  size_t copy_block_ = kNoSlot;  ///< the current copy block; kNoSlot: none
  std::vector<Bytes> slots_;     ///< each slot's row bytes; empty once deleted
  size_t live_count_ = 0;  // live slots, which is also the index's entries
  uint64_t live_bytes_ = 0;  ///< bytes of the live rows
  uint64_t dead_bytes_ = 0;  ///< bytes of overwritten and deleted rows
  /// Primary index: open addressing with linear probing over a power-of-two
  /// bucket array (empty until the first insert), kept at most half full.
  /// A key's home bucket is the low bits of its hash; deletes shift later
  /// entries of the probe run back instead of leaving markers.
  std::vector<Bucket> buckets_;
  /// Hidden index column families, one per indexed column. Cassandra models
  /// a secondary index as an internal table keyed by the indexed value whose
  /// entries are materialized rows (value, pk); maintaining one costs about
  /// a full extra write per base-table mutation — the effect Table 5
  /// attributes NoSQL-Min's insert times to. Reads resolve entries back
  /// through the primary index, like Cassandra's 2i read path.
  std::map<size_t, std::multimap<Value, Row>> secondary_;
  std::atomic<uint64_t> version_{1};  // starts above flushed_version_: dirty
  std::atomic<uint64_t> flushed_version_{0};
};

}  // namespace scdwarf::nosql

#endif  // SCDWARF_NOSQL_TABLE_H_
