/// \file table.h
/// \brief One column family: an in-memory partition (hash-indexed by primary
/// key, Cassandra-style) plus hidden ordered secondary indexes, with binary
/// segment serialization for on-disk persistence.
///
/// Rows live in a slot array in insertion order; a delete leaves a
/// tombstone slot, and segments write the live slots in slot order. The
/// primary index is a flat open-addressing table over those slots: an
/// insert allocates nothing (outside growth) and copies no key, because the
/// key is read from the row's slot and compared only on a hash match.

#ifndef SCDWARF_NOSQL_TABLE_H_
#define SCDWARF_NOSQL_TABLE_H_

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "common/result.h"
#include "nosql/schema.h"

namespace scdwarf::nosql {

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

  /// Upserts \p row after ValidateRow. Secondary indexes are maintained
  /// inline (one hidden ordered-structure write per index — the cost Table 5
  /// measures for NoSQL-Min).
  Status Insert(Row row);

  /// Upserts \p row, which has already passed ValidateRow: the bulk write
  /// path validates a whole batch before logging it, and never twice.
  void InsertValidated(Row row);

  /// Pre-sizes the row store and primary index for \p additional rows
  /// (called by the bulk write path before applying a mutation batch).
  /// Capacity grows geometrically, so a stream of small batches into a
  /// large table stays amortized O(1) per row instead of moving every row
  /// and rehashing the index on each batch.
  void ReserveAdditional(size_t additional);

  /// Adds a secondary index on \p column and back-fills it from existing rows.
  Status CreateIndex(std::string_view column);

  /// Deletes the row with primary key \p key (tombstone + index cleanup);
  /// NotFound when absent.
  Status DeleteByPk(const Value& key);

  /// Row lookup by primary key; NotFound when absent.
  Result<const Row*> GetByPk(const Value& key) const;

  /// All rows where \p column equals \p value. Uses the secondary index when
  /// one exists; otherwise requires \p allow_filtering (Cassandra's rule) and
  /// scans. Primary-key equality is always allowed.
  Result<std::vector<const Row*>> SelectEq(std::string_view column,
                                           const Value& value,
                                           bool allow_filtering = false) const;

  /// Every live row (scan order unspecified).
  std::vector<const Row*> ScanAll() const;

  size_t num_rows() const { return live_count_; }

  /// Serialized segment size in bytes (rows + index blocks + header),
  /// without actually writing the file.
  uint64_t EstimateSegmentBytes() const;

  /// Writes the full segment (schema header, row data, secondary index
  /// blocks) — the bytes a Flush() puts on disk.
  void SerializeTo(ByteWriter* writer) const;

  /// Inverse of SerializeTo.
  static Result<std::unique_ptr<Table>> Deserialize(ByteReader* reader);

  /// Monotonic mutation counter, bumped by every successful Insert /
  /// DeleteByPk / CreateIndex. The async flusher compares it against
  /// flushed_version() to skip serializing tables whose last flush already
  /// captured every mutation.
  uint64_t mutation_version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// The mutation version the last completed flush captured (0 = never
  /// flushed; a fresh table therefore starts dirty).
  uint64_t flushed_version() const {
    return flushed_version_.load(std::memory_order_acquire);
  }

  /// Records that a serialization taken at \p version reached disk.
  /// Monotonic: out-of-order completions keep the maximum.
  void MarkFlushed(uint64_t version) {
    uint64_t seen = flushed_version_.load(std::memory_order_relaxed);
    while (seen < version && !flushed_version_.compare_exchange_weak(
                                 seen, version, std::memory_order_acq_rel)) {
    }
  }

 private:
  static constexpr size_t kNoSlot = ~size_t{0};
  static constexpr size_t kMinBuckets = 16;
  /// One primary-index bucket: the full hash of a live row's primary key
  /// and the row's slot; kNoSlot marks a free bucket.
  struct Bucket {
    uint64_t hash = 0;
    size_t slot = kNoSlot;
  };

  /// The bucket holding \p key, or kNoSlot when the key is absent.
  size_t FindBucket(const Value& key) const;
  /// Grows the bucket array (doubling) until \p entries keys fit at a load
  /// factor of at most 1/2.
  void ReserveIndex(size_t entries);
  /// Empties \p bucket and shifts the rest of its probe run back, so every
  /// entry stays reachable from its home bucket without tombstones.
  void EraseBucket(size_t bucket);

  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }
  void IndexRow(size_t row_index);
  void UnindexRow(size_t row_index);
  /// Full write path of one hidden index entry: materialize the (value, pk)
  /// index row, then merge it into the index partition (read-before-write:
  /// an existing entry for the same pk is replaced, as Cassandra's index
  /// update does).
  void WriteIndexEntry(std::multimap<Value, Row>* index, const Value& value,
                       const Value& pk);

  TableSchema schema_;
  size_t pk_index_ = 0;
  std::vector<Row> rows_;        // slot array; erased slots are tombstones
  std::vector<bool> live_;
  size_t live_count_ = 0;  // live slots, which is also the index's entries
  /// Primary index: open addressing with linear probing over a power-of-two
  /// bucket array (empty until the first insert), kept at most half full.
  /// A key's home bucket is the low bits of its Value::Hash(); deletes
  /// shift later entries of the probe run back instead of leaving markers.
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
