#include "nosql/table.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace scdwarf::nosql {

namespace {
constexpr uint32_t kSegmentMagic = 0x43465345;  // "ESFC"
constexpr uint8_t kSegmentVersion = 1;

/// Raises \p container's capacity to at least \p needed, and to at least
/// double its current capacity whenever it has to grow at all.
template <typename Container>
void ReserveGeometric(Container* container, size_t needed) {
  if (needed > container->capacity()) {
    container->reserve(std::max(needed, 2 * container->capacity()));
  }
}
}  // namespace

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  SCD_CHECK(schema_.Validate().ok()) << "invalid schema passed to Table";
  pk_index_ = schema_.PrimaryKeyIndex();
  for (size_t index : schema_.secondary_indexes()) {
    secondary_.emplace(index, std::multimap<Value, Row>{});
  }
}

Status Table::ValidateRow(const Row& row) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, " +
        schema_.QualifiedName() + " has " +
        std::to_string(schema_.num_columns()) + " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].MatchesType(schema_.columns()[i].type)) {
      return Status::InvalidArgument(
          "value " + row[i].ToCqlLiteral() + " does not match type " +
          DataTypeName(schema_.columns()[i].type) + " of column '" +
          schema_.columns()[i].name + "'");
    }
  }
  if (row[pk_index_].is_null()) {
    return Status::InvalidArgument("primary key must not be null");
  }
  return Status::OK();
}

void Table::WriteIndexEntry(std::multimap<Value, Row>* index,
                            const Value& value, const Value& pk) {
  // Materialize the index row (value, pk) — the hidden column family's
  // mutation payload.
  Row entry;
  entry.reserve(2);
  entry.push_back(value);
  entry.push_back(pk);
  // Read-before-write merge within the index partition.
  auto [begin, end] = index->equal_range(value);
  for (auto it = begin; it != end; ++it) {
    if (it->second[1] == pk) {
      it->second = std::move(entry);
      return;
    }
  }
  index->emplace(value, std::move(entry));
}

void Table::IndexRow(size_t row_index) {
  const Value& pk = rows_[row_index][pk_index_];
  for (auto& [column, index] : secondary_) {
    // Cassandra does not index null values.
    if (rows_[row_index][column].is_null()) continue;
    WriteIndexEntry(&index, rows_[row_index][column], pk);
  }
}

void Table::UnindexRow(size_t row_index) {
  const Value& pk = rows_[row_index][pk_index_];
  for (auto& [column, index] : secondary_) {
    if (rows_[row_index][column].is_null()) continue;
    auto [begin, end] = index.equal_range(rows_[row_index][column]);
    for (auto it = begin; it != end; ++it) {
      if (it->second[1] == pk) {
        index.erase(it);
        break;
      }
    }
  }
}

size_t Table::FindBucket(const Value& key) const {
  if (buckets_.empty()) return kNoSlot;
  const uint64_t hash = key.Hash();
  const size_t mask = buckets_.size() - 1;
  for (size_t bucket = hash & mask; buckets_[bucket].slot != kNoSlot;
       bucket = (bucket + 1) & mask) {
    if (buckets_[bucket].hash == hash &&
        rows_[buckets_[bucket].slot][pk_index_] == key) {
      return bucket;
    }
  }
  return kNoSlot;
}

void Table::ReserveIndex(size_t entries) {
  if (2 * entries <= buckets_.size()) return;
  size_t size = std::max(kMinBuckets, buckets_.size());
  while (size < 2 * entries) size *= 2;
  // Reinsert by the stored hashes: no key is read or compared.
  std::vector<Bucket> old = std::exchange(buckets_, std::vector<Bucket>(size));
  const size_t mask = size - 1;
  for (const Bucket& entry : old) {
    if (entry.slot == kNoSlot) continue;
    size_t bucket = entry.hash & mask;
    while (buckets_[bucket].slot != kNoSlot) bucket = (bucket + 1) & mask;
    buckets_[bucket] = entry;
  }
}

void Table::EraseBucket(size_t hole) {
  const size_t mask = buckets_.size() - 1;
  for (size_t next = (hole + 1) & mask; buckets_[next].slot != kNoSlot;
       next = (next + 1) & mask) {
    // The entry at `next` may fill the hole only when the hole lies on its
    // probe path, i.e. its home is no nearer to `next` than the hole is.
    const size_t home = buckets_[next].hash & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      buckets_[hole] = buckets_[next];
      hole = next;
    }
  }
  buckets_[hole] = Bucket{};
}

Status Table::Insert(Row row) {
  SCD_RETURN_IF_ERROR(ValidateRow(row));
  InsertValidated(std::move(row));
  return Status::OK();
}

void Table::InsertValidated(Row row) {
  ReserveIndex(live_count_ + 1);
  // One probe run finds either the key (upsert) or the free bucket the new
  // row's slot goes into.
  const uint64_t hash = row[pk_index_].Hash();
  const size_t mask = buckets_.size() - 1;
  size_t bucket = hash & mask;
  for (; buckets_[bucket].slot != kNoSlot; bucket = (bucket + 1) & mask) {
    const size_t slot = buckets_[bucket].slot;
    if (buckets_[bucket].hash == hash &&
        rows_[slot][pk_index_] == row[pk_index_]) {
      // Upsert: replace in place, fixing secondary index entries.
      UnindexRow(slot);
      rows_[slot] = std::move(row);
      IndexRow(slot);
      BumpVersion();
      return;
    }
  }
  const size_t slot = rows_.size();
  buckets_[bucket] = {hash, slot};
  rows_.push_back(std::move(row));
  live_.push_back(true);
  ++live_count_;
  IndexRow(slot);
  BumpVersion();
}

void Table::ReserveAdditional(size_t additional) {
  ReserveGeometric(&rows_, rows_.size() + additional);
  ReserveGeometric(&live_, live_.size() + additional);
  ReserveIndex(live_count_ + additional);
}

Status Table::CreateIndex(std::string_view column) {
  SCD_RETURN_IF_ERROR(schema_.AddSecondaryIndex(column));
  size_t index = schema_.ColumnIndex(column).ValueOrDie();
  auto& entries = secondary_[index];
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (live_[slot] && !rows_[slot][index].is_null()) {
      WriteIndexEntry(&entries, rows_[slot][index], rows_[slot][pk_index_]);
    }
  }
  BumpVersion();
  return Status::OK();
}

Status Table::DeleteByPk(const Value& key) {
  const size_t bucket = FindBucket(key);
  if (bucket == kNoSlot) {
    return Status::NotFound("no row with primary key " + key.ToCqlLiteral() +
                            " in " + schema_.QualifiedName());
  }
  const size_t slot = buckets_[bucket].slot;
  UnindexRow(slot);
  EraseBucket(bucket);
  live_[slot] = false;
  rows_[slot].clear();
  rows_[slot].shrink_to_fit();
  --live_count_;
  BumpVersion();
  return Status::OK();
}

Result<const Row*> Table::GetByPk(const Value& key) const {
  const size_t bucket = FindBucket(key);
  if (bucket == kNoSlot) {
    return Status::NotFound("no row with primary key " + key.ToCqlLiteral() +
                            " in " + schema_.QualifiedName());
  }
  return &rows_[buckets_[bucket].slot];
}

Result<std::vector<const Row*>> Table::SelectEq(std::string_view column,
                                                const Value& value,
                                                bool allow_filtering) const {
  SCD_ASSIGN_OR_RETURN(size_t index, schema_.ColumnIndex(column));
  std::vector<const Row*> result;
  if (index == pk_index_) {
    auto row = GetByPk(value);
    if (row.ok()) result.push_back(*row);
    return result;
  }
  auto secondary_it = secondary_.find(index);
  if (secondary_it != secondary_.end()) {
    auto [begin, end] = secondary_it->second.equal_range(value);
    for (auto it = begin; it != end; ++it) {
      // Resolve the index entry through the base table (Cassandra's 2i read
      // path: index hit, then base-row fetch by primary key).
      const size_t base = FindBucket(it->second[1]);
      if (base != kNoSlot) result.push_back(&rows_[buckets_[base].slot]);
    }
    return result;
  }
  if (!allow_filtering) {
    return Status::FailedPrecondition(
        "column '" + std::string(column) + "' of " + schema_.QualifiedName() +
        " has no index; use ALLOW FILTERING to scan");
  }
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (live_[slot] && rows_[slot][index] == value) {
      result.push_back(&rows_[slot]);
    }
  }
  return result;
}

std::vector<const Row*> Table::ScanAll() const {
  std::vector<const Row*> result;
  result.reserve(live_count_);
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (live_[slot]) result.push_back(&rows_[slot]);
  }
  return result;
}

void Table::SerializeTo(ByteWriter* writer) const {
  writer->PutU32(kSegmentMagic);
  writer->PutU8(kSegmentVersion);
  schema_.EncodeTo(writer);
  writer->PutVarint(live_count_);
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (!live_[slot]) continue;
    for (const Value& value : rows_[slot]) value.EncodeTo(writer);
  }
  // Secondary index blocks: each index persists its ordered (value ->
  // primary key) entries, the on-disk footprint Cassandra's hidden index
  // tables pay. Keys reference primary keys (stable across reload), not
  // slot numbers.
  writer->PutVarint(secondary_.size());
  for (const auto& [column, entries] : secondary_) {
    writer->PutVarint(column);
    writer->PutVarint(entries.size());
    for (const auto& [value, entry] : entries) {
      value.EncodeTo(writer);
      entry[1].EncodeTo(writer);  // primary key
    }
  }
}

uint64_t Table::EstimateSegmentBytes() const {
  ByteWriter writer;
  SerializeTo(&writer);
  return writer.size();
}

Result<std::unique_ptr<Table>> Table::Deserialize(ByteReader* reader) {
  SCD_ASSIGN_OR_RETURN(uint32_t magic, reader->ReadU32());
  if (magic != kSegmentMagic) {
    return Status::ParseError("bad segment magic");
  }
  SCD_ASSIGN_OR_RETURN(uint8_t version, reader->ReadU8());
  if (version != kSegmentVersion) {
    return Status::ParseError("unsupported segment version " +
                              std::to_string(version));
  }
  SCD_ASSIGN_OR_RETURN(TableSchema schema, TableSchema::DecodeFrom(reader));
  auto table = std::make_unique<Table>(schema);
  SCD_ASSIGN_OR_RETURN(uint64_t num_rows, reader->ReadVarint());
  for (uint64_t r = 0; r < num_rows; ++r) {
    Row row;
    row.reserve(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      SCD_ASSIGN_OR_RETURN(Value value, Value::DecodeFrom(reader));
      row.push_back(std::move(value));
    }
    SCD_RETURN_IF_ERROR(table->Insert(std::move(row)));
  }
  // Index blocks were rebuilt by Insert; skip the persisted copies.
  SCD_ASSIGN_OR_RETURN(uint64_t num_indexes, reader->ReadVarint());
  for (uint64_t i = 0; i < num_indexes; ++i) {
    SCD_ASSIGN_OR_RETURN(uint64_t column, reader->ReadVarint());
    (void)column;
    SCD_ASSIGN_OR_RETURN(uint64_t num_entries, reader->ReadVarint());
    for (uint64_t e = 0; e < num_entries; ++e) {
      SCD_RETURN_IF_ERROR(Value::DecodeFrom(reader).status());
      SCD_RETURN_IF_ERROR(Value::DecodeFrom(reader).status());
    }
  }
  return table;
}

}  // namespace scdwarf::nosql
