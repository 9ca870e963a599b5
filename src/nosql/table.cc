#include "nosql/table.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/hash.h"
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

bool SameBytes(std::span<const uint8_t> a, std::span<const uint8_t> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

uint64_t HashKey(std::span<const uint8_t> key) {
  return HashBytes(key.data(), key.size());
}

std::vector<uint8_t> Encode(const Value& value) {
  ByteWriter writer;
  value.EncodeTo(&writer);
  return writer.TakeBuffer();
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

// Rows in the slab were encoded from validated values, so they decode.
Table::Bytes Table::ColumnBytes(Bytes row, size_t index) const {
  ByteReader reader(row.data(), row.size());
  for (size_t i = 0; i < index; ++i) {
    SCD_CHECK(Value::SkipEncoded(&reader).ok());
  }
  const size_t begin = reader.offset();
  SCD_CHECK(Value::SkipEncoded(&reader).ok());
  return row.subspan(begin, reader.offset() - begin);
}

Value Table::DecodeColumn(Bytes row, size_t index) const {
  const Bytes column = ColumnBytes(row, index);
  ByteReader reader(column.data(), column.size());
  return Value::DecodeFrom(&reader).ValueOrDie();
}

void Table::DecodeRow(Bytes bytes, Row* row) const {
  ByteReader reader(bytes.data(), bytes.size());
  row->resize(schema_.num_columns());
  for (Value& value : *row) value = Value::DecodeFrom(&reader).ValueOrDie();
}

Row Table::DecodeRow(Bytes bytes) const {
  Row row;
  DecodeRow(bytes, &row);
  return row;
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

void Table::IndexRow(size_t slot) {
  if (secondary_.empty()) return;
  const Value pk = DecodeColumn(slots_[slot], pk_index_);
  for (auto& [column, index] : secondary_) {
    // Cassandra does not index null values.
    const Value value = DecodeColumn(slots_[slot], column);
    if (!value.is_null()) WriteIndexEntry(&index, value, pk);
  }
}

void Table::UnindexRow(size_t slot) {
  if (secondary_.empty()) return;
  const Value pk = DecodeColumn(slots_[slot], pk_index_);
  for (auto& [column, index] : secondary_) {
    const Value value = DecodeColumn(slots_[slot], column);
    if (value.is_null()) continue;
    auto [begin, end] = index.equal_range(value);
    for (auto it = begin; it != end; ++it) {
      if (it->second[1] == pk) {
        index.erase(it);
        break;
      }
    }
  }
}

size_t Table::FindBucket(Bytes key) const {
  if (buckets_.empty()) return kNoSlot;
  const uint64_t hash = HashKey(key);
  const size_t mask = buckets_.size() - 1;
  for (size_t bucket = hash & mask; buckets_[bucket].slot != kNoSlot;
       bucket = (bucket + 1) & mask) {
    if (buckets_[bucket].hash == hash &&
        SameBytes(KeyBytes(slots_[buckets_[bucket].slot]), key)) {
      return bucket;
    }
  }
  return kNoSlot;
}

size_t Table::FindBucket(const Value& key) const {
  return FindBucket(Encode(key));
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

Table::Bytes Table::CopyToSlab(Bytes bytes) {
  if (copy_block_ == kNoSlot ||
      blocks_[copy_block_].capacity() - blocks_[copy_block_].size() <
          bytes.size()) {
    copy_block_ = blocks_.size();
    blocks_.emplace_back().reserve(std::max(kCopyBlockBytes, bytes.size()));
  }
  // Within its reserved capacity the block never reallocates.
  std::vector<uint8_t>& block = blocks_[copy_block_];
  const size_t offset = block.size();
  block.insert(block.end(), bytes.begin(), bytes.end());
  return Bytes(block).subspan(offset, bytes.size());
}

void Table::MaybeCompact() {
  if (dead_bytes_ < kCopyBlockBytes || dead_bytes_ <= live_bytes_) return;
  // The old blocks stay alive until every live row is copied out of them.
  std::vector<std::vector<uint8_t>> old = std::exchange(blocks_, {});
  copy_block_ = kNoSlot;
  for (Bytes& row : slots_) {
    if (!row.empty()) row = CopyToSlab(row);
  }
  dead_bytes_ = 0;
}

uint64_t Table::KeyHash(Bytes row) const { return HashKey(KeyBytes(row)); }

void Table::Put(Bytes row, uint64_t hash) {
  ReserveIndex(live_count_ + 1);
  // One probe run finds either the key (upsert) or the free bucket the new
  // row's slot goes into; keys are read only on a hash match.
  const size_t mask = buckets_.size() - 1;
  size_t bucket = hash & mask;
  for (; buckets_[bucket].slot != kNoSlot; bucket = (bucket + 1) & mask) {
    const size_t slot = buckets_[bucket].slot;
    if (buckets_[bucket].hash == hash &&
        SameBytes(KeyBytes(slots_[slot]), KeyBytes(row))) {
      // Upsert: the slot keeps its place and takes the new bytes, fixing
      // secondary index entries.
      UnindexRow(slot);
      live_bytes_ -= slots_[slot].size();
      dead_bytes_ += slots_[slot].size();
      slots_[slot] = row;
      live_bytes_ += row.size();
      IndexRow(slot);
      return;
    }
  }
  const size_t slot = slots_.size();
  buckets_[bucket] = {hash, slot};
  slots_.push_back(row);
  ++live_count_;
  live_bytes_ += row.size();
  IndexRow(slot);
}

Status Table::Insert(const Row& row) {
  SCD_RETURN_IF_ERROR(ValidateRow(row));
  ByteWriter writer;
  for (const Value& value : row) value.EncodeTo(&writer);
  const Bytes bytes = CopyToSlab(writer.data());
  Put(bytes, KeyHash(bytes));
  BumpVersion();
  MaybeCompact();
  return Status::OK();
}

void Table::InsertEncoded(EncodedRows rows) {
  if (rows.rows.empty()) return;
  // With room for every row reserved up front, no Put below grows the
  // bucket array, so the mask stays and a bucket can be fetched ahead.
  ReserveAdditional(rows.rows.size());
  const size_t mask = buckets_.size() - 1;
  // A large buffer becomes a slab block as it is (moving it keeps its bytes
  // where they are); a small one's rows are copied to the copy block, so
  // single-row inserts do not leave a heap block each.
  const bool adopt = rows.bytes.size() >= kAdoptBytes;
  const Bytes bytes =
      adopt ? Bytes(blocks_.emplace_back(std::move(rows.bytes))) : rows.bytes;
  const std::vector<EncodedRows::Span>& spans = rows.rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i + kPrefetchRows < spans.size()) {
      __builtin_prefetch(&buckets_[spans[i + kPrefetchRows].key_hash & mask]);
    }
    const Bytes row = bytes.subspan(spans[i].offset, spans[i].size);
    Put(adopt ? row : CopyToSlab(row), spans[i].key_hash);
  }
  BumpVersion();
  MaybeCompact();
}

void Table::ReserveAdditional(size_t additional) {
  ReserveGeometric(&slots_, slots_.size() + additional);
  ReserveIndex(live_count_ + additional);
}

Status Table::CreateIndex(std::string_view column) {
  SCD_RETURN_IF_ERROR(schema_.AddSecondaryIndex(column));
  size_t index = schema_.ColumnIndex(column).ValueOrDie();
  auto& entries = secondary_[index];
  for (const Bytes row : slots_) {
    if (row.empty()) continue;
    const Value value = DecodeColumn(row, index);
    if (!value.is_null()) {
      WriteIndexEntry(&entries, value, DecodeColumn(row, pk_index_));
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
  live_bytes_ -= slots_[slot].size();
  dead_bytes_ += slots_[slot].size();
  slots_[slot] = {};
  --live_count_;
  BumpVersion();
  MaybeCompact();
  return Status::OK();
}

Result<Row> Table::GetByPk(const Value& key) const {
  const size_t bucket = FindBucket(key);
  if (bucket == kNoSlot) {
    return Status::NotFound("no row with primary key " + key.ToCqlLiteral() +
                            " in " + schema_.QualifiedName());
  }
  return DecodeRow(slots_[buckets_[bucket].slot]);
}

Status Table::SelectEq(std::string_view column, const Value& value,
                       bool allow_filtering,
                       const std::function<Status(const Row&)>& visit) const {
  SCD_ASSIGN_OR_RETURN(size_t index, schema_.ColumnIndex(column));
  Row row;
  auto visit_slot = [&](size_t slot) {
    DecodeRow(slots_[slot], &row);
    return visit(row);
  };
  if (index == pk_index_) {
    const size_t bucket = FindBucket(value);
    return bucket == kNoSlot ? Status::OK() : visit_slot(buckets_[bucket].slot);
  }
  auto secondary_it = secondary_.find(index);
  if (secondary_it != secondary_.end()) {
    auto [begin, end] = secondary_it->second.equal_range(value);
    for (auto it = begin; it != end; ++it) {
      // Resolve the index entry through the base table (Cassandra's 2i read
      // path: index hit, then base-row fetch by primary key).
      const size_t base = FindBucket(it->second[1]);
      if (base != kNoSlot) SCD_RETURN_IF_ERROR(visit_slot(buckets_[base].slot));
    }
    return Status::OK();
  }
  if (!allow_filtering) {
    return Status::FailedPrecondition(
        "column '" + std::string(column) + "' of " + schema_.QualifiedName() +
        " has no index; use ALLOW FILTERING to scan");
  }
  // Equal values have equal encodings, so the filter compares bytes.
  const std::vector<uint8_t> wanted = Encode(value);
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    if (!slots_[slot].empty() &&
        SameBytes(ColumnBytes(slots_[slot], index), wanted)) {
      SCD_RETURN_IF_ERROR(visit_slot(slot));
    }
  }
  return Status::OK();
}

Result<std::vector<Row>> Table::SelectEq(std::string_view column,
                                         const Value& value,
                                         bool allow_filtering) const {
  std::vector<Row> rows;
  SCD_RETURN_IF_ERROR(SelectEq(column, value, allow_filtering,
                               [&rows](const Row& row) {
                                 rows.push_back(row);
                                 return Status::OK();
                               }));
  return rows;
}

std::vector<Row> Table::ScanAll() const {
  std::vector<Row> result;
  result.reserve(live_count_);
  for (const Bytes row : slots_) {
    if (!row.empty()) result.push_back(DecodeRow(row));
  }
  return result;
}

std::vector<Value> Table::ScanColumn(size_t index) const {
  SCD_CHECK_LT(index, schema_.num_columns());
  std::vector<Value> result;
  result.reserve(live_count_);
  for (const Bytes row : slots_) {
    if (!row.empty()) result.push_back(DecodeColumn(row, index));
  }
  return result;
}

uint64_t Table::memtable_bytes() const {
  uint64_t bytes = 0;
  for (const std::vector<uint8_t>& block : blocks_) bytes += block.capacity();
  return bytes;
}

void Table::SerializeTo(ByteWriter* writer) const {
  writer->PutU32(kSegmentMagic);
  writer->PutU8(kSegmentVersion);
  schema_.EncodeTo(writer);
  writer->PutVarint(live_count_);
  for (const Bytes row : slots_) {
    if (!row.empty()) writer->PutRaw(row.data(), row.size());
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
  ByteWriter scratch;
  schema_.EncodeTo(&scratch);
  uint64_t bytes = sizeof(kSegmentMagic) + sizeof(kSegmentVersion) +
                   scratch.size() + VarintLength(live_count_) + live_bytes_ +
                   VarintLength(secondary_.size());
  for (const auto& [column, entries] : secondary_) {
    bytes += VarintLength(column) + VarintLength(entries.size());
    for (const auto& [value, entry] : entries) {
      scratch.Clear();
      value.EncodeTo(&scratch);
      entry[1].EncodeTo(&scratch);
      bytes += scratch.size();
    }
  }
  return bytes;
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
  // Each row is decoded, so a corrupt one fails here, and Insert checks it
  // and keeps its encoding: the bytes SerializeTo wrote, and one encoding
  // per key even where a damaged file spells a value another way.
  Row row;
  for (uint64_t r = 0; r < num_rows; ++r) {
    row.clear();
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      SCD_ASSIGN_OR_RETURN(Value value, Value::DecodeFrom(reader));
      row.push_back(std::move(value));
    }
    SCD_RETURN_IF_ERROR(table->Insert(row));
  }
  // Index blocks were rebuilt by Insert; skip the persisted copies.
  SCD_ASSIGN_OR_RETURN(uint64_t num_indexes, reader->ReadVarint());
  for (uint64_t i = 0; i < num_indexes; ++i) {
    SCD_ASSIGN_OR_RETURN(uint64_t column, reader->ReadVarint());
    (void)column;
    SCD_ASSIGN_OR_RETURN(uint64_t num_entries, reader->ReadVarint());
    for (uint64_t e = 0; e < num_entries; ++e) {
      SCD_RETURN_IF_ERROR(Value::SkipEncoded(reader));
      SCD_RETURN_IF_ERROR(Value::SkipEncoded(reader));
    }
  }
  return table;
}

}  // namespace scdwarf::nosql
