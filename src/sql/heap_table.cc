#include "sql/heap_table.h"

#include "common/logging.h"

namespace scdwarf::sql {

namespace {

constexpr uint32_t kTablespaceMagic = 0x4C425453;  // "STBL"
constexpr uint8_t kTablespaceVersion = 1;

/// Accumulates fixed-size page images: [u32 record count][records][padding].
/// Records never straddle pages, like InnoDB's compact rows.
class PageWriter {
 public:
  explicit PageWriter(ByteWriter* out) : out_(out) {}

  /// Appends one record (pre-rendered bytes incl. header placeholders).
  void Append(const std::vector<uint8_t>& record) {
    if (!body_.empty() &&
        sizeof(uint32_t) + body_.size() + record.size() >
            InnoDbFormat::kPagePayloadBytes) {
      FlushPage();
    }
    body_.insert(body_.end(), record.begin(), record.end());
    ++count_;
  }

  void Finish() {
    if (!body_.empty()) FlushPage();
  }

 private:
  void FlushPage() {
    out_->PutU32(count_);
    out_->PutRaw(body_.data(), body_.size());
    size_t used = sizeof(uint32_t) + body_.size();
    // A record larger than the payload area spills into an oversized page
    // (InnoDB would chain overflow pages; the byte count is equivalent).
    if (used < InnoDbFormat::kPageBytes) {
      std::vector<uint8_t> padding(InnoDbFormat::kPageBytes - used, 0);
      out_->PutRaw(padding.data(), padding.size());
    }
    body_.clear();
    count_ = 0;
  }

  ByteWriter* out_;
  std::vector<uint8_t> body_;
  uint32_t count_ = 0;
};

/// Reads records back from PageWriter output.
class PageReader {
 public:
  explicit PageReader(ByteReader* in) : in_(in) {}

  /// Positions the reader at the next record, crossing page boundaries and
  /// skipping padding as needed. Call exactly once per serialized record.
  Status NextRecord() {
    if (records_left_ == 0) {
      SCD_RETURN_IF_ERROR(SkipPadding());
      page_start_ = in_->offset();
      SCD_ASSIGN_OR_RETURN(records_left_, in_->ReadU32());
      if (records_left_ == 0) {
        return Status::ParseError("empty page in tablespace");
      }
    }
    --records_left_;
    return Status::OK();
  }

  /// Skips trailing padding after the last record of the final page.
  Status FinishPages() {
    records_left_ = 0;
    return SkipPadding();
  }

 private:
  Status SkipPadding() {
    if (!in_page_) {
      in_page_ = true;
      return Status::OK();
    }
    size_t consumed = in_->offset() - page_start_;
    if (consumed >= InnoDbFormat::kPageBytes) return Status::OK();  // oversized
    size_t skip = InnoDbFormat::kPageBytes - consumed;
    for (size_t i = 0; i < skip; ++i) {
      SCD_RETURN_IF_ERROR(in_->ReadU8().status());
    }
    return Status::OK();
  }

  ByteReader* in_;
  size_t page_start_ = 0;
  uint32_t records_left_ = 0;
  bool in_page_ = false;
};

}  // namespace

HeapTable::HeapTable(SqlTableDef def) : def_(std::move(def)) {
  SCD_CHECK(def_.Validate().ok()) << "invalid definition passed to HeapTable";
  pk_index_ = def_.PrimaryKeyIndex();
  for (size_t index : def_.secondary_indexes()) {
    secondary_.emplace(index, std::multimap<Value, Value>{});
  }
}

Status HeapTable::ValidateRow(const SqlRow& row) const {
  if (row.size() != def_.num_columns()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, " +
        def_.QualifiedName() + " has " + std::to_string(def_.num_columns()) +
        " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const SqlColumn& column = def_.columns()[i];
    if (row[i].is_null()) {
      if (!column.nullable) {
        return Status::InvalidArgument("column '" + column.name +
                                       "' is NOT NULL");
      }
      continue;
    }
    if (!row[i].MatchesType(column.type)) {
      return Status::InvalidArgument(
          "value " + row[i].ToCqlLiteral() + " does not match type " +
          DataTypeName(column.type) + " of column '" + column.name + "'");
    }
  }
  if (row[pk_index_].is_null()) {
    return Status::InvalidArgument("primary key must not be null");
  }
  return Status::OK();
}

Status HeapTable::Insert(SqlRow row) {
  SCD_RETURN_IF_ERROR(ValidateRow(row));
  return InsertValidated(std::move(row)).status();
}

Result<HeapTable::RowMap::iterator> HeapTable::InsertValidated(SqlRow row) {
  Value key = row[pk_index_];
  auto [it, inserted] = rows_.emplace(std::move(key), std::move(row));
  if (!inserted) {
    return Status::AlreadyExists("duplicate primary key " +
                                 it->first.ToCqlLiteral() + " in " +
                                 def_.QualifiedName());
  }
  const SqlRow& stored = it->second;
  // InnoDB constructs the physical (compact-format) record when the row is
  // inserted into its clustered-index page, not at flush time; build it here
  // so insert pays the same formatting cost and page-fill accounting stays
  // exact.
  record_scratch_.Clear();
  for (const Value& value : stored) value.EncodeTo(&record_scratch_);
  data_bytes_ += record_scratch_.size() + InnoDbFormat::kRecordHeaderBytes +
                 InnoDbFormat::kTrxMetaBytes;
  // Copy the record into the buffer-pool page image (page-format storage).
  buffer_pool_.insert(buffer_pool_.end(),
                      InnoDbFormat::kRecordHeaderBytes +
                          InnoDbFormat::kTrxMetaBytes,
                      0);
  buffer_pool_.insert(buffer_pool_.end(), record_scratch_.data().begin(),
                      record_scratch_.data().end());
  // Insert undo record (type + table id + primary key) for rollback.
  for (size_t i = 0; i < InnoDbFormat::kUndoHeaderBytes; ++i) {
    undo_log_.PutU8(0);
  }
  it->first.EncodeTo(&undo_log_);
  for (auto& [column, index] : secondary_) {
    index.emplace(stored[column], it->first);
  }
  return it;
}

Status HeapTable::InsertAll(std::vector<SqlRow> rows,
                            const std::function<Status()>& commit) {
  std::vector<RowMap::iterator> inserted;
  inserted.reserve(rows.size());
  Status status;
  for (SqlRow& row : rows) {
    Result<RowMap::iterator> it = InsertValidated(std::move(row));
    if (!it.ok()) {
      status = it.status();
      break;
    }
    inserted.push_back(*it);
  }
  if (status.ok()) status = commit();
  if (!status.ok()) {
    // Newest first: each secondary entry is then the last of its run.
    for (auto it = inserted.rbegin(); it != inserted.rend(); ++it) {
      EraseRow(*it);
    }
  }
  return status;
}

void HeapTable::EraseRow(RowMap::iterator row) {
  for (auto& [column, index] : secondary_) {
    auto [begin, end] = index.equal_range(row->second[column]);
    while (end != begin) {
      if ((--end)->second == row->first) {
        index.erase(end);
        break;
      }
    }
  }
  rows_.erase(row);
}

Status HeapTable::DeleteByPk(const Value& key) {
  auto it = rows_.find(key);
  if (it == rows_.end()) {
    return Status::NotFound("no row with primary key " + key.ToCqlLiteral() +
                            " in " + def_.QualifiedName());
  }
  // Delete undo record (type + table id + pk), like the insert path.
  for (size_t i = 0; i < InnoDbFormat::kUndoHeaderBytes; ++i) {
    undo_log_.PutU8(0);
  }
  key.EncodeTo(&undo_log_);
  EraseRow(it);
  return Status::OK();
}

Result<const SqlRow*> HeapTable::GetByPk(const Value& key) const {
  auto it = rows_.find(key);
  if (it == rows_.end()) {
    return Status::NotFound("no row with primary key " + key.ToCqlLiteral() +
                            " in " + def_.QualifiedName());
  }
  return &it->second;
}

Result<std::vector<const SqlRow*>> HeapTable::SelectEq(
    std::string_view column, const Value& value) const {
  SCD_ASSIGN_OR_RETURN(size_t index, def_.ColumnIndex(column));
  std::vector<const SqlRow*> result;
  if (index == pk_index_) {
    auto row = GetByPk(value);
    if (row.ok()) result.push_back(*row);
    return result;
  }
  auto secondary_it = secondary_.find(index);
  if (secondary_it != secondary_.end()) {
    auto [begin, end] = secondary_it->second.equal_range(value);
    for (auto it = begin; it != end; ++it) {
      result.push_back(&rows_.find(it->second)->second);
    }
    return result;
  }
  for (const auto& [key, row] : rows_) {
    if (row[index] == value) result.push_back(&row);
  }
  return result;
}

std::vector<const SqlRow*> HeapTable::ScanAll() const {
  std::vector<const SqlRow*> result;
  result.reserve(rows_.size());
  for (const auto& [key, row] : rows_) result.push_back(&row);
  return result;
}

Status HeapTable::CreateIndex(std::string_view column) {
  SCD_RETURN_IF_ERROR(def_.AddSecondaryIndex(column));
  size_t index = def_.ColumnIndex(column).ValueOrDie();
  auto& entries = secondary_[index];
  for (const auto& [key, row] : rows_) entries.emplace(row[index], key);
  return Status::OK();
}

void HeapTable::SerializeTo(ByteWriter* writer) const {
  writer->PutU32(kTablespaceMagic);
  writer->PutU8(kTablespaceVersion);
  def_.EncodeTo(writer);
  writer->PutVarint(rows_.size());

  // Clustered index pages: rows in PK order, each carrying the InnoDB
  // record header and transaction metadata placeholders.
  if (!rows_.empty()) {
    PageWriter pages(writer);
    std::vector<uint8_t> record;
    for (const auto& [key, row] : rows_) {
      record.assign(
          InnoDbFormat::kRecordHeaderBytes + InnoDbFormat::kTrxMetaBytes, 0);
      ByteWriter values;
      for (const Value& value : row) value.EncodeTo(&values);
      record.insert(record.end(), values.data().begin(), values.data().end());
      pages.Append(record);
    }
    pages.Finish();
  }

  // Secondary index pages: (value, pk) entries with record headers.
  writer->PutVarint(secondary_.size());
  for (const auto& [column, entries] : secondary_) {
    writer->PutVarint(column);
    writer->PutVarint(entries.size());
    if (entries.empty()) continue;
    PageWriter pages(writer);
    std::vector<uint8_t> record;
    for (const auto& [value, pk] : entries) {
      record.assign(InnoDbFormat::kIndexEntryOverheadBytes, 0);
      ByteWriter values;
      value.EncodeTo(&values);
      pk.EncodeTo(&values);
      record.insert(record.end(), values.data().begin(), values.data().end());
      pages.Append(record);
    }
    pages.Finish();
  }
}

uint64_t HeapTable::EstimateTablespaceBytes() const {
  ByteWriter writer;
  SerializeTo(&writer);
  return writer.size();
}

Result<std::unique_ptr<HeapTable>> HeapTable::Deserialize(ByteReader* reader) {
  SCD_ASSIGN_OR_RETURN(uint32_t magic, reader->ReadU32());
  if (magic != kTablespaceMagic) {
    return Status::ParseError("bad tablespace magic");
  }
  SCD_ASSIGN_OR_RETURN(uint8_t version, reader->ReadU8());
  if (version != kTablespaceVersion) {
    return Status::ParseError("unsupported tablespace version");
  }
  SCD_ASSIGN_OR_RETURN(SqlTableDef def, SqlTableDef::DecodeFrom(reader));
  auto table = std::make_unique<HeapTable>(def);
  SCD_ASSIGN_OR_RETURN(uint64_t num_rows, reader->ReadVarint());

  if (num_rows > 0) {
    PageReader pages(reader);
    for (uint64_t r = 0; r < num_rows; ++r) {
      SCD_RETURN_IF_ERROR(pages.NextRecord());
      for (size_t i = 0;
           i < InnoDbFormat::kRecordHeaderBytes + InnoDbFormat::kTrxMetaBytes;
           ++i) {
        SCD_RETURN_IF_ERROR(reader->ReadU8().status());
      }
      SqlRow row;
      row.reserve(def.num_columns());
      for (size_t c = 0; c < def.num_columns(); ++c) {
        SCD_ASSIGN_OR_RETURN(Value value, Value::DecodeFrom(reader));
        row.push_back(std::move(value));
      }
      SCD_RETURN_IF_ERROR(table->Insert(std::move(row)));
    }
    SCD_RETURN_IF_ERROR(pages.FinishPages());
  }

  // Secondary index blocks are rebuilt from rows on Insert; skip the pages.
  SCD_ASSIGN_OR_RETURN(uint64_t num_indexes, reader->ReadVarint());
  for (uint64_t i = 0; i < num_indexes; ++i) {
    SCD_RETURN_IF_ERROR(reader->ReadVarint().status());  // column
    SCD_ASSIGN_OR_RETURN(uint64_t num_entries, reader->ReadVarint());
    if (num_entries == 0) continue;
    PageReader pages(reader);
    for (uint64_t e = 0; e < num_entries; ++e) {
      SCD_RETURN_IF_ERROR(pages.NextRecord());
      for (size_t b = 0; b < InnoDbFormat::kIndexEntryOverheadBytes; ++b) {
        SCD_RETURN_IF_ERROR(reader->ReadU8().status());
      }
      SCD_RETURN_IF_ERROR(Value::DecodeFrom(reader).status());
      SCD_RETURN_IF_ERROR(Value::DecodeFrom(reader).status());
    }
    SCD_RETURN_IF_ERROR(pages.FinishPages());
  }
  return table;
}

}  // namespace scdwarf::sql
