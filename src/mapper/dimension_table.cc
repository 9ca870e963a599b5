#include "mapper/dimension_table.h"

#include <cctype>
#include <iterator>

#include "common/strings.h"

namespace scdwarf::mapper {

Status DimensionTable::AddRow(const std::string& member,
                              std::vector<Value> attributes) {
  if (attributes.size() != attribute_names_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(attributes.size()) + " attributes, table '" +
        name_ + "' has " + std::to_string(attribute_names_.size()));
  }
  for (const std::string& existing : members_) {
    if (existing == member) {
      return Status::AlreadyExists("member '" + member +
                                   "' already in dimension table '" + name_ +
                                   "'");
    }
  }
  members_.push_back(member);
  rows_.push_back(std::move(attributes));
  return Status::OK();
}

Result<std::vector<Value>> DimensionTable::Lookup(
    const std::string& member) const {
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == member) return rows_[i];
  }
  return Status::NotFound("member '" + member + "' not in dimension table '" +
                          name_ + "'");
}

Result<Value> DimensionTable::LookupAttribute(const std::string& member,
                                              const std::string& attribute) const {
  SCD_ASSIGN_OR_RETURN(std::vector<Value> row, Lookup(member));
  for (size_t i = 0; i < attribute_names_.size(); ++i) {
    if (attribute_names_[i] == attribute) return row[i];
  }
  return Status::NotFound("dimension table '" + name_ + "' has no attribute '" +
                          attribute + "'");
}

std::string DimensionTableStore::ColumnFamilyName(const std::string& table_name) {
  std::string out = "dim_";
  for (char c : table_name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else {
      out.push_back('_');
    }
  }
  return out;
}

namespace {

/// Infers a column's type from the rows; all non-null values must agree.
Result<DataType> InferType(const DimensionTable& table, size_t column) {
  DataType type = DataType::kText;
  bool seen = false;
  for (const std::string& member : table.members()) {
    auto row = table.Lookup(member);
    const Value& value = (*row)[column];
    if (value.is_null()) continue;
    DataType this_type = value.is_int()      ? DataType::kBigint
                         : value.is_bool()   ? DataType::kBool
                         : value.is_text()   ? DataType::kText
                                             : DataType::kIntSet;
    if (seen && this_type != type) {
      return Status::InvalidArgument(
          "attribute '" + table.attribute_names()[column] +
          "' mixes value types");
    }
    type = this_type;
    seen = true;
  }
  return type;
}

}  // namespace

Status DimensionTableStore::Store(const DimensionTable& table) {
  if (!db_->HasKeyspace(keyspace_)) {
    SCD_RETURN_IF_ERROR(db_->CreateKeyspace(keyspace_));
  }
  std::string cf = ColumnFamilyName(table.name());
  std::vector<nosql::ColumnDef> columns = {{"member", DataType::kText}};
  for (size_t i = 0; i < table.attribute_names().size(); ++i) {
    SCD_ASSIGN_OR_RETURN(DataType type, InferType(table, i));
    columns.emplace_back(AsciiToLower(table.attribute_names()[i]), type);
  }
  nosql::TableSchema schema(keyspace_, cf, std::move(columns), "member");
  Status created = db_->CreateTable(schema);
  if (!created.ok() && !created.IsAlreadyExists()) return created;

  std::vector<nosql::Row> rows;
  for (const std::string& member : table.members()) {
    SCD_ASSIGN_OR_RETURN(std::vector<Value> attributes, table.Lookup(member));
    nosql::Row row;
    row.reserve(attributes.size() + 1);
    row.push_back(Value::Text(member));
    for (Value& value : attributes) row.push_back(std::move(value));
    rows.push_back(std::move(row));
  }
  return db_->BulkInsert(keyspace_, cf, std::move(rows));
}

Result<DimensionTable> DimensionTableStore::Load(const std::string& name) const {
  const nosql::Database* db = db_;
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const nosql::Table> table,
                       db->GetTable(keyspace_, ColumnFamilyName(name)));
  const nosql::TableSchema& schema = table->schema();
  std::vector<std::string> attribute_names;
  for (size_t i = 1; i < schema.num_columns(); ++i) {
    attribute_names.push_back(schema.columns()[i].name);
  }
  DimensionTable result(name, std::move(attribute_names));
  for (nosql::Row& row : table->ScanAll()) {
    SCD_ASSIGN_OR_RETURN(std::string member, row[0].AsText());
    std::vector<Value> attributes(std::make_move_iterator(row.begin() + 1),
                                  std::make_move_iterator(row.end()));
    SCD_RETURN_IF_ERROR(result.AddRow(member, std::move(attributes)));
  }
  return result;
}

Status DimensionTableStore::ValidateCoverage(const dwarf::DwarfCube& cube,
                                             size_t dim) const {
  if (dim >= cube.num_dimensions()) {
    return Status::OutOfRange("dimension index out of range");
  }
  const std::string& table_name =
      cube.schema().dimensions()[dim].dimension_table;
  if (table_name.empty()) {
    return Status::FailedPrecondition(
        "dimension '" + cube.schema().dimensions()[dim].name +
        "' declares no dimension table");
  }
  SCD_ASSIGN_OR_RETURN(DimensionTable table, Load(table_name));
  const dwarf::Dictionary& dictionary = cube.dictionary(dim);
  for (dwarf::DimKey id = 0; id < dictionary.size(); ++id) {
    const std::string& member = dictionary.DecodeUnchecked(id);
    if (!table.Lookup(member).ok()) {
      return Status::FailedPrecondition("dimension table '" + table_name +
                                        "' has no row for member '" + member +
                                        "'");
    }
  }
  return Status::OK();
}

}  // namespace scdwarf::mapper
