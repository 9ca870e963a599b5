#include "sql/sql.h"

#include <algorithm>
#include <unordered_map>

namespace scdwarf::sql {

namespace {

// ----------------------------------------------------------------- parser

class Parser : public TokenParser {
 public:
  explicit Parser(std::vector<Token> tokens)
      : TokenParser(std::move(tokens), "database", "db") {}

  Result<SqlStatement> ParseStatement() {
    SCD_ASSIGN_OR_RETURN(SqlStatement stmt, ParseStatementInner());
    ConsumeSymbol(";");
    if (!AtEnd()) return Error("trailing tokens after statement");
    return stmt;
  }

 private:
  Result<SqlStatement> ParseStatementInner() {
    if (ConsumeKeyword("create")) {
      if (ConsumeKeyword("database")) {
        SCD_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("database name"));
        return SqlStatement(SqlCreateDatabase{name});
      }
      if (ConsumeKeyword("table")) return ParseCreateTable();
      if (ConsumeKeyword("index")) return ParseCreateIndex();
      return Error("expected DATABASE, TABLE or INDEX after CREATE");
    }
    if (ConsumeKeyword("drop")) {
      if (!ConsumeKeyword("table")) return Error("expected TABLE after DROP");
      SqlDropTable stmt;
      SCD_RETURN_IF_ERROR(ParseQualifiedName(&stmt.database, &stmt.table));
      return SqlStatement(stmt);
    }
    if (ConsumeKeyword("insert")) return ParseInsert();
    if (ConsumeKeyword("select")) return ParseSelect();
    if (ConsumeKeyword("delete")) {
      if (!ConsumeKeyword("from")) return Error("expected FROM after DELETE");
      SqlDelete stmt;
      SCD_RETURN_IF_ERROR(ParseQualifiedName(&stmt.database, &stmt.table));
      if (!ConsumeKeyword("where")) return Error("DELETE requires WHERE");
      SCD_ASSIGN_OR_RETURN(stmt.column, ExpectIdentifier("column name"));
      if (!ConsumeSymbol("=")) return Error("expected '=' in DELETE");
      SCD_ASSIGN_OR_RETURN(stmt.key, ParseLiteral());
      return SqlStatement(stmt);
    }
    return Error("unrecognized statement");
  }

  Result<SqlStatement> ParseCreateTable() {
    std::string database, table;
    SCD_RETURN_IF_ERROR(ParseQualifiedName(&database, &table));
    if (!ConsumeSymbol("(")) return Error("expected '(' after table name");
    std::vector<SqlColumn> columns;
    std::string primary_key;
    std::vector<std::string> indexes;
    while (true) {
      if (ConsumeKeyword("primary")) {
        if (!ConsumeKeyword("key")) return Error("expected KEY after PRIMARY");
        if (!ConsumeSymbol("(")) return Error("expected '(' after PRIMARY KEY");
        SCD_ASSIGN_OR_RETURN(primary_key, ExpectIdentifier("key column"));
        if (!ConsumeSymbol(")")) return Error("expected ')'");
      } else if (ConsumeKeyword("index") || ConsumeKeyword("key")) {
        if (!ConsumeSymbol("(")) return Error("expected '(' after INDEX");
        SCD_ASSIGN_OR_RETURN(std::string column,
                             ExpectIdentifier("indexed column"));
        indexes.push_back(std::move(column));
        if (!ConsumeSymbol(")")) return Error("expected ')'");
      } else {
        SCD_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("column name"));
        SCD_ASSIGN_OR_RETURN(DataType type, ParseSqlType());
        bool nullable = true;
        if (ConsumeKeyword("not")) {
          if (!ConsumeKeyword("null")) return Error("expected NULL after NOT");
          nullable = false;
        } else {
          ConsumeKeyword("null");
        }
        columns.emplace_back(name, type, nullable);
      }
      if (ConsumeSymbol(",")) continue;
      if (ConsumeSymbol(")")) break;
      return Error("expected ',' or ')' in column list");
    }
    if (primary_key.empty()) return Error("missing PRIMARY KEY clause");
    SqlTableDef def(database, table, std::move(columns), primary_key);
    for (const std::string& column : indexes) {
      SCD_RETURN_IF_ERROR(def.AddSecondaryIndex(column));
    }
    SCD_RETURN_IF_ERROR(def.Validate());
    return SqlStatement(SqlCreateTable{std::move(def)});
  }

  Result<DataType> ParseSqlType() {
    SCD_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("type name"));
    if (name == "int" || name == "integer" || name == "smallint") {
      return DataType::kInt;
    }
    if (name == "bigint") return DataType::kBigint;
    if (name == "text") return DataType::kText;
    if (name == "varchar" || name == "char") {
      if (ConsumeSymbol("(")) {
        if (Peek().type != TokenType::kNumber) {
          return Error("expected length in VARCHAR(n)");
        }
        ++pos_;
        if (!ConsumeSymbol(")")) return Error("expected ')' after length");
      }
      return DataType::kText;
    }
    if (name == "bool" || name == "boolean") return DataType::kBool;
    if (name == "tinyint") {
      if (ConsumeSymbol("(")) {
        if (Peek().type != TokenType::kNumber) return Error("expected width");
        ++pos_;
        if (!ConsumeSymbol(")")) return Error("expected ')'");
      }
      return DataType::kBool;
    }
    return Error("unknown SQL type '" + name + "'");
  }

  Result<SqlStatement> ParseCreateIndex() {
    if (Peek().type == TokenType::kIdentifier && Peek().text != "on") ++pos_;
    if (!ConsumeKeyword("on")) return Error("expected ON in CREATE INDEX");
    SqlCreateIndex stmt;
    SCD_RETURN_IF_ERROR(ParseQualifiedName(&stmt.database, &stmt.table));
    if (!ConsumeSymbol("(")) return Error("expected '('");
    SCD_ASSIGN_OR_RETURN(stmt.column, ExpectIdentifier("indexed column"));
    if (!ConsumeSymbol(")")) return Error("expected ')'");
    return SqlStatement(stmt);
  }

  Result<SqlStatement> ParseInsert() {
    if (!ConsumeKeyword("into")) return Error("expected INTO after INSERT");
    SqlInsert stmt;
    SCD_RETURN_IF_ERROR(ParseQualifiedName(&stmt.database, &stmt.table));
    if (!ConsumeSymbol("(")) return Error("expected '(' after table name");
    while (true) {
      SCD_ASSIGN_OR_RETURN(std::string column, ExpectIdentifier("column name"));
      if (std::find(stmt.columns.begin(), stmt.columns.end(), column) !=
          stmt.columns.end()) {
        return Error("column '" + column + "' is named twice in INSERT");
      }
      stmt.columns.push_back(std::move(column));
      if (ConsumeSymbol(",")) continue;
      if (ConsumeSymbol(")")) break;
      return Error("expected ',' or ')' in column list");
    }
    if (!ConsumeKeyword("values")) return Error("expected VALUES");
    while (true) {
      if (!ConsumeSymbol("(")) return Error("expected '(' before value list");
      SqlRow values;
      while (true) {
        SCD_ASSIGN_OR_RETURN(Value value, ParseLiteral());
        values.push_back(std::move(value));
        if (ConsumeSymbol(",")) continue;
        if (ConsumeSymbol(")")) break;
        return Error("expected ',' or ')' in value list");
      }
      if (values.size() != stmt.columns.size()) {
        return Error("column/value count mismatch in INSERT");
      }
      stmt.value_lists.push_back(std::move(values));
      if (!ConsumeSymbol(",")) break;
    }
    return SqlStatement(stmt);
  }

  Result<SqlStatement> ParseSelect() {
    SqlSelect stmt;
    if (!ConsumeSymbol("*")) {
      while (true) {
        SCD_ASSIGN_OR_RETURN(SqlColumnRef ref, ParseColumnRef());
        stmt.items.push_back(std::move(ref));
        if (!ConsumeSymbol(",")) break;
      }
    }
    if (!ConsumeKeyword("from")) return Error("expected FROM");
    SCD_RETURN_IF_ERROR(ParseQualifiedName(&stmt.database, &stmt.table));
    bool has_join = ConsumeKeyword("join");
    if (!has_join && ConsumeKeyword("inner")) {
      if (!ConsumeKeyword("join")) return Error("expected JOIN after INNER");
      has_join = true;
    }
    if (has_join) {
      std::string join_db, join_table;
      SCD_RETURN_IF_ERROR(ParseQualifiedName(&join_db, &join_table));
      if (join_db != stmt.database) {
        return Error("cross-database joins are not supported");
      }
      stmt.join_table = join_table;
      if (!ConsumeKeyword("on")) return Error("expected ON after JOIN");
      SCD_ASSIGN_OR_RETURN(stmt.join_left, ParseColumnRef());
      if (!ConsumeSymbol("=")) return Error("expected '=' in join condition");
      SCD_ASSIGN_OR_RETURN(stmt.join_right, ParseColumnRef());
    }
    if (ConsumeKeyword("where")) {
      while (true) {
        SCD_ASSIGN_OR_RETURN(SqlColumnRef ref, ParseColumnRef());
        if (!ConsumeSymbol("=")) {
          return Error("only equality predicates supported");
        }
        SCD_ASSIGN_OR_RETURN(Value value, ParseLiteral());
        stmt.where.emplace_back(std::move(ref), std::move(value));
        if (!ConsumeKeyword("and")) break;
      }
    }
    return SqlStatement(stmt);
  }

  Result<SqlColumnRef> ParseColumnRef() {
    SCD_ASSIGN_OR_RETURN(std::string first, ExpectIdentifier("column name"));
    SqlColumnRef ref;
    if (ConsumeSymbol(".")) {
      SCD_ASSIGN_OR_RETURN(std::string second, ExpectIdentifier("column name"));
      ref.table = std::move(first);
      ref.column = std::move(second);
    } else {
      ref.column = std::move(first);
    }
    return ref;
  }
};

// --------------------------------------------------------------- executor

/// Column binding of a (possibly joined) result: table name + schema column.
struct BoundColumn {
  std::string table;
  std::string column;
  size_t offset;  // position in the combined row
};

Result<size_t> ResolveRef(const std::vector<BoundColumn>& bindings,
                          const SqlColumnRef& ref) {
  const BoundColumn* found = nullptr;
  for (const BoundColumn& binding : bindings) {
    if (binding.column != ref.column) continue;
    if (!ref.table.empty() && binding.table != ref.table) continue;
    if (found != nullptr) {
      return Status::InvalidArgument("ambiguous column reference '" +
                                     ref.ToString() + "'");
    }
    found = &binding;
  }
  if (found == nullptr) {
    return Status::NotFound("unknown column '" + ref.ToString() + "'");
  }
  return found->offset;
}

Result<SqlResult> ExecuteSelect(SqlEngine* engine, const SqlSelect& stmt) {
  const SqlEngine* const_engine = engine;
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const HeapTable> left,
                       const_engine->GetTable(stmt.database, stmt.table));

  // Build bindings and the combined row stream.
  std::vector<BoundColumn> bindings;
  size_t offset = 0;
  for (const SqlColumn& column : left->def().columns()) {
    bindings.push_back({stmt.table, column.name, offset++});
  }

  std::vector<SqlRow> combined;
  if (!stmt.join_table.has_value()) {
    for (const SqlRow* row : left->ScanAll()) combined.push_back(*row);
  } else {
    SCD_ASSIGN_OR_RETURN(
        std::shared_ptr<const HeapTable> right,
        const_engine->GetTable(stmt.database, *stmt.join_table));
    for (const SqlColumn& column : right->def().columns()) {
      bindings.push_back({*stmt.join_table, column.name, offset++});
    }
    // Resolve join keys against each side.
    auto resolve_side =
        [&](const SqlColumnRef& ref) -> Result<std::pair<bool, size_t>> {
      // Returns (is_left, column index within that table).
      if (ref.table == stmt.table || ref.table.empty()) {
        auto index = left->def().ColumnIndex(ref.column);
        if (index.ok()) return std::make_pair(true, *index);
      }
      if (ref.table == *stmt.join_table || ref.table.empty()) {
        auto index = right->def().ColumnIndex(ref.column);
        if (index.ok()) return std::make_pair(false, *index);
      }
      return Status::NotFound("join column '" + ref.ToString() +
                              "' not found");
    };
    SCD_ASSIGN_OR_RETURN(auto left_key, resolve_side(stmt.join_left));
    SCD_ASSIGN_OR_RETURN(auto right_key, resolve_side(stmt.join_right));
    if (left_key.first == right_key.first) {
      return Status::InvalidArgument(
          "join condition must reference both tables");
    }
    size_t left_col = left_key.first ? left_key.second : right_key.second;
    size_t right_col = left_key.first ? right_key.second : left_key.second;

    // Hash join: build on the right side.
    std::unordered_multimap<Value, const SqlRow*, ValueHash> build;
    for (const SqlRow* row : right->ScanAll()) {
      build.emplace((*row)[right_col], row);
    }
    for (const SqlRow* row : left->ScanAll()) {
      auto [begin, end] = build.equal_range((*row)[left_col]);
      for (auto it = begin; it != end; ++it) {
        SqlRow joined = *row;
        joined.insert(joined.end(), it->second->begin(), it->second->end());
        combined.push_back(std::move(joined));
      }
    }
  }

  // WHERE filtering.
  for (const auto& [ref, value] : stmt.where) {
    SCD_ASSIGN_OR_RETURN(size_t index, ResolveRef(bindings, ref));
    std::vector<SqlRow> filtered;
    for (SqlRow& row : combined) {
      if (row[index] == value) filtered.push_back(std::move(row));
    }
    combined = std::move(filtered);
  }

  // Projection.
  SqlResult result;
  std::vector<size_t> projection;
  if (stmt.items.empty()) {
    for (const BoundColumn& binding : bindings) {
      projection.push_back(binding.offset);
      result.columns.push_back(stmt.join_table.has_value()
                                   ? binding.table + "." + binding.column
                                   : binding.column);
    }
  } else {
    for (const SqlColumnRef& ref : stmt.items) {
      SCD_ASSIGN_OR_RETURN(size_t index, ResolveRef(bindings, ref));
      projection.push_back(index);
      result.columns.push_back(ref.ToString());
    }
  }
  result.rows.reserve(combined.size());
  for (const SqlRow& row : combined) {
    SqlRow projected;
    projected.reserve(projection.size());
    for (size_t index : projection) projected.push_back(row[index]);
    result.rows.push_back(std::move(projected));
  }
  return result;
}

}  // namespace

Result<SqlStatement> ParseSql(std::string_view input) {
  // No '{': the relational subset has no set literals.
  SCD_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                       Tokenize(input, "(),.=;*", "SQL"));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<SqlResult> ExecuteSqlStatement(SqlEngine* engine,
                                      const SqlStatement& statement) {
  if (const auto* stmt = std::get_if<SqlCreateDatabase>(&statement)) {
    SCD_RETURN_IF_ERROR(engine->CreateDatabase(stmt->database));
    return SqlResult{};
  }
  if (const auto* stmt = std::get_if<SqlCreateTable>(&statement)) {
    SCD_RETURN_IF_ERROR(engine->CreateTable(stmt->def));
    return SqlResult{};
  }
  if (const auto* stmt = std::get_if<SqlCreateIndex>(&statement)) {
    SCD_RETURN_IF_ERROR(
        engine->CreateIndex(stmt->database, stmt->table, stmt->column));
    return SqlResult{};
  }
  if (const auto* stmt = std::get_if<SqlDropTable>(&statement)) {
    SCD_RETURN_IF_ERROR(engine->DropTable(stmt->database, stmt->table));
    return SqlResult{};
  }
  if (const auto* stmt = std::get_if<SqlInsert>(&statement)) {
    SCD_ASSIGN_OR_RETURN(std::shared_ptr<const HeapTable> table,
                         static_cast<const SqlEngine*>(engine)->GetTable(
                             stmt->database, stmt->table));
    const SqlTableDef& def = table->def();
    std::vector<SqlRow> rows;
    rows.reserve(stmt->value_lists.size());
    for (const SqlRow& values : stmt->value_lists) {
      SqlRow row(def.num_columns(), Value::Null());
      for (size_t i = 0; i < stmt->columns.size(); ++i) {
        SCD_ASSIGN_OR_RETURN(size_t index, def.ColumnIndex(stmt->columns[i]));
        row[index] = values[i];
      }
      rows.push_back(std::move(row));
    }
    SCD_RETURN_IF_ERROR(
        engine->BulkInsert(stmt->database, stmt->table, std::move(rows)));
    return SqlResult{};
  }
  if (const auto* stmt = std::get_if<SqlSelect>(&statement)) {
    return ExecuteSelect(engine, *stmt);
  }
  if (const auto* stmt = std::get_if<SqlDelete>(&statement)) {
    SCD_ASSIGN_OR_RETURN(std::shared_ptr<const HeapTable> table,
                         static_cast<const SqlEngine*>(engine)->GetTable(
                             stmt->database, stmt->table));
    std::vector<Value> keys;
    if (table->def().primary_key() == stmt->column) {
      keys.push_back(stmt->key);
    } else {
      SCD_ASSIGN_OR_RETURN(std::vector<const SqlRow*> rows,
                           table->SelectEq(stmt->column, stmt->key));
      size_t pk = table->def().PrimaryKeyIndex();
      for (const SqlRow* row : rows) keys.push_back((*row)[pk]);
    }
    SCD_RETURN_IF_ERROR(engine->BulkDelete(stmt->database, stmt->table, keys));
    return SqlResult{};
  }
  return Status::Internal("unhandled SQL statement variant");
}

Result<SqlResult> ExecuteSql(SqlEngine* engine, std::string_view input) {
  SCD_ASSIGN_OR_RETURN(SqlStatement statement, ParseSql(input));
  return ExecuteSqlStatement(engine, statement);
}

}  // namespace scdwarf::sql
