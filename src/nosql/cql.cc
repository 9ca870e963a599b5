#include "nosql/cql.h"

#include <algorithm>

namespace scdwarf::nosql {

namespace {

// ----------------------------------------------------------------- parser

class Parser : public TokenParser {
 public:
  explicit Parser(std::vector<Token> tokens)
      : TokenParser(std::move(tokens), "keyspace", "ks") {}

  Result<Statement> ParseStatement() {
    SCD_ASSIGN_OR_RETURN(Statement stmt, ParseStatementInner());
    ConsumeSymbol(";");
    if (!AtEnd()) return Error("trailing tokens after statement");
    return stmt;
  }

 private:
  Result<Statement> ParseStatementInner() {
    if (ConsumeKeyword("create")) {
      if (ConsumeKeyword("keyspace")) return ParseCreateKeyspace();
      if (ConsumeKeyword("table")) return ParseCreateTable();
      if (ConsumeKeyword("index")) return ParseCreateIndex();
      return Error("expected KEYSPACE, TABLE or INDEX after CREATE");
    }
    if (ConsumeKeyword("drop")) {
      if (!ConsumeKeyword("table")) return Error("expected TABLE after DROP");
      DropTableStmt stmt;
      SCD_RETURN_IF_ERROR(ParseQualifiedName(&stmt.keyspace, &stmt.table));
      return Statement(stmt);
    }
    if (PeekKeyword("insert")) {
      SCD_ASSIGN_OR_RETURN(InsertStmt stmt, ParseInsert());
      return Statement(stmt);
    }
    if (ConsumeKeyword("select")) return ParseSelect();
    if (ConsumeKeyword("delete")) {
      if (!ConsumeKeyword("from")) return Error("expected FROM after DELETE");
      DeleteStmt stmt;
      SCD_RETURN_IF_ERROR(ParseQualifiedName(&stmt.keyspace, &stmt.table));
      if (!ConsumeKeyword("where")) return Error("DELETE requires WHERE");
      SCD_ASSIGN_OR_RETURN(stmt.column, ExpectIdentifier("column name"));
      if (!ConsumeSymbol("=")) return Error("expected '=' in DELETE");
      SCD_ASSIGN_OR_RETURN(stmt.key, ParseLiteral());
      return Statement(stmt);
    }
    if (ConsumeKeyword("begin")) {
      if (!ConsumeKeyword("batch")) return Error("expected BATCH after BEGIN");
      BatchStmt batch;
      while (!PeekKeyword("apply")) {
        SCD_ASSIGN_OR_RETURN(InsertStmt insert, ParseInsert());
        batch.inserts.push_back(std::move(insert));
        ConsumeSymbol(";");
      }
      ConsumeKeyword("apply");
      if (!ConsumeKeyword("batch")) return Error("expected APPLY BATCH");
      return Statement(batch);
    }
    return Error("unrecognized statement");
  }

  Result<Statement> ParseCreateKeyspace() {
    SCD_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("keyspace name"));
    return Statement(CreateKeyspaceStmt{name});
  }

  Result<Statement> ParseCreateTable() {
    std::string keyspace, table;
    SCD_RETURN_IF_ERROR(ParseQualifiedName(&keyspace, &table));
    if (!ConsumeSymbol("(")) return Error("expected '(' after table name");
    std::vector<ColumnDef> columns;
    std::string primary_key;
    while (true) {
      if (ConsumeKeyword("primary")) {
        if (!ConsumeKeyword("key")) return Error("expected KEY after PRIMARY");
        if (!ConsumeSymbol("(")) return Error("expected '(' after PRIMARY KEY");
        SCD_ASSIGN_OR_RETURN(primary_key, ExpectIdentifier("key column"));
        if (!ConsumeSymbol(")")) return Error("expected ')' after key column");
      } else {
        SCD_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("column name"));
        SCD_ASSIGN_OR_RETURN(DataType type, ParseTypeTokens());
        columns.emplace_back(name, type);
      }
      if (ConsumeSymbol(",")) continue;
      if (ConsumeSymbol(")")) break;
      return Error("expected ',' or ')' in column list");
    }
    if (primary_key.empty()) return Error("missing PRIMARY KEY clause");
    TableSchema schema(keyspace, table, std::move(columns), primary_key);
    SCD_RETURN_IF_ERROR(schema.Validate());
    return Statement(CreateTableStmt{std::move(schema)});
  }

  /// Parses "int" / "text" / "set < int >" token sequences into a DataType.
  Result<DataType> ParseTypeTokens() {
    SCD_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("type name"));
    if (name == "set") {
      if (!ConsumeSymbol("<")) return Error("expected '<' after set");
      SCD_ASSIGN_OR_RETURN(std::string inner, ExpectIdentifier("set element type"));
      if (!ConsumeSymbol(">")) return Error("expected '>' after set element");
      return ParseDataType("set<" + inner + ">");
    }
    return ParseDataType(name);
  }

  Result<Statement> ParseCreateIndex() {
    // Optional index name.
    if (Peek().type == TokenType::kIdentifier && Peek().text != "on") {
      ++pos_;
    }
    if (!ConsumeKeyword("on")) return Error("expected ON in CREATE INDEX");
    CreateIndexStmt stmt;
    SCD_RETURN_IF_ERROR(ParseQualifiedName(&stmt.keyspace, &stmt.table));
    if (!ConsumeSymbol("(")) return Error("expected '(' after table name");
    SCD_ASSIGN_OR_RETURN(stmt.column, ExpectIdentifier("indexed column"));
    if (!ConsumeSymbol(")")) return Error("expected ')' after indexed column");
    return Statement(stmt);
  }

  Result<InsertStmt> ParseInsert() {
    if (!ConsumeKeyword("insert") || !ConsumeKeyword("into")) {
      return Error("expected INSERT INTO");
    }
    InsertStmt stmt;
    SCD_RETURN_IF_ERROR(ParseQualifiedName(&stmt.keyspace, &stmt.table));
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
    if (!ConsumeSymbol("(")) return Error("expected '(' after VALUES");
    while (true) {
      SCD_ASSIGN_OR_RETURN(Value value, ParseLiteral());
      stmt.values.push_back(std::move(value));
      if (ConsumeSymbol(",")) continue;
      if (ConsumeSymbol(")")) break;
      return Error("expected ',' or ')' in value list");
    }
    if (stmt.columns.size() != stmt.values.size()) {
      return Error("column/value count mismatch in INSERT");
    }
    return stmt;
  }

  Result<Statement> ParseSelect() {
    SelectStmt stmt;
    if (ConsumeSymbol("*")) {
      // all columns
    } else {
      while (true) {
        SCD_ASSIGN_OR_RETURN(std::string column, ExpectIdentifier("column name"));
        stmt.columns.push_back(std::move(column));
        if (!ConsumeSymbol(",")) break;
      }
    }
    if (!ConsumeKeyword("from")) return Error("expected FROM");
    SCD_RETURN_IF_ERROR(ParseQualifiedName(&stmt.keyspace, &stmt.table));
    if (ConsumeKeyword("where")) {
      while (true) {
        SCD_ASSIGN_OR_RETURN(std::string column, ExpectIdentifier("column name"));
        if (!ConsumeSymbol("=")) return Error("only equality predicates supported");
        SCD_ASSIGN_OR_RETURN(Value value, ParseLiteral());
        stmt.where.emplace_back(std::move(column), std::move(value));
        if (!ConsumeKeyword("and")) break;
      }
    }
    if (ConsumeKeyword("allow")) {
      if (!ConsumeKeyword("filtering")) return Error("expected ALLOW FILTERING");
      stmt.allow_filtering = true;
    }
    return Statement(stmt);
  }
};

// --------------------------------------------------------------- executor

Result<QueryResult> ExecuteInsert(Database* db, const InsertStmt& stmt) {
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table, static_cast<const Database*>(db)
                                              ->GetTable(stmt.keyspace, stmt.table));
  const TableSchema& schema = table->schema();
  Row row(schema.num_columns(), Value::Null());
  for (size_t i = 0; i < stmt.columns.size(); ++i) {
    SCD_ASSIGN_OR_RETURN(size_t index, schema.ColumnIndex(stmt.columns[i]));
    row[index] = stmt.values[i];
  }
  SCD_RETURN_IF_ERROR(db->Insert(stmt.keyspace, stmt.table, std::move(row)));
  return QueryResult{};
}

Result<QueryResult> ExecuteSelect(Database* db, const SelectStmt& stmt) {
  SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table, static_cast<const Database*>(db)
                                              ->GetTable(stmt.keyspace, stmt.table));
  const TableSchema& schema = table->schema();

  // Resolve projection.
  std::vector<size_t> projection;
  QueryResult result;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      projection.push_back(i);
      result.columns.push_back(schema.columns()[i].name);
    }
  } else {
    for (const std::string& column : stmt.columns) {
      SCD_ASSIGN_OR_RETURN(size_t index, schema.ColumnIndex(column));
      projection.push_back(index);
      result.columns.push_back(column);
    }
  }

  // Candidate rows: use the most selective equality (pk first, then any
  // indexed column); remaining predicates filter.
  std::vector<Row> candidates;
  if (stmt.where.empty()) {
    candidates = table->ScanAll();
  } else {
    // Pick driver predicate.
    int driver = -1;
    for (size_t i = 0; i < stmt.where.size(); ++i) {
      SCD_ASSIGN_OR_RETURN(size_t index, schema.ColumnIndex(stmt.where[i].first));
      if (index == schema.PrimaryKeyIndex()) {
        driver = static_cast<int>(i);
        break;
      }
      bool indexed = false;
      for (size_t sec : schema.secondary_indexes()) {
        if (sec == index) indexed = true;
      }
      if (indexed && driver < 0) driver = static_cast<int>(i);
    }
    if (driver < 0) {
      if (!stmt.allow_filtering) {
        return Status::FailedPrecondition(
            "no indexed column in WHERE clause; use ALLOW FILTERING");
      }
      driver = 0;
    }
    SCD_ASSIGN_OR_RETURN(
        candidates,
        table->SelectEq(stmt.where[driver].first, stmt.where[driver].second,
                        /*allow_filtering=*/true));
    // Apply the rest.
    for (size_t i = 0; i < stmt.where.size(); ++i) {
      if (static_cast<int>(i) == driver) continue;
      SCD_ASSIGN_OR_RETURN(size_t index, schema.ColumnIndex(stmt.where[i].first));
      std::erase_if(candidates, [&](const Row& row) {
        return row[index] != stmt.where[i].second;
      });
    }
  }

  result.rows.reserve(candidates.size());
  for (const Row& row : candidates) {
    Row projected;
    projected.reserve(projection.size());
    for (size_t index : projection) projected.push_back(row[index]);
    result.rows.push_back(std::move(projected));
  }
  return result;
}

}  // namespace

Result<Statement> ParseCql(std::string_view input) {
  SCD_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                       Tokenize(input, "(),.=;{}<>*", "CQL"));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<QueryResult> ExecuteStatement(Database* db, const Statement& statement) {
  if (const auto* stmt = std::get_if<CreateKeyspaceStmt>(&statement)) {
    SCD_RETURN_IF_ERROR(db->CreateKeyspace(stmt->keyspace));
    return QueryResult{};
  }
  if (const auto* stmt = std::get_if<CreateTableStmt>(&statement)) {
    SCD_RETURN_IF_ERROR(db->CreateTable(stmt->schema));
    return QueryResult{};
  }
  if (const auto* stmt = std::get_if<CreateIndexStmt>(&statement)) {
    SCD_RETURN_IF_ERROR(db->CreateIndex(stmt->keyspace, stmt->table, stmt->column));
    return QueryResult{};
  }
  if (const auto* stmt = std::get_if<DropTableStmt>(&statement)) {
    SCD_RETURN_IF_ERROR(db->DropTable(stmt->keyspace, stmt->table));
    return QueryResult{};
  }
  if (const auto* stmt = std::get_if<InsertStmt>(&statement)) {
    return ExecuteInsert(db, *stmt);
  }
  if (const auto* stmt = std::get_if<SelectStmt>(&statement)) {
    return ExecuteSelect(db, *stmt);
  }
  if (const auto* stmt = std::get_if<DeleteStmt>(&statement)) {
    SCD_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table,
                         static_cast<const Database*>(db)->GetTable(
                             stmt->keyspace, stmt->table));
    if (table->schema().primary_key() != stmt->column) {
      return Status::InvalidArgument(
          "DELETE is only supported by primary key ('" +
          table->schema().primary_key() + "')");
    }
    SCD_RETURN_IF_ERROR(db->Delete(stmt->keyspace, stmt->table, stmt->key));
    return QueryResult{};
  }
  if (const auto* stmt = std::get_if<BatchStmt>(&statement)) {
    for (const InsertStmt& insert : stmt->inserts) {
      SCD_RETURN_IF_ERROR(ExecuteInsert(db, insert).status());
    }
    return QueryResult{};
  }
  return Status::Internal("unhandled statement variant");
}

Result<QueryResult> ExecuteCql(Database* db, std::string_view input) {
  SCD_ASSIGN_OR_RETURN(Statement statement, ParseCql(input));
  return ExecuteStatement(db, statement);
}

}  // namespace scdwarf::nosql
