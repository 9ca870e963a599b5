/// \file cql.h
/// \brief A CQL subset: the statements the DWARF-to-NoSQL mapper emits (§4,
/// Fig. 3) plus what the examples need for interactive querying.
///
/// Supported grammar (case-insensitive keywords):
///   CREATE KEYSPACE <name>
///   CREATE TABLE <ks>.<name> ( <col> <type> [, ...] , PRIMARY KEY ( <col> ) )
///   CREATE INDEX ON <ks>.<name> ( <col> )
///   DROP TABLE <ks>.<name>
///   INSERT INTO <ks>.<name> ( <cols> ) VALUES ( <literals> )
///   DELETE FROM <ks>.<name> WHERE <pk-col> = <literal>
///   SELECT <*|cols> FROM <ks>.<name> [WHERE <col> = <literal>
///       [AND <col> = <literal>]...] [ALLOW FILTERING]
///   BEGIN BATCH <insert>; [<insert>;]... APPLY BATCH
///
/// Literals: integers, 'text' (doubled '' escapes), true/false, null and
/// integer sets {1,2,3}.

#ifndef SCDWARF_NOSQL_CQL_H_
#define SCDWARF_NOSQL_CQL_H_

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/statement.h"
#include "nosql/database.h"

namespace scdwarf::nosql {

/// \brief Parsed statement forms.
struct CreateKeyspaceStmt {
  std::string keyspace;
};

struct CreateTableStmt {
  TableSchema schema;
};

struct CreateIndexStmt {
  std::string keyspace;
  std::string table;
  std::string column;
};

struct DropTableStmt {
  std::string keyspace;
  std::string table;
};

struct InsertStmt {
  std::string keyspace;
  std::string table;
  std::vector<std::string> columns;
  std::vector<Value> values;
};

struct SelectStmt {
  std::string keyspace;
  std::string table;
  std::vector<std::string> columns;  // empty => *
  std::vector<std::pair<std::string, Value>> where;  // conjunctive equality
  bool allow_filtering = false;
};

struct BatchStmt {
  std::vector<InsertStmt> inserts;
};

struct DeleteStmt {
  std::string keyspace;
  std::string table;
  std::string column;  // must be the primary key
  Value key;
};

using Statement =
    std::variant<CreateKeyspaceStmt, CreateTableStmt, CreateIndexStmt,
                 DropTableStmt, InsertStmt, SelectStmt, BatchStmt, DeleteStmt>;

/// \brief Parses one CQL statement (trailing ';' optional).
Result<Statement> ParseCql(std::string_view input);

/// \brief Result set of an executed statement. DDL/DML return empty results.
using QueryResult = StatementResult;

/// \brief Parses and executes \p input against \p db.
Result<QueryResult> ExecuteCql(Database* db, std::string_view input);

/// \brief Executes an already-parsed statement.
Result<QueryResult> ExecuteStatement(Database* db, const Statement& statement);

}  // namespace scdwarf::nosql

#endif  // SCDWARF_NOSQL_CQL_H_
