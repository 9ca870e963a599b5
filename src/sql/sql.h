/// \file sql.h
/// \brief SQL subset for the relational engine. Covers the DDL of Fig. 4,
/// multi-row bulk INSERT (how §5 loads MySQL), and SELECT with equality
/// predicates plus inner joins (needed to stitch DWARF nodes back together
/// from the NODE_CHILDREN / CELL_CHILDREN join tables).
///
/// Grammar sketch:
///   CREATE DATABASE <name>
///   CREATE TABLE <db>.<t> ( <col> <type> [NOT NULL] [, ...]
///       , PRIMARY KEY ( <col> ) [, INDEX ( <col> )]... )
///   CREATE INDEX ON <db>.<t> ( <col> )
///   DROP TABLE <db>.<t>
///   INSERT INTO <db>.<t> ( <cols> ) VALUES ( <lits> ) [, ( <lits> )]...
///   DELETE FROM <db>.<t> WHERE <col> = <lit>
///   SELECT <*|items> FROM <db>.<t>
///       [JOIN <db>.<t2> ON <t>.<col> = <t2>.<col>]
///       [WHERE <colref> = <lit> [AND ...]]
/// Types: INT, BIGINT, VARCHAR(n), TEXT, BOOL/BOOLEAN/TINYINT.

#ifndef SCDWARF_SQL_SQL_H_
#define SCDWARF_SQL_SQL_H_

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/statement.h"
#include "sql/engine.h"

namespace scdwarf::sql {

struct SqlCreateDatabase {
  std::string database;
};

struct SqlCreateTable {
  SqlTableDef def;
};

struct SqlCreateIndex {
  std::string database;
  std::string table;
  std::string column;
};

struct SqlDropTable {
  std::string database;
  std::string table;
};

struct SqlInsert {
  std::string database;
  std::string table;
  std::vector<std::string> columns;
  std::vector<SqlRow> value_lists;
};

/// Column reference, optionally table-qualified ("cell.id" or "id").
struct SqlColumnRef {
  std::string table;  // empty when unqualified
  std::string column;

  std::string ToString() const {
    return table.empty() ? column : table + "." + column;
  }
};

struct SqlSelect {
  std::string database;
  std::string table;
  std::optional<std::string> join_table;  // same database
  SqlColumnRef join_left, join_right;     // ON left = right
  std::vector<SqlColumnRef> items;        // empty => *
  std::vector<std::pair<SqlColumnRef, Value>> where;
};

/// DELETE with one equality predicate; non-pk predicates delete every
/// matching row through a scan (MySQL semantics).
struct SqlDelete {
  std::string database;
  std::string table;
  std::string column;
  Value key;
};

using SqlStatement = std::variant<SqlCreateDatabase, SqlCreateTable,
                                  SqlCreateIndex, SqlDropTable, SqlInsert,
                                  SqlSelect, SqlDelete>;

Result<SqlStatement> ParseSql(std::string_view input);

/// \brief Result set; DDL/DML yield empty column/row lists.
using SqlResult = StatementResult;

Result<SqlResult> ExecuteSql(SqlEngine* engine, std::string_view input);
Result<SqlResult> ExecuteSqlStatement(SqlEngine* engine,
                                      const SqlStatement& statement);

}  // namespace scdwarf::sql

#endif  // SCDWARF_SQL_SQL_H_
