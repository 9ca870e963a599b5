// Parser edge cases for the CQL and SQL front ends: quoted strings that
// contain commas (the classic value-list splitter bug), empty set<int>
// literals, and a truncation sweep feeding every byte prefix of valid
// statements through the parsers. Everything must come back as a Result —
// never an abort, hang, or out-of-bounds read. Plus the wire-protocol
// request parser: range bounds that are not valid dictionary ids must be
// rejected before they are cast to DimKey.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "nosql/cql.h"
#include "server/wire.h"
#include "sql/engine.h"
#include "sql/sql.h"

namespace {

// ------------------------------------------------------------------- CQL

class CqlEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(Exec("CREATE KEYSPACE ks").ok());
    ASSERT_TRUE(Exec("CREATE TABLE ks.t (id int, name text, tags set<int>, "
                     "PRIMARY KEY (id))")
                    .ok());
  }
  scdwarf::Result<scdwarf::nosql::QueryResult> Exec(const std::string& cql) {
    return scdwarf::nosql::ExecuteCql(&db_, cql);
  }
  scdwarf::nosql::Database db_;
};

TEST_F(CqlEdgeTest, QuotedStringsWithCommasDoNotSplitValueLists) {
  ASSERT_TRUE(Exec("INSERT INTO ks.t (id, name, tags) "
                   "VALUES (1, 'Dame St, Dublin 2', {7})")
                  .ok());
  auto select = Exec("SELECT name, tags FROM ks.t WHERE id = 1");
  ASSERT_TRUE(select.ok()) << select.status();
  ASSERT_EQ(select->rows.size(), 1u);
  // The comma stays inside the text value instead of splitting the list.
  EXPECT_EQ(*select->rows[0][0].AsText(), "Dame St, Dublin 2");
  EXPECT_EQ(*select->rows[0][1].AsIntSet(), (std::vector<int64_t>{7}));
}

TEST_F(CqlEdgeTest, DoubledQuoteEscapesRoundTrip) {
  ASSERT_TRUE(Exec("INSERT INTO ks.t (id, name) "
                   "VALUES (1, 'O''Connell St, D1')")
                  .ok());
  auto select = Exec("SELECT id FROM ks.t "
                     "WHERE name = 'O''Connell St, D1' ALLOW FILTERING");
  ASSERT_TRUE(select.ok()) << select.status();
  ASSERT_EQ(select->rows.size(), 1u);
  EXPECT_EQ(*select->rows[0][0].AsInt(), 1);
}

TEST_F(CqlEdgeTest, CommaStringsInsideBatchesDoNotSplitStatements) {
  auto result = Exec(
      "BEGIN BATCH "
      "INSERT INTO ks.t (id, name) VALUES (1, 'a, b'); "
      "INSERT INTO ks.t (id, name) VALUES (2, 'c; APPLY BATCH'); "
      "APPLY BATCH");
  ASSERT_TRUE(result.ok()) << result.status();
  auto select = Exec("SELECT name FROM ks.t WHERE id = 2");
  ASSERT_TRUE(select.ok());
  EXPECT_EQ(*select->rows[0][0].AsText(), "c; APPLY BATCH");
}

TEST_F(CqlEdgeTest, EmptySetLiteralYieldsEmptySet) {
  ASSERT_TRUE(Exec("INSERT INTO ks.t (id, tags) VALUES (1, {})").ok());
  ASSERT_TRUE(Exec("INSERT INTO ks.t (id, tags) VALUES (2, { })").ok());
  for (int id : {1, 2}) {
    auto select =
        Exec("SELECT tags FROM ks.t WHERE id = " + std::to_string(id));
    ASSERT_TRUE(select.ok()) << select.status();
    ASSERT_EQ(select->rows.size(), 1u);
    EXPECT_TRUE(select->rows[0][0].AsIntSet()->empty());
  }
}

TEST_F(CqlEdgeTest, MalformedSetLiteralsAreParseErrors) {
  for (const char* bad : {
           "INSERT INTO ks.t (id, tags) VALUES (1, {1,})",
           "INSERT INTO ks.t (id, tags) VALUES (1, {,1})",
           "INSERT INTO ks.t (id, tags) VALUES (1, {'a'})",
           "INSERT INTO ks.t (id, tags) VALUES (1, {1 2})",
           "INSERT INTO ks.t (id, tags) VALUES (1, {1,2)",
           "INSERT INTO ks.t (id, tags) VALUES (1, {",
       }) {
    auto result = scdwarf::nosql::ParseCql(bad);
    EXPECT_TRUE(result.status().IsParseError()) << "input: " << bad;
  }
}

TEST_F(CqlEdgeTest, BrokenStringLiteralsAreParseErrors) {
  for (const char* bad : {
           "INSERT INTO ks.t (id, name) VALUES (1, 'unterminated",
           "INSERT INTO ks.t (id, name) VALUES (1, ')",
           // The trailing '' is an escape, so the literal never closes.
           "INSERT INTO ks.t (id, name) VALUES (1, 'abc''",
       }) {
    auto result = scdwarf::nosql::ParseCql(bad);
    EXPECT_TRUE(result.status().IsParseError()) << "input: " << bad;
  }
}

// Every byte prefix of a valid statement must come back as a Result. Most
// prefixes are parse errors; a few are complete statements in their own
// right (e.g. an identifier shortened by one letter) — both are fine, the
// invariant is "no abort, no crash, no hang".
void SweepCqlPrefixes(const std::string& statement) {
  for (size_t len = 0; len <= statement.size(); ++len) {
    std::string prefix = statement.substr(0, len);
    auto result = scdwarf::nosql::ParseCql(prefix);
    EXPECT_TRUE(result.ok() || result.status().IsParseError())
        << "prefix[" << len << "]: " << prefix << " -> " << result.status();
  }
  EXPECT_TRUE(scdwarf::nosql::ParseCql(statement).ok()) << statement;
}

TEST_F(CqlEdgeTest, InsertNamingAColumnTwiceIsRejectedAndStoresNothing) {
  // Cassandra: "Multiple definitions found for column".
  for (const char* bad : {
           "INSERT INTO ks.t (id, name, name) VALUES (1, 'a', 'b')",
           "INSERT INTO ks.t (id, id, name) VALUES (2, 3, 'c')",
           "INSERT INTO ks.t (id, NAME, name) VALUES (4, 'd', 'e')",
           "BEGIN BATCH INSERT INTO ks.t (id, name, name) "
           "VALUES (5, 'f', 'g'); APPLY BATCH",
       }) {
    auto result = Exec(bad);
    ASSERT_TRUE(result.status().IsParseError()) << "input: " << bad;
    EXPECT_NE(result.status().message().find("column '"), std::string::npos)
        << result.status();
  }
  auto select = Exec("SELECT id FROM ks.t");
  ASSERT_TRUE(select.ok()) << select.status();
  EXPECT_TRUE(select->rows.empty());
}

TEST(CqlTruncationTest, EveryPrefixReturnsAResult) {
  for (const char* statement : {
           "CREATE KEYSPACE ks",
           "CREATE TABLE ks.t (id int, name text, tags set<int>, "
           "PRIMARY KEY (id))",
           "CREATE INDEX ON ks.t (name)",
           "DROP TABLE ks.t",
           "INSERT INTO ks.t (id, name, tags) "
           "VALUES (1, 'Dame St, ''D2''', {1,2,3});",
           "DELETE FROM ks.t WHERE id = -42",
           "SELECT id, name FROM ks.t WHERE name = 'x' AND id = 1 "
           "ALLOW FILTERING",
           "BEGIN BATCH INSERT INTO ks.t (id) VALUES (1); APPLY BATCH",
       }) {
    SweepCqlPrefixes(statement);
  }
}

// ------------------------------------------------------------------- SQL

class SqlEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(Exec("CREATE DATABASE db").ok());
    ASSERT_TRUE(Exec("CREATE TABLE db.t (id INT NOT NULL, "
                     "name VARCHAR(64), PRIMARY KEY (id))")
                    .ok());
  }
  scdwarf::Result<scdwarf::sql::SqlResult> Exec(const std::string& sql) {
    return scdwarf::sql::ExecuteSql(&engine_, sql);
  }
  scdwarf::sql::SqlEngine engine_;
};

TEST_F(SqlEdgeTest, QuotedStringsWithCommasDoNotSplitRowLists) {
  // Commas inside the literals must not be confused with the row and value
  // separators of a multi-row insert.
  ASSERT_TRUE(Exec("INSERT INTO db.t (id, name) "
                   "VALUES (1, 'Fenian St, Dublin'), (2, 'a,b,c')")
                  .ok());
  auto select = Exec("SELECT name FROM db.t WHERE name = 'a,b,c'");
  ASSERT_TRUE(select.ok()) << select.status();
  ASSERT_EQ(select->rows.size(), 1u);
  EXPECT_EQ(*select->rows[0][0].AsText(), "a,b,c");
}

TEST_F(SqlEdgeTest, DoubledQuoteEscapesRoundTrip) {
  ASSERT_TRUE(
      Exec("INSERT INTO db.t (id, name) VALUES (1, 'O''Brien, P.')").ok());
  auto select = Exec("SELECT id FROM db.t WHERE name = 'O''Brien, P.'");
  ASSERT_TRUE(select.ok()) << select.status();
  ASSERT_EQ(select->rows.size(), 1u);
}

TEST_F(SqlEdgeTest, SetLiteralsAreParseErrorsNotAborts) {
  // The relational subset has no set type; '{' is not even a lexable
  // character. Both the empty and the populated literal must fail cleanly.
  for (const char* bad : {
           "INSERT INTO db.t (id, name) VALUES (1, {})",
           "INSERT INTO db.t (id, name) VALUES (1, {1,2,3})",
           "SELECT * FROM db.t WHERE id = {}",
       }) {
    auto result = scdwarf::sql::ParseSql(bad);
    EXPECT_TRUE(result.status().IsParseError()) << "input: " << bad;
  }
}

TEST_F(SqlEdgeTest, BrokenStringLiteralsAreParseErrors) {
  for (const char* bad : {
           "INSERT INTO db.t (id, name) VALUES (1, 'unterminated",
           "INSERT INTO db.t (id, name) VALUES (1, 'abc''",
           "SELECT * FROM db.t WHERE name = '",
       }) {
    auto result = scdwarf::sql::ParseSql(bad);
    EXPECT_TRUE(result.status().IsParseError()) << "input: " << bad;
  }
}

TEST_F(SqlEdgeTest, TrailingTokensAfterStatementAreRejected) {
  auto result = scdwarf::sql::ParseSql(
      "INSERT INTO db.t (id) VALUES (1); SELECT * FROM db.t");
  EXPECT_TRUE(result.status().IsParseError());
}

TEST_F(SqlEdgeTest, InsertNamingAColumnTwiceIsRejectedAndStoresNothing) {
  // MySQL: error 1110, "Column 'name' specified twice".
  for (const char* bad : {
           "INSERT INTO db.t (id, name, name) VALUES (1, 'a', 'b')",
           "INSERT INTO db.t (id, id, name) VALUES (2, 3, 'c')",
           "INSERT INTO db.t (id, NAME, name) VALUES (4, 'd', 'e')",
       }) {
    auto result = Exec(bad);
    ASSERT_TRUE(result.status().IsParseError()) << "input: " << bad;
    EXPECT_NE(result.status().message().find("column '"), std::string::npos)
        << result.status();
  }
  auto select = Exec("SELECT id FROM db.t");
  ASSERT_TRUE(select.ok()) << select.status();
  EXPECT_TRUE(select->rows.empty());
}

void SweepSqlPrefixes(const std::string& statement) {
  for (size_t len = 0; len <= statement.size(); ++len) {
    std::string prefix = statement.substr(0, len);
    auto result = scdwarf::sql::ParseSql(prefix);
    EXPECT_TRUE(result.ok() || result.status().IsParseError())
        << "prefix[" << len << "]: " << prefix << " -> " << result.status();
  }
  EXPECT_TRUE(scdwarf::sql::ParseSql(statement).ok()) << statement;
}

TEST(SqlTruncationTest, EveryPrefixReturnsAResult) {
  for (const char* statement : {
           "CREATE DATABASE db",
           "CREATE TABLE db.t (id INT NOT NULL, name VARCHAR(64), "
           "leaf BOOL, PRIMARY KEY (id), INDEX (name))",
           "CREATE INDEX ON db.t (name)",
           "DROP TABLE db.t",
           "INSERT INTO db.t (id, name) "
           "VALUES (1, 'Dame St, ''D2'''), (-2, 'x');",
           "DELETE FROM db.t WHERE name = 'a, b'",
           "SELECT t.id, name FROM db.t JOIN db.u ON t.id = u.id "
           "WHERE t.name = 'x' AND id = 1",
       }) {
    SweepSqlPrefixes(statement);
  }
}

// ------------------------------------------------------------------ wire

std::string AggregateWithRange(const std::string& lo, const std::string& hi) {
  return R"({"op":"aggregate","predicates":[{"kind":"range","lo":)" + lo +
         R"(,"hi":)" + hi + "}]}";
}

// Regression: id-form bounds used to be cast straight from double to DimKey.
// A NaN slipped past the `< 0` check (every comparison with NaN is false)
// and the cast was undefined behaviour; 3.5 silently truncated to 3; 2^32
// and 1e300 wrapped. All of them must be InvalidArgument now.
TEST(WireRangeBoundTest, NonIdNumericBoundsAreRejected) {
  for (const char* bounds : {
           "3.5,4",       // non-integral lo
           "0,6.25",      // non-integral hi
           "-1,4",        // negative
           "0,-0.5",      // negative fraction
           "4294967296,4294967297",  // 2^32: one past DimKey range
           "0,1e300",     // astronomically large
           "1e300,1e301",
       }) {
    std::string lo = bounds, hi = lo.substr(lo.find(',') + 1);
    lo = lo.substr(0, lo.find(','));
    auto parsed = scdwarf::server::ParseRequest(AggregateWithRange(lo, hi));
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << "bounds " << bounds << " -> " << parsed.status();
  }
}

TEST(WireRangeBoundTest, ValidIdBoundsStillParse) {
  for (const char* bounds : {"0,0", "0,4294967295", "7,7"}) {
    std::string lo = bounds, hi = lo.substr(lo.find(',') + 1);
    lo = lo.substr(0, lo.find(','));
    auto parsed = scdwarf::server::ParseRequest(AggregateWithRange(lo, hi));
    EXPECT_TRUE(parsed.ok()) << "bounds " << bounds << " -> "
                             << parsed.status();
  }
}

TEST(WireRangeBoundTest, LoGreaterThanHiIsInvalidAtTheWireLayer) {
  auto id_form = scdwarf::server::ParseRequest(AggregateWithRange("5", "4"));
  EXPECT_TRUE(id_form.status().IsInvalidArgument());
  auto value_form = scdwarf::server::ParseRequest(
      AggregateWithRange("\"2013-07-31\"", "\"2013-07-01\""));
  EXPECT_TRUE(value_form.status().IsInvalidArgument());
}

TEST(WireRangeBoundTest, ValueBoundsParseAndMixedBoundsAreRejected) {
  auto value_form = scdwarf::server::ParseRequest(
      AggregateWithRange("\"2013-07-01\"", "\"2013-07-31\""));
  ASSERT_TRUE(value_form.ok()) << value_form.status();
  ASSERT_EQ(value_form->predicates.size(), 1u);
  EXPECT_TRUE(value_form->predicates[0].value_bounds);
  EXPECT_EQ(value_form->predicates[0].lo_value, "2013-07-01");
  EXPECT_EQ(value_form->predicates[0].hi_value, "2013-07-31");

  for (const char* mixed : {R"("2013-07-01",4)", R"(4,"2013-07-31")"}) {
    std::string lo = mixed, hi = lo.substr(lo.find(',') + 1);
    lo = lo.substr(0, lo.find(','));
    auto parsed = scdwarf::server::ParseRequest(AggregateWithRange(lo, hi));
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << mixed << " -> " << parsed.status();
  }
}

TEST(WireRollupWhereTest, ParsesAndValidates) {
  auto ok = scdwarf::server::ParseRequest(
      R"({"op":"rollup","dims":["Date","Area"],)"
      R"("where":[{"dim":"Date","lo":"2013-07-01","hi":"2013-07-31"}]})");
  ASSERT_TRUE(ok.ok()) << ok.status();
  ASSERT_EQ(ok->rollup_where.size(), 1u);
  EXPECT_EQ(ok->rollup_where[0].dim, "Date");
  EXPECT_EQ(ok->rollup_where[0].lo, "2013-07-01");
  EXPECT_EQ(ok->rollup_where[0].hi, "2013-07-31");

  for (const char* bad : {
           // filter dim not in the grouped dims
           R"({"op":"rollup","dims":["Area"],)"
           R"("where":[{"dim":"Date","lo":"a","hi":"b"}]})",
           // duplicate filter dims
           R"({"op":"rollup","dims":["Date"],)"
           R"("where":[{"dim":"Date","lo":"a","hi":"b"},)"
           R"({"dim":"Date","lo":"c","hi":"d"}]})",
           // lo > hi
           R"({"op":"rollup","dims":["Date"],)"
           R"("where":[{"dim":"Date","lo":"b","hi":"a"}]})",
       }) {
    auto parsed = scdwarf::server::ParseRequest(bad);
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << bad << " -> " << parsed.status();
  }
}

}  // namespace
