/// \file statement.h
/// \brief The statement front-end the two query languages share: the lexer,
/// the token cursor under each recursive-descent parser, and the result set
/// both executors return. CQL (nosql/cql.h) and SQL (sql/sql.h) each keep
/// their grammar and their symbol set.

#ifndef SCDWARF_COMMON_STATEMENT_H_
#define SCDWARF_COMMON_STATEMENT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace scdwarf {

enum class TokenType {
  kIdentifier,  // bare word or keyword
  kNumber,
  kString,  // 'quoted'
  kSymbol,
  kEnd,
};

struct Token {
  TokenType type;
  std::string text;  // identifiers lower-cased; strings unescaped
  std::string raw;   // original spelling (identifiers keep their case)
};

/// \brief Splits \p input into tokens, the last of them kEnd. Each character
/// of \p symbols is a one-character symbol; any other character that starts
/// no identifier, number or 'string' ('' escapes a quote) is a ParseError
/// naming \p language.
Result<std::vector<Token>> Tokenize(std::string_view input,
                                    std::string_view symbols,
                                    std::string_view language);

/// \brief A cursor over a token stream, with the helpers both languages'
/// parsers use. A parser derives from it and adds its grammar.
class TokenParser {
 protected:
  /// \p scope_noun and \p scope_abbrev name a table's scope in errors
  /// ("keyspace" and "ks", or "database" and "db").
  TokenParser(std::vector<Token> tokens, std::string_view scope_noun,
              std::string_view scope_abbrev)
      : tokens_(std::move(tokens)),
        scope_noun_(scope_noun),
        scope_abbrev_(scope_abbrev) {}

  const Token& Peek() const { return tokens_[pos_]; }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }
  bool PeekKeyword(std::string_view keyword) const {
    return Peek().type == TokenType::kIdentifier && Peek().text == keyword;
  }
  bool ConsumeKeyword(std::string_view keyword);
  bool ConsumeSymbol(std::string_view symbol);
  Result<std::string> ExpectIdentifier(const std::string& what);
  /// A ParseError naming the current token: "<message> (near '<token>')".
  Status Error(const std::string& message) const;

  /// An integer, a 'string', true, false, null or an integer set {1, 2}
  /// (a language without '{' in its symbols never reaches the set).
  Result<Value> ParseLiteral();
  /// `<scope>.<table>`, which every statement names its table by.
  Status ParseQualifiedName(std::string* scope, std::string* table);

  std::vector<Token> tokens_;
  size_t pos_ = 0;

 private:
  std::string scope_noun_;
  std::string scope_abbrev_;
};

/// \brief The rows a statement returns; DDL and DML return none.
struct StatementResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  /// Renders an ASCII table (for examples and debugging).
  std::string ToString() const;
};

}  // namespace scdwarf

#endif  // SCDWARF_COMMON_STATEMENT_H_
