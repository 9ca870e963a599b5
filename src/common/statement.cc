#include "common/statement.h"

#include <cctype>

#include "common/strings.h"

namespace scdwarf {

Result<std::vector<Token>> Tokenize(std::string_view input,
                                    std::string_view symbols,
                                    std::string_view language) {
  std::vector<Token> tokens;
  size_t pos = 0;
  while (pos < input.size()) {
    char c = input[pos];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t begin = pos;
      while (pos < input.size() &&
             (std::isalnum(static_cast<unsigned char>(input[pos])) ||
              input[pos] == '_')) {
        ++pos;
      }
      std::string raw(input.substr(begin, pos - begin));
      tokens.push_back({TokenType::kIdentifier, AsciiToLower(raw), raw});
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && pos + 1 < input.size() &&
                std::isdigit(static_cast<unsigned char>(input[pos + 1])))) {
      size_t begin = pos;
      ++pos;
      while (pos < input.size() &&
             std::isdigit(static_cast<unsigned char>(input[pos]))) {
        ++pos;
      }
      std::string raw(input.substr(begin, pos - begin));
      tokens.push_back({TokenType::kNumber, raw, raw});
    } else if (c == '\'') {
      ++pos;
      std::string text;
      while (true) {
        if (pos >= input.size()) {
          return Status::ParseError("unterminated string literal");
        }
        if (input[pos] == '\'') {
          if (pos + 1 < input.size() && input[pos + 1] == '\'') {
            text.push_back('\'');
            pos += 2;
            continue;
          }
          ++pos;
          break;
        }
        text.push_back(input[pos++]);
      }
      tokens.push_back({TokenType::kString, text, text});
    } else if (symbols.find(c) != std::string_view::npos) {
      tokens.push_back({TokenType::kSymbol, std::string(1, c),
                        std::string(1, c)});
      ++pos;
    } else {
      return Status::ParseError(std::string("unexpected character '") + c +
                                "' in " + std::string(language) + " input");
    }
  }
  tokens.push_back({TokenType::kEnd, "", ""});
  return tokens;
}

bool TokenParser::ConsumeKeyword(std::string_view keyword) {
  if (!PeekKeyword(keyword)) return false;
  ++pos_;
  return true;
}

bool TokenParser::ConsumeSymbol(std::string_view symbol) {
  if (Peek().type != TokenType::kSymbol || Peek().text != symbol) return false;
  ++pos_;
  return true;
}

Result<std::string> TokenParser::ExpectIdentifier(const std::string& what) {
  if (Peek().type != TokenType::kIdentifier) return Error("expected " + what);
  return tokens_[pos_++].text;
}

Status TokenParser::Error(const std::string& message) const {
  std::string near = AtEnd() ? "<end>" : Peek().raw;
  return Status::ParseError(message + " (near '" + near + "')");
}

Result<Value> TokenParser::ParseLiteral() {
  const Token& token = Peek();
  if (token.type == TokenType::kNumber) {
    ++pos_;
    SCD_ASSIGN_OR_RETURN(int64_t value, ParseInt64(token.text));
    return Value::Int(value);
  }
  if (token.type == TokenType::kString) {
    ++pos_;
    return Value::Text(token.text);
  }
  if (token.type == TokenType::kIdentifier) {
    if (token.text == "true") {
      ++pos_;
      return Value::Bool(true);
    }
    if (token.text == "false") {
      ++pos_;
      return Value::Bool(false);
    }
    if (token.text == "null") {
      ++pos_;
      return Value::Null();
    }
    return Error("expected a literal, got '" + token.raw + "'");
  }
  if (token.type == TokenType::kSymbol && token.text == "{") {
    ++pos_;
    std::vector<int64_t> members;
    if (!ConsumeSymbol("}")) {
      while (true) {
        const Token& member = Peek();
        if (member.type != TokenType::kNumber) {
          return Error("set literals may contain only integers");
        }
        ++pos_;
        SCD_ASSIGN_OR_RETURN(int64_t value, ParseInt64(member.text));
        members.push_back(value);
        if (ConsumeSymbol(",")) continue;
        if (ConsumeSymbol("}")) break;
        return Error("expected ',' or '}' in set literal");
      }
    }
    return Value::IntSet(std::move(members));
  }
  return Error("expected a literal");
}

Status TokenParser::ParseQualifiedName(std::string* scope,
                                       std::string* table) {
  SCD_ASSIGN_OR_RETURN(std::string first,
                       ExpectIdentifier(scope_noun_ + " name"));
  if (!ConsumeSymbol(".")) {
    return Error("table names must be " + scope_noun_ + "-qualified (" +
                 scope_abbrev_ + ".table)");
  }
  SCD_ASSIGN_OR_RETURN(std::string second, ExpectIdentifier("table name"));
  *scope = std::move(first);
  *table = std::move(second);
  return Status::OK();
}

std::string StatementResult::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += " | ";
    out += columns[i];
  }
  out += "\n";
  out += std::string(out.size() > 1 ? out.size() - 1 : 0, '-');
  out += "\n";
  for (const std::vector<Value>& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i].ToDisplayString();
    }
    out += "\n";
  }
  return out;
}

}  // namespace scdwarf
