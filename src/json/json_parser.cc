#include "json/json_parser.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace scdwarf::json {

namespace {

constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<JsonValue> Parse() {
    SCD_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != input_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at offset " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < input_.size() ? input_[pos_] : '\0'; }

  bool ConsumeLiteral(std::string_view literal) {
    if (input_.size() - pos_ < literal.size()) return false;
    if (input_.compare(pos_, literal.size(), literal) != 0) return false;
    pos_ += literal.size();
    return true;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("JSON nesting too deep");
    SkipWhitespace();
    char c = Peek();
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        SCD_ASSIGN_OR_RETURN(std::string text, ParseString());
        return JsonValue(std::move(text));
      }
      case 't':
        if (ConsumeLiteral("true")) return JsonValue(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return JsonValue(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return JsonValue(nullptr);
        return Error("invalid literal");
      case '\0':
        return Error("unexpected end of input");
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonObject object;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return JsonValue(std::move(object));
    }
    while (true) {
      SkipWhitespace();
      if (Peek() != '"') return Error("expected object key");
      SCD_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (Peek() != ':') return Error("expected ':' after object key");
      ++pos_;
      SCD_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return JsonValue(std::move(object));
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    JsonArray array;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return JsonValue(std::move(array));
    }
    while (true) {
      SCD_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      array.push_back(std::move(value));
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return JsonValue(std::move(array));
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= input_.size()) return Error("unterminated string");
      char c = input_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= input_.size()) return Error("unterminated escape");
      char escape = input_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          SCD_ASSIGN_OR_RETURN(uint32_t code, ParseHex4());
          // Surrogate pair handling.
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 1 < input_.size() && input_[pos_] == '\\' &&
                input_[pos_ + 1] == 'u') {
              pos_ += 2;
              SCD_ASSIGN_OR_RETURN(uint32_t low, ParseHex4());
              if (low < 0xDC00 || low > 0xDFFF) {
                return Error("invalid low surrogate");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
              return Error("unpaired high surrogate");
            }
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(code, &out);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Result<uint32_t> ParseHex4() {
    if (input_.size() - pos_ < 4) return Error("truncated \\u escape");
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      char c = input_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    return code;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<JsonValue> ParseNumber() {
    size_t begin = pos_;
    if (Peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
      return Error("invalid number");
    }
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Error("digit expected after decimal point");
      }
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Error("digit expected in exponent");
      }
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    std::string literal(input_.substr(begin, pos_ - begin));
    char* end = nullptr;
    double value = std::strtod(literal.c_str(), &end);
    if (end != literal.c_str() + literal.size() || !std::isfinite(value)) {
      return Error("number out of range");
    }
    return JsonValue(value);
  }

  std::string_view input_;
  size_t pos_ = 0;
};

void SerializeInto(const JsonValue& value, bool pretty, int indent,
                   std::string* out) {
  auto pad = [&](int level) {
    if (pretty) {
      out->push_back('\n');
      out->append(static_cast<size_t>(level) * 2, ' ');
    }
  };
  switch (value.type()) {
    case JsonType::kNull:
      out->append("null");
      break;
    case JsonType::kBool:
      out->append(value.AsBool().ValueOrDie() ? "true" : "false");
      break;
    case JsonType::kNumber:
      out->append(value.ToFieldString());
      break;
    case JsonType::kString:
      out->push_back('"');
      AppendEscapedJsonString(value.AsString().ValueOrDie(), out);
      out->push_back('"');
      break;
    case JsonType::kArray: {
      const JsonArray& array = *value.AsArray();
      out->push_back('[');
      for (size_t i = 0; i < array.size(); ++i) {
        if (i > 0) out->push_back(',');
        pad(indent + 1);
        SerializeInto(array[i], pretty, indent + 1, out);
      }
      if (!array.empty()) pad(indent);
      out->push_back(']');
      break;
    }
    case JsonType::kObject: {
      const JsonObject& object = *value.AsObject();
      out->push_back('{');
      for (size_t i = 0; i < object.size(); ++i) {
        if (i > 0) out->push_back(',');
        pad(indent + 1);
        out->push_back('"');
        AppendEscapedJsonString(object[i].first, out);
        out->append(pretty ? "\": " : "\":");
        SerializeInto(object[i].second, pretty, indent + 1, out);
      }
      if (!object.empty()) pad(indent);
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

Result<JsonValue> ParseJson(std::string_view input) {
  Parser parser(input);
  return parser.Parse();
}

std::string SerializeJson(const JsonValue& value, bool pretty) {
  std::string out;
  SerializeInto(value, pretty, 0, &out);
  return out;
}

std::string EscapeJsonString(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendEscapedJsonString(text, &out);
  return out;
}

void AppendEscapedJsonString(std::string_view text, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t run = 0;  // start of the pending run of bytes that need no escape
  for (size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default: {
        const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xf]};
        out->append(escaped, sizeof(escaped));
      }
    }
  }
  out->append(text.data() + run, text.size() - run);
}

}  // namespace scdwarf::json
