#include "xml/xml_tokenizer.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>

namespace scdwarf::xml {

namespace {

// ASCII classes; the program never changes the "C" locale, where
// std::isalpha and std::isspace agree with these.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsNameStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

void AppendUtf8(uint32_t code, std::string* out) {
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

}  // namespace

void XmlTokenizer::SkipWhitespace() {
  while (pos_ < input_.size() && IsSpace(input_[pos_])) ++pos_;
}

Status XmlTokenizer::Error(const std::string& message) const {
  // Line and column are derived here, off the hot path.
  std::string_view before = input_.substr(0, pos_);
  size_t line = 1 + std::count(before.begin(), before.end(), '\n');
  size_t last_newline = before.rfind('\n');
  size_t column =
      last_newline == std::string_view::npos ? pos_ + 1 : pos_ - last_newline;
  return Status::ParseError(message + " at line " + std::to_string(line) +
                            ", column " + std::to_string(column));
}

Status XmlTokenizer::SkipPast(std::string_view terminator) {
  size_t found = input_.find(terminator, pos_);
  if (found == std::string_view::npos) {
    pos_ = input_.size();
    return Error("unterminated construct, expected '" +
                 std::string(terminator) + "'");
  }
  pos_ = found + terminator.size();
  return Status::OK();
}

Status XmlTokenizer::SkipProlog() {
  for (;;) {
    SkipWhitespace();
    if (StartsWith("<?")) {
      pos_ += 2;
      SCD_RETURN_IF_ERROR(SkipPast("?>"));
    } else if (StartsWith("<!--")) {
      pos_ += 4;
      SCD_RETURN_IF_ERROR(SkipPast("-->"));
    } else if (StartsWith("<!DOCTYPE")) {
      // Skip a DOCTYPE without an internal subset; reject subsets since we
      // do not implement entity definitions.
      pos_ += 9;
      while (!AtEnd() && input_[pos_] != '>') {
        if (input_[pos_] == '[') {
          return Error("DOCTYPE internal subsets are not supported");
        }
        ++pos_;
      }
      if (AtEnd()) return Error("unterminated DOCTYPE");
      ++pos_;
    } else {
      return Status::OK();
    }
  }
}

Result<std::string_view> XmlTokenizer::ParseName() {
  if (!IsNameStartChar(Peek())) return Error("expected a name");
  size_t begin = pos_++;
  while (pos_ < input_.size() && IsNameChar(input_[pos_])) ++pos_;
  return input_.substr(begin, pos_ - begin);
}

Status XmlTokenizer::DecodeEntity(std::string* out) {
  size_t begin = pos_;
  while (!AtEnd() && input_[pos_] != ';') {
    if (pos_ - begin > 10) return Error("entity reference too long");
    ++pos_;
  }
  if (AtEnd()) return Error("unterminated entity reference");
  std::string_view name = input_.substr(begin, pos_ - begin);
  ++pos_;  // ';'
  if (name == "lt") {
    out->push_back('<');
  } else if (name == "gt") {
    out->push_back('>');
  } else if (name == "amp") {
    out->push_back('&');
  } else if (name == "apos") {
    out->push_back('\'');
  } else if (name == "quot") {
    out->push_back('"');
  } else if (!name.empty() && name[0] == '#') {
    int base = 10;
    std::string_view digits = name.substr(1);
    if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
      base = 16;
      digits.remove_prefix(1);
    }
    if (digits.empty()) return Error("empty character reference");
    char* end = nullptr;
    std::string buffer(digits);
    long code = std::strtol(buffer.c_str(), &end, base);
    if (end != buffer.c_str() + buffer.size() || code <= 0 || code > 0x10FFFF) {
      return Error("invalid character reference '&" + std::string(name) +
                   ";'");
    }
    AppendUtf8(static_cast<uint32_t>(code), out);
  } else {
    return Error("unknown entity '&" + std::string(name) + ";'");
  }
  return Status::OK();
}

Status XmlTokenizer::ParseAttributeValue(std::string_view name) {
  char quote = Peek();
  if (quote != '"' && quote != '\'') {
    return Error("expected quoted attribute value");
  }
  size_t begin = ++pos_;
  size_t offset = decoded_.size();
  bool decoding = false;
  for (;;) {
    size_t run = pos_;
    while (pos_ < input_.size() && input_[pos_] != quote &&
           input_[pos_] != '<' && input_[pos_] != '&') {
      ++pos_;
    }
    if (decoding) decoded_.append(input_.substr(run, pos_ - run));
    if (AtEnd()) return Error("unterminated attribute value");
    if (input_[pos_] == quote) break;
    if (input_[pos_] == '<') return Error("'<' not allowed in attribute value");
    if (!decoding) {
      decoded_.append(input_.substr(begin, pos_ - begin));
      decoding = true;
    }
    ++pos_;  // '&'
    SCD_RETURN_IF_ERROR(DecodeEntity(&decoded_));
  }
  std::string_view value = input_.substr(begin, pos_ - begin);
  ++pos_;  // closing quote
  for (const XmlAttribute& attribute : attributes_) {
    if (attribute.name == name) {
      return Error("duplicate attribute '" + std::string(name) + "'");
    }
  }
  if (decoding) {
    decoded_spans_.push_back(
        {attributes_.size(), offset, decoded_.size() - offset});
    value = {};
  }
  attributes_.push_back({name, value});
  return Status::OK();
}

Status XmlTokenizer::ParseStartTag() {
  SCD_ASSIGN_OR_RETURN(std::string_view name, ParseName());
  attributes_.clear();
  decoded_.clear();
  decoded_spans_.clear();
  for (;;) {
    SkipWhitespace();
    char c = Peek();
    if (c == '>' || c == '/') break;
    SCD_ASSIGN_OR_RETURN(std::string_view attribute, ParseName());
    SkipWhitespace();
    if (Peek() != '=') return Error("expected '=' after attribute name");
    ++pos_;
    SkipWhitespace();
    SCD_RETURN_IF_ERROR(ParseAttributeValue(attribute));
  }
  for (const DecodedSpan& span : decoded_spans_) {
    attributes_[span.attribute].value =
        std::string_view(decoded_).substr(span.offset, span.size);
  }
  if (StartsWith("/>")) {
    pos_ += 2;
    state_ = State::kSelfClosed;
  } else if (Peek() == '>') {
    ++pos_;
    state_ = State::kContent;
  } else {
    return Error("expected '>'");
  }
  open_.push_back(name);
  return Status::OK();
}

Result<XmlTokenizer::Token> XmlTokenizer::Next() {
  if (pop_pending_) {
    pop_pending_ = false;
    open_.pop_back();
    if (open_.empty()) state_ = State::kTrailing;
  }
  switch (state_) {
    case State::kProlog:
      SCD_RETURN_IF_ERROR(SkipProlog());
      if (Peek() != '<') return Error("expected '<'");
      ++pos_;
      SCD_RETURN_IF_ERROR(ParseStartTag());
      return Token::kStartElement;

    case State::kSelfClosed:
      state_ = State::kContent;
      pop_pending_ = true;
      return Token::kEndElement;

    case State::kContent:
      for (;;) {
        if (AtEnd()) {
          return Error("unexpected end of input inside <" +
                       std::string(open_.back()) + ">");
        }
        // Most content is text, a child or an end tag; test those first.
        char c = input_[pos_];
        if (c != '<' && c != '&') {
          size_t begin = pos_;
          while (pos_ < input_.size() && input_[pos_] != '<' &&
                 input_[pos_] != '&') {
            ++pos_;
          }
          text_ = input_.substr(begin, pos_ - begin);
          return Token::kText;
        }
        if (c == '&') {
          ++pos_;
          entity_.clear();
          SCD_RETURN_IF_ERROR(DecodeEntity(&entity_));
          text_ = entity_;
          return Token::kText;
        }
        char next = pos_ + 1 < input_.size() ? input_[pos_ + 1] : '\0';
        if (next == '/') {
          pos_ += 2;
          SCD_ASSIGN_OR_RETURN(std::string_view name, ParseName());
          if (name != open_.back()) {
            return Error("mismatched closing tag </" + std::string(name) +
                         "> for <" + std::string(open_.back()) + ">");
          }
          SkipWhitespace();
          if (Peek() != '>') return Error("expected '>' in closing tag");
          ++pos_;
          pop_pending_ = true;
          return Token::kEndElement;
        }
        if (next == '!' && StartsWith("<!--")) {
          pos_ += 4;
          SCD_RETURN_IF_ERROR(SkipPast("-->"));
          continue;
        }
        if (next == '!' && StartsWith("<![CDATA[")) {
          pos_ += 9;
          size_t end = input_.find("]]>", pos_);
          if (end == std::string_view::npos) {
            pos_ = input_.size();
            return Error("unterminated CDATA section");
          }
          text_ = input_.substr(pos_, end - pos_);
          pos_ = end + 3;
          return Token::kText;
        }
        if (next == '?') {
          pos_ += 2;
          SCD_RETURN_IF_ERROR(SkipPast("?>"));
          continue;
        }
        ++pos_;
        SCD_RETURN_IF_ERROR(ParseStartTag());
        return Token::kStartElement;
      }

    case State::kTrailing:
      // Trailing misc: whitespace, comments, PIs.
      for (;;) {
        SkipWhitespace();
        if (AtEnd()) break;
        if (StartsWith("<!--")) {
          pos_ += 4;
          SCD_RETURN_IF_ERROR(SkipPast("-->"));
        } else if (StartsWith("<?")) {
          pos_ += 2;
          SCD_RETURN_IF_ERROR(SkipPast("?>"));
        } else {
          return Error("unexpected content after document element");
        }
      }
      state_ = State::kDone;
      return Token::kEndOfDocument;

    case State::kDone:
      return Token::kEndOfDocument;
  }
  return Status::Internal("unhandled tokenizer state");
}

}  // namespace scdwarf::xml
