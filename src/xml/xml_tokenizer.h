/// \file xml_tokenizer.h
/// \brief Event tokenizer for the XML subset produced by smart-city web
/// feeds: elements, attributes, character data, CDATA, comments, processing
/// instructions, DOCTYPE skipping and the five named entities plus numeric
/// character references.
///
/// Every well-formedness check lives here, so the DOM parser (ParseXml) and
/// the streaming feed extractor accept and reject the same inputs with the
/// same messages.
///
/// Not supported (rejected with ParseError where encountered): internal DTD
/// subsets with entity definitions, namespaces beyond treating ':' as a name
/// character.

#ifndef SCDWARF_XML_XML_TOKENIZER_H_
#define SCDWARF_XML_XML_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace scdwarf::xml {

/// \brief One attribute of a start tag, entities decoded.
struct XmlAttribute {
  std::string_view name;
  std::string_view value;
};

/// \brief Pull tokenizer over one document.
///
/// \code
///   XmlTokenizer tokenizer(input);
///   for (;;) {
///     SCD_ASSIGN_OR_RETURN(XmlTokenizer::Token token, tokenizer.Next());
///     if (token == XmlTokenizer::Token::kEndOfDocument) break;
///     ...
///   }
/// \endcode
///
/// Views returned by the accessors point into the input or into the
/// tokenizer and stay valid until the next call to Next(). An element's
/// character data may arrive as several kText tokens, split around child
/// elements, entities and CDATA; concatenated and trimmed they give
/// XmlElement::text().
class XmlTokenizer {
 public:
  enum class Token {
    kStartElement,   ///< name() and attributes() of a start tag
    kText,           ///< text(): a run of character data, one decoded
                     ///< entity or one CDATA section
    kEndElement,     ///< name(); also follows a self-closing start tag
    kEndOfDocument,  ///< the document element closed, trailing misc checked
  };

  explicit XmlTokenizer(std::string_view input) : input_(input) {}

  /// Advances to the next token. Malformed input gives a ParseError whose
  /// message ends in "at line L, column C"; the tokenizer is then spent.
  Result<Token> Next();

  std::string_view name() const { return open_.back(); }
  std::string_view text() const { return text_; }
  const std::vector<XmlAttribute>& attributes() const { return attributes_; }

  /// Names of the open elements, the document element first. At a start
  /// or end element the last entry is that element.
  const std::vector<std::string_view>& open_elements() const { return open_; }

 private:
  enum class State { kProlog, kContent, kSelfClosed, kTrailing, kDone };

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return pos_ < input_.size() ? input_[pos_] : '\0'; }
  bool StartsWith(std::string_view literal) const {
    return input_.substr(pos_, literal.size()) == literal;
  }
  void SkipWhitespace();

  Status Error(const std::string& message) const;
  Status SkipPast(std::string_view terminator);
  Status SkipProlog();
  Result<std::string_view> ParseName();
  /// Parses a start tag after its '<', pushing the element on open_.
  Status ParseStartTag();
  /// Parses the quoted value of attribute \p name and appends the pair.
  Status ParseAttributeValue(std::string_view name);
  /// Decodes the entity reference after a consumed '&' onto \p out.
  Status DecodeEntity(std::string* out);

  std::string_view input_;
  size_t pos_ = 0;
  State state_ = State::kProlog;
  bool pop_pending_ = false;
  std::vector<std::string_view> open_;
  std::string_view text_;
  std::string entity_;
  std::vector<XmlAttribute> attributes_;
  /// Attribute values whose raw text held entities, decoded back to back;
  /// their views are set once the start tag is complete, since appending
  /// may move the buffer.
  struct DecodedSpan {
    size_t attribute;
    size_t offset;
    size_t size;
  };
  std::string decoded_;
  std::vector<DecodedSpan> decoded_spans_;
};

}  // namespace scdwarf::xml

#endif  // SCDWARF_XML_XML_TOKENIZER_H_
