/// \file xml_parser.h
/// \brief DOM parser and serializer for the XML subset that XmlTokenizer
/// (xml_tokenizer.h) reads. The parser builds an XmlElement tree from the
/// tokenizer's events; the tokenizer makes every well-formedness check.

#ifndef SCDWARF_XML_XML_PARSER_H_
#define SCDWARF_XML_XML_PARSER_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "xml/xml_node.h"

namespace scdwarf::xml {

/// \brief Parses \p input into a document. Returns ParseError with
/// "line L, column C" context on malformed input.
Result<XmlDocument> ParseXml(std::string_view input);

/// \brief Serializes \p element (recursively) as indented XML.
std::string SerializeXml(const XmlElement& element, int indent = 0);

/// \brief Serializes a whole document with the XML declaration header.
std::string SerializeXml(const XmlDocument& document);

/// \brief Escapes the five XML special characters in character data.
std::string EscapeXmlText(std::string_view text);

}  // namespace scdwarf::xml

#endif  // SCDWARF_XML_XML_PARSER_H_
