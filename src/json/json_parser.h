/// \file json_parser.h
/// \brief RFC 8259 JSON parser and serializer.

#ifndef SCDWARF_JSON_JSON_PARSER_H_
#define SCDWARF_JSON_JSON_PARSER_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "json/json_value.h"

namespace scdwarf::json {

/// \brief Parses \p input as a single JSON value; trailing non-whitespace is
/// a ParseError. Nesting depth is capped at 256 to bound recursion.
Result<JsonValue> ParseJson(std::string_view input);

/// \brief Serializes \p value. With \p pretty, uses two-space indentation.
std::string SerializeJson(const JsonValue& value, bool pretty = false);

/// \brief Escapes a string for embedding in JSON output (no quotes added).
std::string EscapeJsonString(std::string_view text);

/// \brief Appends \p text escaped as EscapeJsonString escapes it (no quotes
/// added) to \p out. Each run of bytes that needs no escape is appended with
/// one append, so a label with nothing to escape costs one copy.
void AppendEscapedJsonString(std::string_view text, std::string* out);

}  // namespace scdwarf::json

#endif  // SCDWARF_JSON_JSON_PARSER_H_
