/// \file strings.h
/// \brief Small string utilities shared by the parsers, query languages and
/// report formatters.

#ifndef SCDWARF_COMMON_STRINGS_H_
#define SCDWARF_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace scdwarf {

/// \brief Splits \p input on \p delimiter. Adjacent delimiters produce empty
/// fields; an empty input produces a single empty field.
std::vector<std::string> StrSplit(std::string_view input, char delimiter);

/// \brief Joins \p parts with \p separator.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view separator);

/// \brief Removes leading and trailing ASCII whitespace.
std::string_view StrTrim(std::string_view input);

/// \brief ASCII lower-casing (locale independent).
std::string AsciiToLower(std::string_view input);

/// \brief ASCII upper-casing (locale independent).
std::string AsciiToUpper(std::string_view input);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// \brief Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// \brief Parses a base-10 signed integer; rejects trailing garbage.
Result<int64_t> ParseInt64(std::string_view text);

/// \brief Parses a floating-point number; rejects trailing garbage.
Result<double> ParseDouble(std::string_view text);

/// \brief Quotes a string for embedding in a CQL/SQL literal: wraps in single
/// quotes and doubles any embedded single quote.
std::string QuoteSqlString(std::string_view text);

/// \brief Formats a byte count as a human-readable string ("1.2 MB").
std::string FormatBytes(uint64_t bytes);

/// \brief Formats \p value with thousands separators ("1,181,344").
std::string FormatWithCommas(int64_t value);

/// \brief printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// \brief Appends \p value as printf's "%0<width>d" prints it, without
/// printf: zero-padded to \p width characters, the sign counted in them.
void AppendZeroPadded(int value, int width, std::string* out);

}  // namespace scdwarf

#endif  // SCDWARF_COMMON_STRINGS_H_
