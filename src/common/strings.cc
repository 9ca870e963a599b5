#include "common/strings.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace scdwarf {

std::vector<std::string> StrSplit(std::string_view input, char delimiter) {
  std::vector<std::string> result;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      result.emplace_back(input.substr(start));
      break;
    }
    result.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return result;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view separator) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result.append(separator);
    result.append(parts[i]);
  }
  return result;
}

std::string_view StrTrim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string AsciiToLower(std::string_view input) {
  std::string result(input);
  for (char& c : result) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return result;
}

std::string AsciiToUpper(std::string_view input) {
  std::string result(input);
  for (char& c : result) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return result;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

Result<int64_t> ParseInt64(std::string_view text) {
  text = StrTrim(text);
  if (text.empty()) return Status::ParseError("empty integer literal");
  std::string buffer(text);
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(buffer.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("integer literal out of range: " + buffer);
  }
  if (end != buffer.c_str() + buffer.size()) {
    return Status::ParseError("invalid integer literal: " + buffer);
  }
  return static_cast<int64_t>(value);
}

Result<double> ParseDouble(std::string_view text) {
  text = StrTrim(text);
  if (text.empty()) return Status::ParseError("empty float literal");
  std::string buffer(text);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buffer.c_str(), &end);
  if (errno == ERANGE) {
    return Status::OutOfRange("float literal out of range: " + buffer);
  }
  if (end != buffer.c_str() + buffer.size()) {
    return Status::ParseError("invalid float literal: " + buffer);
  }
  return value;
}

std::string QuoteSqlString(std::string_view text) {
  std::string result;
  result.reserve(text.size() + 2);
  result.push_back('\'');
  for (char c : text) {
    if (c == '\'') result.push_back('\'');
    result.push_back(c);
  }
  result.push_back('\'');
  return result;
}

std::string FormatBytes(uint64_t bytes) {
  constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buffer[64];
  if (unit == 0) {
    std::snprintf(buffer, sizeof(buffer), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.1f %s", value, kUnits[unit]);
  }
  return buffer;
}

std::string FormatWithCommas(int64_t value) {
  std::string digits = std::to_string(value < 0 ? -value : value);
  std::string result;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) result.push_back(',');
    result.push_back(*it);
    ++count;
  }
  if (value < 0) result.push_back('-');
  return {result.rbegin(), result.rend()};
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string result;
  if (needed > 0) {
    result.resize(static_cast<size_t>(needed));
    std::vsnprintf(result.data(), result.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return result;
}

void AppendZeroPadded(int value, int width, std::string* out) {
  // The magnitude in unsigned arithmetic, where INT_MIN negates cleanly.
  unsigned magnitude = value < 0 ? 0u - static_cast<unsigned>(value)
                                 : static_cast<unsigned>(value);
  char digits[10];
  int count = 0;
  do {
    digits[count++] = static_cast<char>('0' + magnitude % 10);
    magnitude /= 10;
  } while (magnitude != 0);
  if (value < 0) out->push_back('-');
  for (int pad = width - count - (value < 0 ? 1 : 0); pad > 0; --pad) {
    out->push_back('0');
  }
  while (count > 0) out->push_back(digits[--count]);
}

}  // namespace scdwarf
