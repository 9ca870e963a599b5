#include "common/civil_time.h"

#include <cstdio>

#include "common/strings.h"

namespace scdwarf {

int64_t DaysFromCivil(int year, int month, int day) {
  year -= month <= 2;
  const int64_t era = (year >= 0 ? year : year - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(year - era * 400);           // [0, 399]
  const unsigned doy =
      (153u * static_cast<unsigned>(month + (month > 2 ? -3 : 9)) + 2) / 5 +
      static_cast<unsigned>(day) - 1;                                     // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;             // [0, 146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

CivilTime CivilFromDays(int64_t days) {
  days += 719468;
  const int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(days - era * 146097);  // [0, 146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;        // [0, 399]
  const int64_t year = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);     // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                          // [0, 11]
  const unsigned day = doy - (153 * mp + 2) / 5 + 1;                // [1, 31]
  const unsigned month = mp + (mp < 10 ? 3 : static_cast<unsigned>(-9));
  CivilTime time;
  time.year = static_cast<int>(year + (month <= 2));
  time.month = static_cast<int>(month);
  time.day = static_cast<int>(day);
  return time;
}

int64_t SecondsFromCivil(const CivilTime& time) {
  return DaysFromCivil(time.year, time.month, time.day) * 86400 +
         time.hour * 3600 + time.minute * 60 + time.second;
}

CivilTime CivilFromSeconds(int64_t seconds) {
  int64_t days = seconds / 86400;
  int64_t rem = seconds % 86400;
  if (rem < 0) {
    rem += 86400;
    --days;
  }
  CivilTime time = CivilFromDays(days);
  time.hour = static_cast<int>(rem / 3600);
  time.minute = static_cast<int>((rem % 3600) / 60);
  time.second = static_cast<int>(rem % 60);
  return time;
}

int WeekdayIndex(int year, int month, int day) {
  // 1970-01-01 was a Thursday (index 3 with Monday = 0).
  int64_t days = DaysFromCivil(year, month, day);
  return static_cast<int>(((days % 7) + 7 + 3) % 7);
}

const char* WeekdayName(int weekday_index) {
  static constexpr const char* kNames[] = {
      "Monday", "Tuesday", "Wednesday", "Thursday",
      "Friday", "Saturday", "Sunday"};
  if (weekday_index < 0 || weekday_index > 6) return "?";
  return kNames[weekday_index];
}

const char* MonthName(int month) {
  static constexpr const char* kNames[] = {
      "January", "February", "March",     "April",   "May",      "June",
      "July",    "August",   "September", "October", "November", "December"};
  if (month < 1 || month > 12) return "?";
  return kNames[month - 1];
}

int DaysInMonth(int year, int month) {
  static constexpr int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12) return 0;
  if (month == 2) {
    bool leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
    return leap ? 29 : 28;
  }
  return kDays[month - 1];
}

std::string FormatIso(const CivilTime& time) {
  return StrFormat("%04d-%02d-%02dT%02d:%02d:%02d", time.year, time.month,
                   time.day, time.hour, time.minute, time.second);
}

std::string FormatIsoDate(const CivilTime& time) {
  std::string out;
  out.reserve(10);
  AppendZeroPadded(time.year, 4, &out);
  out.push_back('-');
  AppendZeroPadded(time.month, 2, &out);
  out.push_back('-');
  AppendZeroPadded(time.day, 2, &out);
  return out;
}

Result<CivilTime> ParseIso(std::string_view text) {
  text = StrTrim(text);
  CivilTime time;
  int matched = std::sscanf(std::string(text).c_str(),
                            "%d-%d-%d%*1[T ]%d:%d:%d", &time.year, &time.month,
                            &time.day, &time.hour, &time.minute, &time.second);
  if (matched != 3 && matched != 5 && matched != 6) {
    return Status::ParseError("invalid ISO timestamp '" + std::string(text) +
                              "'");
  }
  if (time.month < 1 || time.month > 12 || time.day < 1 ||
      time.day > DaysInMonth(time.year, time.month) || time.hour < 0 ||
      time.hour > 23 || time.minute < 0 || time.minute > 59 ||
      time.second < 0 || time.second > 59) {
    return Status::ParseError("out-of-range field in ISO timestamp '" +
                              std::string(text) + "'");
  }
  return time;
}

}  // namespace scdwarf
