#include <gtest/gtest.h>

#include <climits>

#include "common/civil_time.h"
#include "common/strings.h"

namespace scdwarf {
namespace {

TEST(CivilTimeTest, EpochRoundTrip) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  CivilTime epoch = CivilFromDays(0);
  EXPECT_EQ(epoch.year, 1970);
  EXPECT_EQ(epoch.month, 1);
  EXPECT_EQ(epoch.day, 1);
}

TEST(CivilTimeTest, KnownDates) {
  EXPECT_EQ(DaysFromCivil(2016, 1, 1), 16801);
  EXPECT_EQ(DaysFromCivil(2000, 3, 1), 11017);
  EXPECT_EQ(DaysFromCivil(1969, 12, 31), -1);
}

TEST(CivilTimeTest, DaysRoundTripSweep) {
  // Every 17 days across ~30 years round-trips exactly.
  for (int64_t days = -4000; days < 16000; days += 17) {
    CivilTime time = CivilFromDays(days);
    EXPECT_EQ(DaysFromCivil(time.year, time.month, time.day), days);
  }
}

TEST(CivilTimeTest, SecondsRoundTrip) {
  CivilTime time{2016, 7, 5, 14, 30, 59};
  EXPECT_EQ(CivilFromSeconds(SecondsFromCivil(time)), time);
  CivilTime before_epoch{1969, 12, 31, 23, 59, 59};
  EXPECT_EQ(CivilFromSeconds(SecondsFromCivil(before_epoch)), before_epoch);
}

TEST(CivilTimeTest, Weekdays) {
  EXPECT_EQ(WeekdayIndex(1970, 1, 1), 3);   // Thursday
  EXPECT_EQ(WeekdayIndex(2016, 1, 1), 4);   // Friday
  EXPECT_EQ(WeekdayIndex(2016, 3, 15), 1);  // EDBT 2016 workshop day: Tuesday
  EXPECT_STREQ(WeekdayName(0), "Monday");
  EXPECT_STREQ(WeekdayName(6), "Sunday");
  EXPECT_STREQ(WeekdayName(9), "?");
}

TEST(CivilTimeTest, MonthHelpers) {
  EXPECT_STREQ(MonthName(1), "January");
  EXPECT_STREQ(MonthName(12), "December");
  EXPECT_STREQ(MonthName(0), "?");
  EXPECT_EQ(DaysInMonth(2016, 2), 29);  // leap
  EXPECT_EQ(DaysInMonth(2015, 2), 28);
  EXPECT_EQ(DaysInMonth(2000, 2), 29);  // 400-year rule
  EXPECT_EQ(DaysInMonth(1900, 2), 28);  // 100-year rule
  EXPECT_EQ(DaysInMonth(2016, 4), 30);
}

TEST(CivilTimeTest, FormatIso) {
  CivilTime time{2016, 1, 5, 8, 3, 0};
  EXPECT_EQ(FormatIso(time), "2016-01-05T08:03:00");
  EXPECT_EQ(FormatIsoDate(time), "2016-01-05");
}

TEST(CivilTimeTest, FormatIsoDateMatchesPrintf) {
  // FormatIsoDate takes any CivilTime, so every int pads like %04d / %02d.
  for (int year : {-5, 0, 999, 2016, 12345, -1, -999, -1000, INT_MIN,
                   INT_MAX}) {
    for (int month : {1, 9, 12, 0, -1, -10, 123}) {
      for (int day : {1, 10, 31, INT_MIN}) {
        CivilTime time{year, month, day, 0, 0, 0};
        EXPECT_EQ(FormatIsoDate(time),
                  StrFormat("%04d-%02d-%02d", year, month, day));
      }
    }
  }
}

TEST(CivilTimeTest, ParseIsoVariants) {
  auto full = ParseIso("2016-01-05T08:03:09");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->hour, 8);
  EXPECT_EQ(full->second, 9);
  auto with_space = ParseIso("2016-01-05 08:03:09");
  ASSERT_TRUE(with_space.ok());
  EXPECT_EQ(with_space->minute, 3);
  auto date_only = ParseIso("2016-01-05");
  ASSERT_TRUE(date_only.ok());
  EXPECT_EQ(date_only->hour, 0);
  auto no_seconds = ParseIso("2016-01-05T08:03");
  ASSERT_TRUE(no_seconds.ok());
  EXPECT_EQ(no_seconds->second, 0);
}

TEST(CivilTimeTest, ParseIsoRejectsBadInput) {
  for (const char* bad : {"", "not a date", "2016-13-01", "2016-02-30",
                          "2016-01-05T25:00:00", "2016-01-05T08:61:00"}) {
    EXPECT_FALSE(ParseIso(bad).ok()) << bad;
  }
}

TEST(CivilTimeTest, ParseFormatRoundTrip) {
  for (const char* text : {"2016-01-05T08:03:09", "1999-12-31T23:59:59",
                           "2024-02-29T00:00:00"}) {
    auto parsed = ParseIso(text);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(FormatIso(*parsed), text);
  }
}

}  // namespace
}  // namespace scdwarf
