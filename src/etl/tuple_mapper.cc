#include "etl/tuple_mapper.h"

#include <limits>

#include "common/civil_time.h"
#include "common/strings.h"

namespace scdwarf::etl {

const char* TransformName(Transform transform) {
  switch (transform) {
    case Transform::kIdentity: return "identity";
    case Transform::kMonthName: return "month";
    case Transform::kDate: return "date";
    case Transform::kWeekday: return "weekday";
    case Transform::kHour: return "hour";
    case Transform::kBucket10: return "bucket10";
    case Transform::kBucket100: return "bucket100";
  }
  return "?";
}

namespace {

Result<std::string> BucketValue(const std::string& value, int64_t width) {
  SCD_ASSIGN_OR_RETURN(int64_t number, ParseInt64(value));
  // Floor division; the bucket [lo, lo + width - 1] must fit in int64.
  int64_t bucket = number / width - (number % width < 0 ? 1 : 0);
  if (bucket < std::numeric_limits<int64_t>::min() / width ||
      bucket > (std::numeric_limits<int64_t>::max() - (width - 1)) / width) {
    return Status::OutOfRange("bucket bounds out of range: " +
                              std::string(StrTrim(value)));
  }
  int64_t lo = bucket * width;
  return std::to_string(lo) + "-" + std::to_string(lo + width - 1);
}

bool IsCalendar(Transform transform) {
  return transform == Transform::kMonthName || transform == Transform::kDate ||
         transform == Transform::kWeekday || transform == Transform::kHour;
}

/// The key a calendar transform derives from a parsed timestamp.
std::string CalendarKey(Transform transform, const CivilTime& time) {
  switch (transform) {
    case Transform::kMonthName:
      return MonthName(time.month);
    case Transform::kDate:
      return FormatIsoDate(time);
    case Transform::kWeekday:
      return WeekdayName(WeekdayIndex(time.year, time.month, time.day));
    case Transform::kHour: {
      std::string hour;
      AppendZeroPadded(time.hour, 2, &hour);
      return hour;
    }
    default:
      return std::string();  // callers pass calendar transforms only
  }
}

}  // namespace

Result<std::string> ApplyTransform(Transform transform,
                                   const std::string& value) {
  switch (transform) {
    case Transform::kIdentity:
      return value;
    case Transform::kMonthName:
    case Transform::kDate:
    case Transform::kWeekday:
    case Transform::kHour: {
      SCD_ASSIGN_OR_RETURN(CivilTime time, ParseIso(value));
      return CalendarKey(transform, time);
    }
    case Transform::kBucket10:
      return BucketValue(value, 10);
    case Transform::kBucket100:
      return BucketValue(value, 100);
  }
  return Status::Internal("unhandled transform");
}

Result<TupleMapper> TupleMapper::Create(const dwarf::CubeSchema& schema,
                                        std::vector<DimensionMapping> dimensions,
                                        std::string measure_field) {
  SCD_RETURN_IF_ERROR(schema.Validate());
  if (dimensions.size() != schema.num_dimensions()) {
    return Status::InvalidArgument(
        "mapping has " + std::to_string(dimensions.size()) +
        " dimensions, schema has " + std::to_string(schema.num_dimensions()));
  }
  for (const DimensionMapping& dimension : dimensions) {
    if (dimension.field.empty()) {
      return Status::InvalidArgument("dimension mapping with empty field");
    }
  }
  if (measure_field.empty()) {
    return Status::InvalidArgument("measure field must not be empty");
  }
  TupleMapper mapper;
  mapper.dimensions_ = std::move(dimensions);
  mapper.measure_field_ = std::move(measure_field);
  return mapper;
}

Result<std::pair<std::vector<std::string>, dwarf::Measure>> TupleMapper::Map(
    const FeedRecord& record) const {
  std::vector<std::string> keys;
  keys.reserve(dimensions_.size());
  // Calendar dimensions usually share one timestamp field: parse it once.
  const std::string* parsed_field = nullptr;
  CivilTime time;
  for (const DimensionMapping& dimension : dimensions_) {
    const std::string* raw = record.Find(dimension.field);
    if (raw == nullptr) return record.Get(dimension.field).status();
    if (IsCalendar(dimension.transform)) {
      if (raw != parsed_field) {
        auto parsed = ParseIso(*raw);
        if (!parsed.ok()) {
          return parsed.status().WithContext("field '" + dimension.field +
                                             "'");
        }
        time = *parsed;
        parsed_field = raw;
      }
      keys.push_back(CalendarKey(dimension.transform, time));
      continue;
    }
    auto transformed = ApplyTransform(dimension.transform, *raw);
    if (!transformed.ok()) {
      return transformed.status().WithContext("field '" + dimension.field +
                                              "'");
    }
    keys.push_back(*std::move(transformed));
  }
  const std::string* measure_raw = record.Find(measure_field_);
  if (measure_raw == nullptr) return record.Get(measure_field_).status();
  auto measure = ParseInt64(*measure_raw);
  if (!measure.ok()) {
    return measure.status().WithContext("measure field '" + measure_field_ +
                                        "'");
  }
  return std::make_pair(std::move(keys), *measure);
}

}  // namespace scdwarf::etl
