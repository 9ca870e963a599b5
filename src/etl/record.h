/// \file record.h
/// \brief Flat field records produced by the feed extractors — the common
/// shape between XML and JSON inputs, from which cube tuples are mapped.

#ifndef SCDWARF_ETL_RECORD_H_
#define SCDWARF_ETL_RECORD_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace scdwarf::etl {

/// \brief One extracted record: ordered (field, value) pairs. Order follows
/// the extraction spec; duplicate field names keep the first value.
class FeedRecord {
 public:
  void Set(std::string name, std::string value) {
    if (Find(name) == nullptr) {
      fields_.emplace_back(std::move(name), std::move(value));
    }
  }

  /// Field value or NotFound.
  Result<std::string> Get(std::string_view name) const {
    const std::string* value = Find(name);
    if (value == nullptr) {
      return Status::NotFound("record has no field '" + std::string(name) + "'");
    }
    return *value;
  }

  bool Has(std::string_view name) const { return Find(name) != nullptr; }

  /// Field value or nullptr, without the copy Get() makes; valid until the
  /// record changes.
  const std::string* Find(std::string_view name) const {
    for (const auto& [field_name, value] : fields_) {
      if (field_name == name) return &value;
    }
    return nullptr;
  }

  const std::vector<std::pair<std::string, std::string>>& fields() const {
    return fields_;
  }
  size_t size() const { return fields_.size(); }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace scdwarf::etl

#endif  // SCDWARF_ETL_RECORD_H_
