/// \file cube_schema.h
/// \brief Logical schema of a cube: ordered dimensions, measure, aggregate.

#ifndef SCDWARF_DWARF_CUBE_SCHEMA_H_
#define SCDWARF_DWARF_CUBE_SCHEMA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "dwarf/aggregate.h"

namespace scdwarf::dwarf {

/// \brief One dimension of the cube. The optional dimension_table names an
/// auxiliary dimension table carrying extra attributes; it is copied into
/// DWARF_Cell.dimension_table_name during the NoSQL mapping (Fig. 3).
///
/// `ordered` declares that the dimension's decoded values carry a total order
/// — lexicographic string order, so it fits ISO dates ("2013-07-01") and
/// zero-padded numerics ("07") but NOT month names ("July" < "June"). Ordered
/// dimensions get a dictionary rank view at cube finalize, enabling
/// value-level range predicates (see query.h).
struct DimensionSpec {
  std::string name;
  std::string dimension_table;  // empty when no dimension table is attached
  bool ordered = false;         // values are ordered by lexicographic compare

  DimensionSpec() = default;
  DimensionSpec(std::string name_in, std::string dimension_table_in = "",
                bool ordered_in = false)
      : name(std::move(name_in)),
        dimension_table(std::move(dimension_table_in)),
        ordered(ordered_in) {}
};

/// \brief Ordered dimensions + measure definition. Dimension order is the
/// DWARF level order: dimension 0 is the root level.
class CubeSchema {
 public:
  CubeSchema() = default;
  CubeSchema(std::string name, std::vector<DimensionSpec> dimensions,
             std::string measure_name, AggFn agg = AggFn::kSum)
      : name_(std::move(name)),
        dimensions_(std::move(dimensions)),
        measure_name_(std::move(measure_name)),
        agg_(agg) {}

  /// Validates that the schema has at least one dimension and unique names.
  Status Validate() const {
    if (dimensions_.empty()) {
      return Status::InvalidArgument("cube schema needs at least one dimension");
    }
    for (size_t i = 0; i < dimensions_.size(); ++i) {
      if (dimensions_[i].name.empty()) {
        return Status::InvalidArgument("dimension " + std::to_string(i) +
                                       " has an empty name");
      }
      for (size_t j = i + 1; j < dimensions_.size(); ++j) {
        if (dimensions_[i].name == dimensions_[j].name) {
          return Status::InvalidArgument("duplicate dimension name '" +
                                         dimensions_[i].name + "'");
        }
      }
    }
    return Status::OK();
  }

  const std::string& name() const { return name_; }
  const std::vector<DimensionSpec>& dimensions() const { return dimensions_; }
  size_t num_dimensions() const { return dimensions_.size(); }
  const std::string& measure_name() const { return measure_name_; }
  AggFn agg() const { return agg_; }

  /// Index of the named dimension, or NotFound.
  Result<size_t> DimensionIndex(const std::string& name) const {
    for (size_t i = 0; i < dimensions_.size(); ++i) {
      if (dimensions_[i].name == name) return i;
    }
    return Status::NotFound("no dimension named '" + name + "'");
  }

 private:
  std::string name_;
  std::vector<DimensionSpec> dimensions_;
  std::string measure_name_;
  AggFn agg_ = AggFn::kSum;
};

}  // namespace scdwarf::dwarf

#endif  // SCDWARF_DWARF_CUBE_SCHEMA_H_
