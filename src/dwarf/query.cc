#include "dwarf/query.h"

#include <algorithm>
#include <limits>

#include "dwarf/cursor.h"

namespace scdwarf::dwarf {

bool DimPredicate::Matches(DimKey key) const {
  switch (kind) {
    case Kind::kAll:
      return true;
    case Kind::kPoint:
      return key == point;
    case Kind::kRange:
      return key >= lo && key <= hi;
    case Kind::kSet:
      return std::find(keys.begin(), keys.end(), key) != keys.end();
  }
  return false;
}

bool DimPredicate::MatchesInCube(DimKey key, const Dictionary& dict) const {
  if (kind == Kind::kRange && by_rank) {
    DimKey rank = dict.RankOf(key);
    return rank >= lo && rank <= hi;
  }
  return Matches(key);
}

Status ValidatePredicates(const DwarfCube& cube,
                          const std::vector<DimPredicate>& predicates) {
  if (predicates.size() != cube.num_dimensions()) {
    return Status::InvalidArgument("aggregate query arity mismatch");
  }
  for (size_t dim = 0; dim < predicates.size(); ++dim) {
    const DimPredicate& pred = predicates[dim];
    if (pred.kind != DimPredicate::Kind::kRange) continue;
    if (pred.lo > pred.hi) {
      return Status::InvalidArgument("range predicate on dimension " +
                                     std::to_string(dim) + " has lo > hi");
    }
    if (pred.by_rank && (!cube.schema().dimensions()[dim].ordered ||
                         !cube.dictionary(dim).has_rank_view())) {
      return Status::InvalidArgument(
          "rank range on dimension '" +
          cube.schema().dimensions()[dim].name +
          "', which is not marked ordered in the cube schema");
    }
  }
  return Status::OK();
}

Result<Measure> PointQuery(const DwarfCube& cube,
                           const std::vector<std::optional<DimKey>>& keys) {
  if (keys.size() != cube.num_dimensions()) {
    return Status::InvalidArgument("point query arity mismatch: got " +
                                   std::to_string(keys.size()) + ", cube has " +
                                   std::to_string(cube.num_dimensions()));
  }
  if (cube.empty()) return Status::NotFound("cube is empty");

  NodeId current = cube.root();
  for (size_t level = 0; level < keys.size(); ++level) {
    const NodeView node = cube.node(current);
    bool leaf = level + 1 == keys.size();
    if (keys[level].has_value()) {
      const DwarfCell* cell = node.FindCell(*keys[level]);
      if (cell == nullptr) {
        return Status::NotFound("no data at dimension " + std::to_string(level) +
                                " key id " + std::to_string(*keys[level]));
      }
      if (leaf) return cell->measure;
      current = cell->child;
    } else {
      if (leaf) return node.all_measure;
      current = node.all_child;
    }
  }
  return Status::Internal("unreachable: point query fell through");
}

Result<Measure> PointQueryByName(
    const DwarfCube& cube,
    const std::vector<std::optional<std::string>>& keys) {
  if (keys.size() != cube.num_dimensions()) {
    return Status::InvalidArgument("point query arity mismatch");
  }
  std::vector<std::optional<DimKey>> encoded(keys.size());
  for (size_t dim = 0; dim < keys.size(); ++dim) {
    if (keys[dim].has_value()) {
      SCD_ASSIGN_OR_RETURN(DimKey id, cube.dictionary(dim).Lookup(*keys[dim]));
      encoded[dim] = id;
    }
  }
  return PointQuery(cube, encoded);
}

namespace {

/// Recursive evaluator for AggregateQuery.
struct AggregateEvaluator {
  const DwarfCube& cube;
  const std::vector<DimPredicate>& predicates;
  AggFn agg;
  Measure accumulated;
  bool found = false;

  void Visit(NodeId id, size_t level) {
    const NodeView node = cube.node(id);
    const DimPredicate& pred = predicates[level];
    bool leaf = level + 1 == predicates.size();
    if (pred.kind == DimPredicate::Kind::kAll) {
      // Use the precomputed ALL aggregate instead of fanning out.
      if (leaf) {
        if (!node.cells.empty()) {
          accumulated = AggCombine(agg, accumulated, node.all_measure);
          found = true;
        }
      } else {
        Visit(node.all_child, level + 1);
      }
      return;
    }
    if (pred.kind == DimPredicate::Kind::kPoint) {
      const DwarfCell* cell = node.FindCell(pred.point);
      if (cell == nullptr) return;
      if (leaf) {
        accumulated = AggCombine(agg, accumulated, cell->measure);
        found = true;
      } else {
        Visit(cell->child, level + 1);
      }
      return;
    }
    if (pred.kind == DimPredicate::Kind::kRange && !pred.by_rank) {
      // Cells are sorted by key, so an id range is a contiguous window.
      auto it = std::lower_bound(
          node.cells.begin(), node.cells.end(), pred.lo,
          [](const DwarfCell& cell, DimKey k) { return cell.key < k; });
      for (; it != node.cells.end() && it->key <= pred.hi; ++it) {
        Take(*it, leaf, level);
      }
      return;
    }
    const Dictionary& dict = cube.dictionary(level);
    for (const DwarfCell& cell : node.cells) {
      if (!pred.MatchesInCube(cell.key, dict)) continue;
      Take(cell, leaf, level);
    }
  }

  void Take(const DwarfCell& cell, bool leaf, size_t level) {
    if (leaf) {
      accumulated = AggCombine(agg, accumulated, cell.measure);
      found = true;
    } else {
      Visit(cell.child, level + 1);
    }
  }
};

}  // namespace

Result<Measure> AggregateQuery(const DwarfCube& cube,
                               const std::vector<DimPredicate>& predicates) {
  SCD_RETURN_IF_ERROR(ValidatePredicates(cube, predicates));
  if (cube.empty()) return Status::NotFound("cube is empty");
  AggregateEvaluator evaluator{cube, predicates, cube.agg(),
                               AggIdentity(cube.agg())};
  evaluator.Visit(cube.root(), 0);
  if (!evaluator.found) return Status::NotFound("no tuples match the query");
  return evaluator.accumulated;
}

namespace {

/// The one-shot rows: \p cursor drained in one page.
Result<std::vector<SliceRow>> DrainRows(Result<RowCursor> cursor) {
  SCD_RETURN_IF_ERROR(cursor.status());
  std::vector<SliceRow> rows;
  cursor->Next(std::numeric_limits<size_t>::max(), &rows);
  return rows;
}

}  // namespace

Result<std::vector<SliceRow>> Slice(const DwarfCube& cube, size_t fixed_dim,
                                    DimKey key) {
  return DrainRows(RowCursor::OverSlice(cube, fixed_dim, key));
}

Result<std::vector<SliceRow>> RollUp(const DwarfCube& cube,
                                     const std::vector<size_t>& group_dims,
                                     const RankFilters* filters) {
  return DrainRows(RowCursor::OverRollUp(cube, group_dims, filters));
}

}  // namespace scdwarf::dwarf
