#include "dwarf/query.h"

#include <algorithm>

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

Status ValidateRankFilters(const DwarfCube& cube,
                           const std::vector<bool>& enumerate,
                           const RankFilters* filters) {
  if (filters == nullptr) return Status::OK();
  if (filters->size() != cube.num_dimensions()) {
    return Status::InvalidArgument("rank filter arity mismatch");
  }
  for (size_t dim = 0; dim < filters->size(); ++dim) {
    if (!(*filters)[dim].has_value()) continue;
    const std::string& name = cube.schema().dimensions()[dim].name;
    if (!enumerate[dim]) {
      return Status::InvalidArgument(
          "rank filter on dimension '" + name +
          "', which is not a grouped dimension of this roll-up");
    }
    if (!cube.schema().dimensions()[dim].ordered ||
        !cube.dictionary(dim).has_rank_view()) {
      return Status::InvalidArgument(
          "rank filter on dimension '" + name +
          "', which is not marked ordered in the cube schema");
    }
  }
  return Status::OK();
}

Result<std::vector<size_t>> RollUpKeyOrder(
    size_t num_dimensions, const std::vector<size_t>& group_dims) {
  std::vector<size_t> sorted = group_dims;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] >= num_dimensions) {
      return Status::OutOfRange("group dimension out of range");
    }
    if (i > 0 && sorted[i] == sorted[i - 1]) {
      return Status::InvalidArgument("duplicate group dimension " +
                                     std::to_string(sorted[i]));
    }
  }
  // The enumerator emits one key per grouped dim in ascending dimension
  // order; position j of the requested order reads the key at the dim's
  // ascending position.
  std::vector<size_t> order(group_dims.size());
  for (size_t j = 0; j < group_dims.size(); ++j) {
    order[j] = static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), group_dims[j]) -
        sorted.begin());
  }
  return order;
}

namespace {

/// Shared enumerator for Slice and RollUp: dims in `enumerate` are grouped
/// (cells fanned out and labels recorded); dims with a pinned key filter to
/// that key; all remaining dims roll up through the ALL pointer. Grouped
/// dims may carry a rank window, tested per cell.
struct Enumerator {
  const DwarfCube& cube;
  const std::vector<bool>& enumerate;
  const std::vector<std::optional<DimKey>>& pinned;
  std::vector<SliceRow>* rows;
  const RankFilters* filters = nullptr;
  /// Labels of the enumerated levels, pointing into the cube's dictionaries
  /// (the cube outlives the enumerator), so each label is copied once, into
  /// its row.
  std::vector<const std::string*> labels;

  /// True when a rank window at or below \p level is empty: the subtree
  /// cannot yield a row.
  bool Prunable(size_t level) const {
    if (filters == nullptr) return false;
    for (size_t dim = level; dim < filters->size(); ++dim) {
      const std::optional<RankWindow>& window = (*filters)[dim];
      if (window.has_value() && window->lo > window->hi) return true;
    }
    return false;
  }

  void Visit(NodeId id, size_t level) {
    if (Prunable(level)) return;
    const NodeView node = cube.node(id);
    bool leaf = level + 1 == cube.num_dimensions();
    if (enumerate[level]) {
      const Dictionary& dict = cube.dictionary(level);
      const std::optional<RankWindow>& window =
          filters != nullptr ? (*filters)[level] : std::optional<RankWindow>{};
      for (const DwarfCell& cell : node.cells) {
        if (window.has_value()) {
          DimKey rank = dict.RankOf(cell.key);
          if (rank < window->lo || rank > window->hi) continue;
        }
        labels.push_back(&dict.DecodeUnchecked(cell.key));
        Emit(node, cell, leaf, level);
        labels.pop_back();
      }
    } else if (pinned[level].has_value()) {
      const DwarfCell* cell = node.FindCell(*pinned[level]);
      if (cell != nullptr) Emit(node, *cell, leaf, level);
    } else {
      if (leaf) {
        EmitRow(node.all_measure);
      } else {
        Visit(node.all_child, level + 1);
      }
    }
  }

  void Emit(const NodeView&, const DwarfCell& cell, bool leaf, size_t level) {
    if (leaf) {
      EmitRow(cell.measure);
    } else {
      Visit(cell.child, level + 1);
    }
  }

  void EmitRow(Measure measure) {
    SliceRow& row = rows->emplace_back();
    row.measure = measure;
    row.keys.reserve(labels.size());
    for (const std::string* label : labels) row.keys.push_back(*label);
  }
};

}  // namespace

Result<std::vector<SliceRow>> Slice(const DwarfCube& cube, size_t fixed_dim,
                                    DimKey key) {
  if (fixed_dim >= cube.num_dimensions()) {
    return Status::OutOfRange("slice dimension out of range");
  }
  if (cube.empty()) return std::vector<SliceRow>{};
  std::vector<bool> enumerate(cube.num_dimensions(), true);
  enumerate[fixed_dim] = false;
  std::vector<std::optional<DimKey>> pinned(cube.num_dimensions());
  pinned[fixed_dim] = key;
  std::vector<SliceRow> rows;
  Enumerator enumerator{cube, enumerate, pinned, &rows, nullptr, {}};
  enumerator.Visit(cube.root(), 0);
  return rows;
}

Result<std::vector<SliceRow>> RollUp(const DwarfCube& cube,
                                     const std::vector<size_t>& group_dims,
                                     const RankFilters* filters) {
  SCD_ASSIGN_OR_RETURN(std::vector<size_t> order,
                       RollUpKeyOrder(cube.num_dimensions(), group_dims));
  std::vector<bool> enumerate(cube.num_dimensions(), false);
  for (size_t dim : group_dims) enumerate[dim] = true;
  SCD_RETURN_IF_ERROR(ValidateRankFilters(cube, enumerate, filters));
  if (cube.empty()) return std::vector<SliceRow>{};
  std::vector<std::optional<DimKey>> pinned(cube.num_dimensions());
  std::vector<SliceRow> rows;
  Enumerator enumerator{cube, enumerate, pinned, &rows, filters, {}};
  enumerator.Visit(cube.root(), 0);
  // Row keys come out of the enumerator in ascending dimension order;
  // reorder to the caller's requested group_dims order.
  bool identity = true;
  for (size_t j = 0; j < order.size(); ++j) identity = identity && order[j] == j;
  if (!identity) {
    std::vector<std::string> reordered(order.size());
    for (SliceRow& row : rows) {
      for (size_t j = 0; j < order.size(); ++j) {
        reordered[j] = std::move(row.keys[order[j]]);
      }
      row.keys.swap(reordered);
    }
  }
  return rows;
}

}  // namespace scdwarf::dwarf
