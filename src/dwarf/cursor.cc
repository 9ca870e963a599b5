#include "dwarf/cursor.h"

#include <algorithm>
#include <ranges>

namespace scdwarf::dwarf {

namespace {

/// Rejects out-of-range (OutOfRange) and duplicate (InvalidArgument) roll-up
/// group dims. The smallest offending dim decides which error comes back.
Status ValidateGroupDims(size_t num_dimensions,
                         const std::vector<size_t>& group_dims) {
  size_t in_range = 0;
  for (size_t dim = 0; dim < num_dimensions; ++dim) {
    auto copies = static_cast<size_t>(
        std::count(group_dims.begin(), group_dims.end(), dim));
    if (copies > 1) {
      return Status::InvalidArgument("duplicate group dimension " +
                                     std::to_string(dim));
    }
    in_range += copies;
  }
  if (in_range < group_dims.size()) {
    return Status::OutOfRange("group dimension out of range");
  }
  return Status::OK();
}

/// Validates roll-up rank filters: one slot per cube dimension, and every
/// set window on a grouped dimension that the schema marks ordered.
Status ValidateRankFilters(const DwarfCube& cube,
                           const std::vector<size_t>& group_dims,
                           const RankFilters* filters) {
  if (filters == nullptr) return Status::OK();
  if (filters->size() != cube.num_dimensions()) {
    return Status::InvalidArgument("rank filter arity mismatch");
  }
  for (size_t dim = 0; dim < filters->size(); ++dim) {
    if (!(*filters)[dim].has_value()) continue;
    const std::string& name = cube.schema().dimensions()[dim].name;
    if (std::find(group_dims.begin(), group_dims.end(), dim) ==
        group_dims.end()) {
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

}  // namespace

RowCursor::RowCursor(const DwarfCube& cube, std::vector<Frame> frames,
                     size_t pinned_dim, DimKey pinned_key)
    : cube_(&cube),
      frames_(std::move(frames)),
      labels_(frames_.size()),
      pinned_dim_(pinned_dim),
      pinned_key_(pinned_key) {
  // No row comes out of an empty cube, past an empty rank window, or under a
  // pinned key past the dictionary, which no cell holds.
  bool empty = cube.empty() ||
               (pinned_dim < cube.num_dimensions() &&
                pinned_key >= cube.dictionary(pinned_dim).size());
  for (Frame& frame : frames_) {
    frame.dict = &cube.dictionary(frame.dim);
    empty = empty ||
            (frame.window.has_value() && frame.window->lo > frame.window->hi);
  }
  if (empty) {
    done_ = true;
    return;
  }
  Frame* top = frames_.data();
  Measure measure = 0;
  if (Descend(cube.root(), 0, &top, &measure)) root_row_ = measure;
  depth_ = static_cast<size_t>(top - frames_.data());
}

Result<RowCursor> RowCursor::OverSlice(const DwarfCube& cube, size_t fixed_dim,
                                       DimKey key) {
  if (fixed_dim >= cube.num_dimensions()) {
    return Status::OutOfRange("slice dimension out of range");
  }
  std::vector<Frame> frames(cube.num_dimensions() - 1);
  for (size_t j = 0; j < frames.size(); ++j) {
    frames[j].dim = j < fixed_dim ? j : j + 1;
    frames[j].slot = j;
  }
  return RowCursor(cube, std::move(frames), fixed_dim, key);
}

Result<RowCursor> RowCursor::OverRollUp(const DwarfCube& cube,
                                        const std::vector<size_t>& group_dims,
                                        const RankFilters* filters) {
  SCD_RETURN_IF_ERROR(ValidateGroupDims(cube.num_dimensions(), group_dims));
  SCD_RETURN_IF_ERROR(ValidateRankFilters(cube, group_dims, filters));
  std::vector<Frame> frames(group_dims.size());
  for (size_t j = 0; j < group_dims.size(); ++j) {
    // The j-th requested dim's frame follows the frames of the smaller ones.
    auto at = static_cast<size_t>(
        std::count_if(group_dims.begin(), group_dims.end(),
                      [&](size_t dim) { return dim < group_dims[j]; }));
    frames[at].dim = group_dims[j];
    frames[at].slot = j;
    if (filters != nullptr) frames[at].window = (*filters)[group_dims[j]];
  }
  return RowCursor(cube, std::move(frames), cube.num_dimensions(), 0);
}

inline bool RowCursor::Descend(NodeId id, size_t level, Frame** top,
                               Measure* measure) {
  const size_t num_dims = cube_->num_dimensions();
  const size_t grouped =
      *top != frames_.data() + frames_.size() ? (*top)->dim : num_dims;
  for (;; ++level) {
    const NodeView node = cube_->node(id);
    if (level == grouped) {
      (*top)->next = node.cells.begin();
      (*top)->end = node.cells.end();
      ++*top;
      return false;
    }
    const bool leaf = level + 1 == num_dims;
    if (level == pinned_dim_) {
      const DwarfCell* cell = node.FindCell(pinned_key_);
      if (cell == nullptr) return false;
      if (leaf) {
        *measure = cell->measure;
        return true;
      }
      id = cell->child;
    } else {
      // Rolled-up dimension: follow the precomputed ALL cell.
      if (leaf) {
        *measure = node.all_measure;
        return true;
      }
      id = node.all_child;
    }
  }
}

void RowCursor::EmitRow(Measure measure, std::vector<SliceRow>* out) const {
  SliceRow& row = out->emplace_back();
  row.measure = measure;
  auto labels = std::views::transform(
      labels_, [](const std::string* label) -> const std::string& {
        return *label;
      });
  row.keys.assign(labels.begin(), labels.end());
}

size_t RowCursor::Next(size_t max_rows, std::vector<SliceRow>* out) {
  size_t produced = 0;
  if (root_row_.has_value() && max_rows > 0) {
    EmitRow(*root_row_, out);
    root_row_.reset();
    produced = 1;
    // A one-dimension walk ends at the root it started from.
    done_ = cube_->num_dimensions() == 1;
  }
  const size_t leaf_dim = cube_->num_dimensions() - 1;
  Frame* const base = frames_.data();
  Frame* top = base + depth_;  // one past the innermost open frame
  while (produced < max_rows) {
    if (top == base) {
      done_ = true;
      break;
    }
    Frame& frame = top[-1];
    if (frame.next == frame.end) {
      --top;
      continue;
    }
    const DwarfCell& cell = *frame.next++;
    if (frame.window.has_value()) {
      DimKey rank = frame.dict->RankOf(cell.key);
      if (rank < frame.window->lo || rank > frame.window->hi) continue;
    }
    labels_[frame.slot] = &frame.dict->DecodeUnchecked(cell.key);
    Measure measure = 0;
    if (frame.dim == leaf_dim) {
      measure = cell.measure;
    } else if (!Descend(cell.child, frame.dim + 1, &top, &measure)) {
      continue;
    }
    EmitRow(measure, out);
    ++produced;
  }
  depth_ = static_cast<size_t>(top - base);
  return produced;
}

}  // namespace scdwarf::dwarf
