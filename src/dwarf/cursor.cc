#include "dwarf/cursor.h"

namespace scdwarf::dwarf {

RowCursor::RowCursor(const DwarfCube& cube, std::vector<bool> enumerate,
                     std::vector<std::optional<DimKey>> pinned,
                     RankFilters filters, std::vector<size_t> order)
    : cube_(&cube),
      enumerate_(std::move(enumerate)),
      pinned_(std::move(pinned)),
      filters_(std::move(filters)),
      order_(std::move(order)) {
  for (size_t j = 0; j < order_.size(); ++j) {
    order_identity_ = order_identity_ && order_[j] == j;
  }
  if (!cube.empty() && !Prunable(0)) {
    Frame root;
    root.node = cube.root();
    root.level = 0;
    stack_.push_back(root);
  }
}

Result<RowCursor> RowCursor::OverSlice(const DwarfCube& cube, size_t fixed_dim,
                                       DimKey key) {
  if (fixed_dim >= cube.num_dimensions()) {
    return Status::OutOfRange("slice dimension out of range");
  }
  std::vector<bool> enumerate(cube.num_dimensions(), true);
  enumerate[fixed_dim] = false;
  std::vector<std::optional<DimKey>> pinned(cube.num_dimensions());
  pinned[fixed_dim] = key;
  return RowCursor(cube, std::move(enumerate), std::move(pinned), {}, {});
}

Result<RowCursor> RowCursor::OverRollUp(const DwarfCube& cube,
                                        const std::vector<size_t>& group_dims,
                                        const RankFilters* filters) {
  SCD_ASSIGN_OR_RETURN(std::vector<size_t> order,
                       RollUpKeyOrder(cube.num_dimensions(), group_dims));
  std::vector<bool> enumerate(cube.num_dimensions(), false);
  for (size_t dim : group_dims) enumerate[dim] = true;
  SCD_RETURN_IF_ERROR(ValidateRankFilters(cube, enumerate, filters));
  std::vector<std::optional<DimKey>> pinned(cube.num_dimensions());
  return RowCursor(cube, std::move(enumerate), std::move(pinned),
                   filters != nullptr ? *filters : RankFilters{},
                   std::move(order));
}

bool RowCursor::Prunable(size_t level) const {
  for (size_t dim = level; dim < filters_.size(); ++dim) {
    const std::optional<RankWindow>& window = filters_[dim];
    if (window.has_value() && window->lo > window->hi) return true;
  }
  return false;
}

void RowCursor::EmitRow(Measure measure, std::vector<SliceRow>* out) {
  SliceRow& row = out->emplace_back();
  row.measure = measure;
  row.keys.reserve(labels_.size());
  for (size_t j = 0; j < labels_.size(); ++j) {
    row.keys.push_back(*labels_[order_identity_ ? j : order_[j]]);
  }
}

void RowCursor::PopFrame() {
  if (stack_.back().pushed_label) labels_.pop_back();
  stack_.pop_back();
}

size_t RowCursor::Next(size_t max_rows, std::vector<SliceRow>* out) {
  size_t produced = 0;
  while (produced < max_rows && !stack_.empty()) {
    Frame& frame = stack_.back();
    const NodeView node = cube_->node(frame.node);
    bool leaf = static_cast<size_t>(frame.level) + 1 == cube_->num_dimensions();
    if (enumerate_[frame.level]) {
      if (frame.next_cell == node.cells.size()) {
        PopFrame();
        continue;
      }
      const DwarfCell& cell = node.cells[frame.next_cell++];
      if (!filters_.empty() && filters_[frame.level].has_value()) {
        const RankWindow& window = *filters_[frame.level];
        DimKey rank = cube_->dictionary(frame.level).RankOf(cell.key);
        if (rank < window.lo || rank > window.hi) continue;
      }
      labels_.push_back(
          &cube_->dictionary(frame.level).DecodeUnchecked(cell.key));
      if (leaf) {
        EmitRow(cell.measure, out);
        labels_.pop_back();
        ++produced;
      } else if (Prunable(frame.level + 1)) {
        labels_.pop_back();
      } else {
        Frame child;
        child.node = cell.child;
        child.level = static_cast<uint16_t>(frame.level + 1);
        child.pushed_label = true;  // pops the label pushed above
        stack_.push_back(child);    // invalidates `frame`
      }
      continue;
    }
    if (pinned_[frame.level].has_value()) {
      if (frame.entered) {
        PopFrame();
        continue;
      }
      frame.entered = true;
      const DwarfCell* cell = node.FindCell(*pinned_[frame.level]);
      if (cell == nullptr) {
        PopFrame();
        continue;
      }
      if (leaf) {
        EmitRow(cell->measure, out);
        ++produced;
        PopFrame();
        continue;
      }
      if (Prunable(frame.level + 1)) {
        PopFrame();
        continue;
      }
      Frame child;
      child.node = cell->child;
      child.level = static_cast<uint16_t>(frame.level + 1);
      stack_.push_back(child);
      continue;
    }
    // Rolled-up dimension: follow the precomputed ALL cell.
    if (frame.entered) {
      PopFrame();
      continue;
    }
    frame.entered = true;
    if (leaf) {
      EmitRow(node.all_measure, out);
      ++produced;
      PopFrame();
      continue;
    }
    if (Prunable(frame.level + 1)) {
      PopFrame();
      continue;
    }
    Frame child;
    child.node = node.all_child;
    child.level = static_cast<uint16_t>(frame.level + 1);
    stack_.push_back(child);
  }
  rows_emitted_ += produced;
  return produced;
}

}  // namespace scdwarf::dwarf
