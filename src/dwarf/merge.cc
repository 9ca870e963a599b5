#include "dwarf/merge.h"

#include <utility>

#include "common/logging.h"

namespace scdwarf::dwarf {

Result<DwarfCube> CubeMerger::Merge(uint64_t tuple_count,
                                    uint64_t source_tuple_count,
                                    uint64_t* nodes_reused) {
  if (base_.num_dimensions() != delta_.num_dimensions() ||
      base_.agg() != delta_.agg()) {
    return Status::InvalidArgument("merge schema mismatch");
  }
  for (size_t dim = 0; dim < base_.num_dimensions(); ++dim) {
    if (delta_.dictionary(dim).size() < base_.dictionary(dim).size()) {
      return Status::InvalidArgument(
          "delta dictionaries must extend the base cube's (seed the delta "
          "builder with ImportDictionaries)");
    }
  }
  if (nodes_reused != nullptr) *nodes_reused = 0;

  // Degenerate epochs short-circuit to a cheap cube copy. It restates the
  // tuple counts, so it gets its own stats memo.
  if (delta_.empty() || base_.empty()) {
    DwarfCube merged = delta_.empty() ? base_ : delta_;
    merged.DeferStats(tuple_count, source_tuple_count);
    return merged;
  }

  NodeId root = MergeNodes(base_.root_, delta_.root_);

  DwarfCube merged;
  merged.schema_ = delta_.schema_;
  merged.dictionaries_ = delta_.dictionaries_;  // superset of the base's
  merged.root_ = root;
  merged.ShareArenaAndAppend(base_, std::move(tail_));
  // No structural walk here: it would make every publish O(cube).
  merged.DeferStats(tuple_count, source_tuple_count);
  merged.FinalizeOrderedViews();
  if (nodes_reused != nullptr) *nodes_reused = reused_;
  return merged;
}

NodeId CubeMerger::Commit(DwarfNode node) {
  NodeId id = static_cast<NodeId>(base_.num_nodes() + tail_.size());
  tail_.push_back(std::move(node));
  return id;
}

NodeId CubeMerger::ImportSubtree(NodeId delta_id) {
  auto it = import_memo_.find(delta_id);
  if (it != import_memo_.end()) return it->second;
  // Copy by value: Commit below may reallocate tail_ but never touches the
  // delta arena, so holding a reference into delta_ across recursion is fine;
  // the copy is for the remap.
  DwarfNode copy = MaterializeNode(delta_.node(delta_id));
  if (!delta_.IsLeafLevel(copy.level)) {
    for (DwarfCell& cell : copy.cells) cell.child = ImportSubtree(cell.child);
    // Memoization keeps a coalesced ALL aliasing its cell's subtree: the
    // lookup for all_child hits the entry the cell recursion just wrote.
    copy.all_child = ImportSubtree(copy.all_child);
  }
  NodeId id = Commit(std::move(copy));
  import_memo_.emplace(delta_id, id);
  return id;
}

NodeId CubeMerger::MergeNodes(NodeId base_id, NodeId delta_id) {
  uint64_t key = (static_cast<uint64_t>(base_id) << 32) | delta_id;
  auto it = merge_memo_.find(key);
  if (it != merge_memo_.end()) return it->second;

  const NodeView b = base_.node(base_id);
  const NodeView d = delta_.node(delta_id);
  SCD_CHECK(b.level == d.level);
  bool leaf = base_.IsLeafLevel(b.level);
  AggFn agg = base_.agg();

  // Two-pointer union over the sorted cells — one id space, so keys compare
  // directly.
  DwarfNode merged;
  merged.level = b.level;
  merged.cells.reserve(b.cells.size() + d.cells.size());
  size_t bi = 0, di = 0;
  while (bi < b.cells.size() || di < d.cells.size()) {
    bool take_base = di >= d.cells.size() ||
                     (bi < b.cells.size() && b.cells[bi].key < d.cells[di].key);
    bool take_delta = bi >= b.cells.size() ||
                      (di < d.cells.size() && d.cells[di].key < b.cells[bi].key);
    DwarfCell cell;
    if (take_base) {
      // Untouched prefix: adopt the base subtree id as-is (shared chunk).
      cell = b.cells[bi++];
      if (!leaf) ++reused_;
    } else if (take_delta) {
      cell = d.cells[di];
      if (!leaf) cell.child = ImportSubtree(d.cells[di].child);
      ++di;
    } else {
      cell.key = b.cells[bi].key;
      if (leaf) {
        cell.measure =
            AggCombine(agg, b.cells[bi].measure, d.cells[di].measure);
      } else {
        cell.child = MergeNodes(b.cells[bi].child, d.cells[di].child);
      }
      ++bi;
      ++di;
    }
    merged.cells.push_back(cell);
  }

  if (leaf) {
    // Every source tuple contributes exactly once on each side, so the union
    // ALL is the combine of the two ALLs for any distributive aggregate.
    merged.all_measure = AggCombine(agg, b.all_measure, d.all_measure);
  } else {
    // Same argument structurally: the ALL sub-dwarf of the union is the
    // merge of the two ALL sub-dwarfs. When this node kept a single cell the
    // memo makes the ALL pointer alias the cell's subtree (both sides were
    // coalesced to their cell children, so the pair is the same pair).
    merged.all_child = MergeNodes(b.all_child, d.all_child);
    merged.all_coalesced =
        merged.cells.size() == 1 && merged.all_child == merged.cells[0].child;
  }

  NodeId id = Commit(std::move(merged));
  merge_memo_.emplace(key, id);
  return id;
}

}  // namespace scdwarf::dwarf
