#include "dwarf/dwarf_cube.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.h"

namespace scdwarf::dwarf {

std::atomic<int64_t> NodeArena::live_instances_{0};

namespace {

const DwarfCell* FindCellIn(const DwarfCell* begin, const DwarfCell* end,
                            DimKey key) {
  auto it = std::lower_bound(
      begin, end, key,
      [](const DwarfCell& cell, DimKey k) { return cell.key < k; });
  if (it == end || it->key != key) return nullptr;
  return it;
}

}  // namespace

const DwarfCell* DwarfNode::FindCell(DimKey key) const {
  return FindCellIn(cells.data(), cells.data() + cells.size(), key);
}

const DwarfCell* NodeView::FindCell(DimKey key) const {
  return FindCellIn(cells.begin(), cells.end(), key);
}

DwarfNode MaterializeNode(const NodeView& view) {
  DwarfNode node;
  node.cells.assign(view.cells.begin(), view.cells.end());
  node.all_child = view.all_child;
  node.all_measure = view.all_measure;
  node.level = view.level;
  node.all_coalesced = view.all_coalesced;
  return node;
}

std::shared_ptr<const NodeArena> FlattenNodes(const std::vector<DwarfNode>& nodes) {
  size_t total_cells = 0;
  for (const DwarfNode& node : nodes) total_cells += node.cells.size();
  std::vector<FlatNode> flat;
  flat.reserve(nodes.size());
  std::vector<DwarfCell> cells;
  cells.reserve(total_cells);
  for (const DwarfNode& node : nodes) {
    FlatNode entry;
    entry.first_cell = static_cast<uint32_t>(cells.size());
    entry.num_cells = static_cast<uint32_t>(node.cells.size());
    entry.all_child = node.all_child;
    entry.level = node.level;
    entry.flags = node.all_coalesced ? FlatNode::kAllCoalesced : 0;
    entry.all_measure = node.all_measure;
    flat.push_back(entry);
    cells.insert(cells.end(), node.cells.begin(), node.cells.end());
  }
  return std::make_shared<const NodeArena>(std::move(flat), std::move(cells));
}

NodeView DwarfCube::NodeInSharedChunk(NodeId id) const {
  // Last chunk with begin <= id; the caller already excluded the final chunk.
  auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), id,
      [](NodeId value, const NodeChunk& chunk) { return value < chunk.begin; });
  const NodeChunk& chunk = *std::prev(it);
  return chunk.arena->View(id - chunk.begin);
}

void DwarfCube::AdoptArena(std::vector<DwarfNode> nodes) {
  num_nodes_ = nodes.size();
  chunks_.clear();
  chunks_.push_back({0, FlattenNodes(nodes)});
}

void DwarfCube::ShareArenaAndAppend(const DwarfCube& base,
                                    std::vector<DwarfNode> tail) {
  chunks_ = base.chunks_;
  num_nodes_ = base.num_nodes_ + tail.size();
  chunks_.push_back({static_cast<NodeId>(base.num_nodes_), FlattenNodes(tail)});
}

void DwarfCube::FinalizeOrderedViews() {
  for (size_t dim = 0; dim < dictionaries_.size(); ++dim) {
    if (schema_.dimensions()[dim].ordered) dictionaries_[dim].BuildRankView();
  }
}

void DwarfCube::DeferStats(uint64_t tuple_count, uint64_t source_tuple_count) {
  stats_ = CubeStats{};
  stats_.tuple_count = tuple_count;
  stats_.source_tuple_count = source_tuple_count;
  lazy_stats_ = std::make_shared<LazyStats>();
}

const CubeStats& DwarfCube::stats() const {
  if (lazy_stats_ == nullptr) return stats_;
  std::call_once(lazy_stats_->once,
                 [this] { lazy_stats_->stats = ComputeStats(); });
  return lazy_stats_->stats;
}

CubeStats DwarfCube::ComputeStats() const {
  // Walk from the root rather than scanning arena slots: a merged cube's
  // arena carries dead nodes from prior epochs, and they must not count.
  // (For from-scratch cubes every slot is reachable, so the numbers are
  // identical to an arena scan.)
  CubeStats stats;
  stats.tuple_count = stats_.tuple_count;
  stats.source_tuple_count = stats_.source_tuple_count;
  if (empty()) return stats;
  std::vector<bool> visited(num_nodes_, false);
  std::vector<NodeId> stack = {root_};
  visited[root_] = true;
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    const NodeView node = this->node(id);
    ++stats.node_count;
    stats.cell_count += node.cells.size();
    if (node.all_coalesced) ++stats.coalesced_all_count;
    stats.approx_bytes +=
        sizeof(FlatNode) + node.cells.size() * sizeof(DwarfCell);
    if (IsLeafLevel(node.level)) continue;
    for (const DwarfCell& cell : node.cells) {
      if (!visited[cell.child]) {
        visited[cell.child] = true;
        stack.push_back(cell.child);
      }
    }
    if (!visited[node.all_child]) {
      visited[node.all_child] = true;
      stack.push_back(node.all_child);
    }
  }
  return stats;
}

Result<DwarfCube> DwarfCube::FromFlatArena(
    CubeSchema schema, std::vector<Dictionary> dictionaries,
    std::shared_ptr<const NodeArena> arena, NodeId root,
    const CubeStats& stats) {
  SCD_RETURN_IF_ERROR(schema.Validate());
  if (dictionaries.size() != schema.num_dimensions()) {
    return Status::InvalidArgument("flat arena needs one dictionary per dimension");
  }
  if (arena == nullptr) {
    return Status::InvalidArgument("flat arena is null");
  }
  const size_t num_dims = schema.num_dimensions();
  const size_t num_nodes = arena->num_nodes();
  const size_t num_cells = arena->num_cells();
  const FlatNode* nodes = arena->nodes();
  const DwarfCell* cells = arena->cells();
  if (root == kNullNode && num_nodes != 0) {
    return Status::InvalidArgument("flat arena has nodes but no root");
  }
  if (root != kNullNode && root >= num_nodes) {
    return Status::InvalidArgument("flat arena root id out of range");
  }
  for (size_t i = 0; i < num_nodes; ++i) {
    const FlatNode& node = nodes[i];
    if (node.level >= num_dims) {
      return Status::InvalidArgument("flat arena node " + std::to_string(i) +
                                     " has invalid level " +
                                     std::to_string(node.level));
    }
    // 64-bit sum: first_cell + num_cells cannot wrap past the check.
    if (static_cast<uint64_t>(node.first_cell) + node.num_cells > num_cells) {
      return Status::InvalidArgument("flat arena node " + std::to_string(i) +
                                     " cell run out of range");
    }
    bool leaf = static_cast<size_t>(node.level) + 1 == num_dims;
    const DwarfCell* run = cells + node.first_cell;
    for (uint32_t c = 0; c < node.num_cells; ++c) {
      // Child level must be exactly level + 1: levels strictly increase along
      // every edge, so a corrupt file cannot smuggle in a reference cycle.
      if (!leaf) {
        if (run[c].child >= num_nodes) {
          return Status::InvalidArgument("flat arena node " + std::to_string(i) +
                                         " has dangling child reference");
        }
        if (nodes[run[c].child].level != node.level + 1) {
          return Status::InvalidArgument("flat arena node " + std::to_string(i) +
                                         " child level mismatch");
        }
      }
      if (c > 0 && run[c - 1].key >= run[c].key) {
        return Status::InvalidArgument("flat arena node " + std::to_string(i) +
                                       " cells are not strictly sorted");
      }
    }
    // Strictly sorted, so the last key bounds them all: every key must
    // decode through its level's dictionary.
    if (node.num_cells > 0 &&
        run[node.num_cells - 1].key >= dictionaries[node.level].size()) {
      return Status::InvalidArgument("flat arena node " + std::to_string(i) +
                                     " has a key past its dictionary");
    }
    if (!leaf) {
      if (node.all_child >= num_nodes) {
        return Status::InvalidArgument("flat arena node " + std::to_string(i) +
                                       " has dangling ALL reference");
      }
      if (nodes[node.all_child].level != node.level + 1) {
        return Status::InvalidArgument("flat arena node " + std::to_string(i) +
                                       " ALL level mismatch");
      }
    }
  }
  if (root != kNullNode && nodes[root].level != 0) {
    return Status::InvalidArgument("flat arena root is not a level-0 node");
  }
  DwarfCube cube;
  cube.schema_ = std::move(schema);
  cube.dictionaries_ = std::move(dictionaries);
  cube.root_ = root;
  cube.num_nodes_ = num_nodes;
  cube.chunks_.clear();
  cube.chunks_.push_back({0, std::move(arena)});
  cube.stats_ = stats;
  cube.FinalizeOrderedViews();
  return cube;
}

namespace {

void DebugPrint(const DwarfCube& cube, NodeId id, int indent,
                std::ostringstream* out) {
  const NodeView node = cube.node(id);
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  bool leaf = cube.IsLeafLevel(node.level);
  *out << pad << "node#" << id << " ["
       << cube.schema().dimensions()[node.level].name << "]\n";
  for (const DwarfCell& cell : node.cells) {
    std::string label =
        cube.dictionary(node.level).Decode(cell.key).ValueOr("<id " +
                                                             std::to_string(cell.key) + ">");
    if (leaf) {
      *out << pad << "  " << label << " = " << cell.measure << "\n";
    } else {
      *out << pad << "  " << label << " ->\n";
      DebugPrint(cube, cell.child, indent + 2, out);
    }
  }
  if (leaf) {
    *out << pad << "  ALL = " << node.all_measure << "\n";
  } else if (node.all_coalesced) {
    *out << pad << "  ALL -> node#" << node.all_child << " (coalesced)\n";
  } else {
    *out << pad << "  ALL ->\n";
    DebugPrint(cube, node.all_child, indent + 2, out);
  }
}

/// Recursively compares the subtrees rooted at `a_id` / `b_id`.
bool SubtreeEquals(const DwarfCube& a, NodeId a_id, const DwarfCube& b,
                   NodeId b_id) {
  const NodeView na = a.node(a_id);
  const NodeView nb = b.node(b_id);
  if (na.level != nb.level) return false;
  if (na.cells.size() != nb.cells.size()) return false;
  bool leaf = a.IsLeafLevel(na.level);
  // Compare by decoded label, not raw id: two cubes may have assigned
  // dictionary ids in different orders, which also changes cell sort order.
  auto label_order = [](const DwarfCube& cube, const NodeView& node) {
    std::vector<std::pair<std::string, const DwarfCell*>> ordered;
    ordered.reserve(node.cells.size());
    for (const DwarfCell& cell : node.cells) {
      ordered.emplace_back(
          cube.dictionary(node.level).Decode(cell.key).ValueOr(""), &cell);
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    return ordered;
  };
  auto oa = label_order(a, na);
  auto ob = label_order(b, nb);
  for (size_t i = 0; i < oa.size(); ++i) {
    if (oa[i].first != ob[i].first) return false;
    if (leaf) {
      if (oa[i].second->measure != ob[i].second->measure) return false;
    } else if (!SubtreeEquals(a, oa[i].second->child, b, ob[i].second->child)) {
      return false;
    }
  }
  if (leaf) {
    return na.all_measure == nb.all_measure;
  }
  return SubtreeEquals(a, na.all_child, b, nb.all_child);
}

}  // namespace

std::string DwarfCube::ToDebugString() const {
  std::ostringstream out;
  if (empty()) {
    out << "(empty cube)\n";
    return out.str();
  }
  DebugPrint(*this, root_, 0, &out);
  return out.str();
}

bool DwarfCube::StructurallyEquals(const DwarfCube& other) const {
  if (num_dimensions() != other.num_dimensions()) return false;
  if (empty() != other.empty()) return false;
  if (empty()) return true;
  return SubtreeEquals(*this, root_, other, other.root_);
}

NodeId CubeAssembler::AddNode(DwarfNode node) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  return id;
}

Result<DwarfCube> CubeAssembler::Finish() {
  CubeStats counts;
  counts.tuple_count = tuple_count_;
  counts.source_tuple_count = source_tuple_count_;
  SCD_ASSIGN_OR_RETURN(
      DwarfCube cube,
      DwarfCube::FromFlatArena(std::move(schema_), std::move(dictionaries_),
                               FlattenNodes(nodes_), root_, counts));
  cube.stats_ = cube.ComputeStats();
  return cube;
}

}  // namespace scdwarf::dwarf
