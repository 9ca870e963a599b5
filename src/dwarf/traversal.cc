#include "dwarf/traversal.h"

#include <deque>

namespace scdwarf::dwarf {

namespace {

Status VisitOneNode(const DwarfCube& cube, NodeId id, const CubeVisitor& visitor,
                    bool leaf) {
  const NodeView node = cube.node(id);
  if (visitor.on_node) {
    SCD_RETURN_IF_ERROR(visitor.on_node(id, node));
  }
  if (visitor.on_cell) {
    for (const DwarfCell& cell : node.cells) {
      SCD_RETURN_IF_ERROR(visitor.on_cell(id, cell, leaf));
    }
  }
  if (visitor.on_all_cell) {
    SCD_RETURN_IF_ERROR(visitor.on_all_cell(id, node, leaf));
  }
  return Status::OK();
}

/// Appends a node's unvisited children (cell children plus the ALL child).
void PushChildren(const DwarfCube& cube, NodeId id, std::vector<bool>* visited,
                  std::deque<NodeId>* queue, bool front) {
  const NodeView node = cube.node(id);
  if (cube.IsLeafLevel(node.level)) return;
  auto push = [&](NodeId child) {
    if ((*visited)[child]) return;
    (*visited)[child] = true;
    if (front) {
      queue->push_front(child);
    } else {
      queue->push_back(child);
    }
  };
  // For depth-first order children are pushed to the front in reverse —
  // the ALL child, then the cells from last to first — so the first cell's
  // subtree is processed first, mirroring §4's description.
  if (front) {
    push(node.all_child);
    for (size_t c = node.cells.size(); c > 0; --c) {
      push(node.cells[c - 1].child);
    }
  } else {
    for (const DwarfCell& cell : node.cells) push(cell.child);
    push(node.all_child);
  }
}

}  // namespace

Status TraverseCube(const DwarfCube& cube, TraversalOrder order,
                    const CubeVisitor& visitor) {
  if (cube.empty()) return Status::OK();
  std::vector<bool> visited(cube.num_nodes(), false);
  std::deque<NodeId> queue;
  visited[cube.root()] = true;
  queue.push_back(cube.root());
  bool depth_first = order == TraversalOrder::kDepthFirst;
  while (!queue.empty()) {
    NodeId id = queue.front();
    queue.pop_front();
    bool leaf = cube.IsLeafLevel(cube.node(id).level);
    SCD_RETURN_IF_ERROR(VisitOneNode(cube, id, visitor, leaf));
    PushChildren(cube, id, &visited, &queue, depth_first);
  }
  return Status::OK();
}

std::vector<NodeId> CollectReachableNodes(const DwarfCube& cube,
                                          TraversalOrder order) {
  std::vector<NodeId> ids;
  ids.reserve(cube.num_nodes());
  CubeVisitor visitor;
  visitor.on_node = [&ids](NodeId id, const NodeView&) {
    ids.push_back(id);
    return Status::OK();
  };
  // Traversal over an in-memory cube cannot fail; assert-free ignore.
  (void)TraverseCube(cube, order, visitor);
  return ids;
}

ParentIds ComputeParentIds(const DwarfCube& cube) {
  // Walk reachable nodes only, in ascending id order: a merged cube's arena
  // carries dead nodes from prior epochs, and scanning them would record
  // phantom parents for subtrees the new epoch still shares. Ascending
  // order makes each list ascending, and a parent that references a child
  // twice does so back to back, so a list drops a repeat of its last entry.
  std::vector<bool> reachable(cube.num_nodes(), false);
  for (NodeId id : CollectReachableNodes(cube, TraversalOrder::kBreadthFirst)) {
    reachable[id] = true;
  }
  // Calls visit(child, parent) once per distinct (child, parent) pair.
  auto for_each_edge = [&](auto&& visit) {
    constexpr NodeId kNone = ~NodeId{0};
    std::vector<NodeId> last(cube.num_nodes(), kNone);
    auto edge = [&](NodeId child, NodeId parent) {
      if (last[child] == parent) return;
      last[child] = parent;
      visit(child, parent);
    };
    for (NodeId id = 0; id < cube.num_nodes(); ++id) {
      if (!reachable[id]) continue;
      const NodeView node = cube.node(id);
      if (cube.IsLeafLevel(node.level)) continue;
      for (const DwarfCell& cell : node.cells) edge(cell.child, id);
      edge(node.all_child, id);
    }
  };
  // Pass 1 counts each list into offsets[child + 1], and the prefix sum
  // turns the counts into offsets; pass 2 fills the lists.
  ParentIds parents;
  parents.offsets.assign(cube.num_nodes() + 1, 0);
  for_each_edge([&](NodeId child, NodeId) { ++parents.offsets[child + 1]; });
  for (size_t n = 0; n < cube.num_nodes(); ++n) {
    parents.offsets[n + 1] += parents.offsets[n];
  }
  parents.ids.resize(parents.offsets.back());
  std::vector<size_t> next(parents.offsets.begin(), parents.offsets.end() - 1);
  for_each_edge([&](NodeId child, NodeId parent) {
    parents.ids[next[child]++] = parent;
  });
  return parents;
}

}  // namespace scdwarf::dwarf
