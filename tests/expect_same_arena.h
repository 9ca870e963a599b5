// Node-by-node arena comparison shared by the thread-count identity tests.
// DwarfCube::StructurallyEquals compares logical subtrees, so two cubes
// can pass it while one holds duplicate nodes the other shares; this check
// compares the arenas themselves.

#ifndef SCDWARF_TESTS_EXPECT_SAME_ARENA_H_
#define SCDWARF_TESTS_EXPECT_SAME_ARENA_H_

#include <gtest/gtest.h>

#include "dwarf/dwarf_cube.h"

namespace scdwarf::dwarf {

/// Same root and, at every arena id, the same level, cells (key, child,
/// measure), ALL cell and coalesced flag. Stops at the first difference.
inline void ExpectSameArena(const DwarfCube& expected,
                            const DwarfCube& actual) {
  EXPECT_EQ(expected.root(), actual.root());
  ASSERT_EQ(expected.num_nodes(), actual.num_nodes());
  for (NodeId id = 0; id < expected.num_nodes(); ++id) {
    SCOPED_TRACE("node " + std::to_string(id));
    const NodeView lhs = expected.node(id);
    const NodeView rhs = actual.node(id);
    ASSERT_EQ(lhs.level, rhs.level);
    ASSERT_EQ(lhs.cells.size(), rhs.cells.size());
    for (size_t i = 0; i < lhs.cells.size(); ++i) {
      ASSERT_EQ(lhs.cells[i].key, rhs.cells[i].key);
      ASSERT_EQ(lhs.cells[i].child, rhs.cells[i].child);
      ASSERT_EQ(lhs.cells[i].measure, rhs.cells[i].measure);
    }
    ASSERT_EQ(lhs.all_child, rhs.all_child);
    ASSERT_EQ(lhs.all_measure, rhs.all_measure);
    ASSERT_EQ(lhs.all_coalesced, rhs.all_coalesced);
  }
}

}  // namespace scdwarf::dwarf

#endif  // SCDWARF_TESTS_EXPECT_SAME_ARENA_H_
