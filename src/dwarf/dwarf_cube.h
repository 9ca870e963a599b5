/// \file dwarf_cube.h
/// \brief The in-memory DWARF cube: a flat arena of nodes, each holding
/// sorted cells, plus per-node ALL aggregates with suffix coalescing (shared
/// subtrees). See Sismanis et al., SIGMOD 2002, and Fig. 2 of the paper.
///
/// Layout notes (DESIGN.md §12): the arena is two contiguous POD arrays — a
/// FlatNode array (24 bytes per node) and a DwarfCell array (16 bytes per
/// cell) — addressed by 32-bit index offsets instead of pointers. A node's
/// cells are one run [first_cell, first_cell + num_cells) of the cell array,
/// so traversal, the visited lookup tables used by the mappers, and
/// serialization are all O(1) per node with no heap indirection, and an epoch
/// drop frees two allocations per chunk instead of running one destructor per
/// node (both arrays are trivially destructible — enforced below).
///
/// The arena is a short list of immutable shared *chunks*: a cube built from
/// scratch owns a single chunk covering ids [0, n), and an incrementally
/// merged cube (dwarf::CubeMerger) shares every chunk of the prior epoch by
/// shared_ptr and appends one new chunk holding only the merged nodes. Ids
/// never move, so cross-epoch subtree sharing is free and copying a DwarfCube
/// costs O(chunks), not O(nodes). Ids left behind by a merge (interior nodes
/// the new epoch replaced) stay allocated but unreachable — every consumer
/// walks from the root (TraverseCube), so dead slots are never observed.
///
/// A chunk's arrays may be backed by owned vectors (built in memory) or by a
/// read-only mmap of a v3 snapshot file held alive by a keepalive handle —
/// replica load is then validate-and-point, not rebuild (snapshot.cc).

#ifndef SCDWARF_DWARF_DWARF_CUBE_H_
#define SCDWARF_DWARF_DWARF_CUBE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "dwarf/cube_schema.h"
#include "dwarf/dictionary.h"
#include "dwarf/tuple.h"

namespace scdwarf::dwarf {

/// Index of a node in the cube's arena.
using NodeId = uint32_t;
constexpr NodeId kNullNode = static_cast<NodeId>(-1);

/// \brief One cell of a DWARF node: a dimension key plus either a pointer to
/// the node at the next level (interior) or the aggregated measure (leaf).
struct DwarfCell {
  DimKey key = 0;
  NodeId child = kNullNode;  ///< valid for interior cells only
  Measure measure = 0;       ///< valid for leaf cells only
};
static_assert(sizeof(DwarfCell) == 16, "DwarfCell is the 16-byte wire/arena unit");
static_assert(std::is_trivially_destructible_v<DwarfCell>,
              "cell arrays must free as whole blocks (no per-cell destructors)");

/// \brief One node of the flat arena: a run of the chunk's cell array plus
/// the ALL cell. 24 bytes, snapshot v3 writes this layout verbatim (with
/// first_cell globalized across chunks — snapshot.cc).
///
/// The ALL cell holds the aggregate over every cell of the node. For interior
/// nodes it points at the aggregate sub-dwarf (`all_child`); when the node has
/// a single cell that pointer is *suffix-coalesced*: it aliases the cell's own
/// child and the kAllCoalesced flag is set. For leaf nodes the ALL cell
/// carries `all_measure` directly.
struct FlatNode {
  static constexpr uint8_t kAllCoalesced = 1;  ///< flags bit 0

  uint32_t first_cell = 0;       ///< chunk-local index into the cell array
  uint32_t num_cells = 0;
  NodeId all_child = kNullNode;  ///< interior nodes
  uint16_t level = 0;            ///< 0-based dimension index
  uint8_t flags = 0;
  uint8_t pad = 0;
  Measure all_measure = 0;       ///< leaf nodes

  bool all_coalesced() const { return (flags & kAllCoalesced) != 0; }
};
static_assert(sizeof(FlatNode) == 24, "FlatNode is the 24-byte arena/snapshot unit");
static_assert(std::is_trivially_destructible_v<FlatNode>,
              "node arrays must free as whole blocks (no per-node destructors)");

/// \brief A read-only view over one node's sorted cell run. Vector-like API
/// so query/traversal code reads the same as with heap-owned cells.
class CellSpan {
 public:
  CellSpan() = default;
  CellSpan(const DwarfCell* data, size_t size) : data_(data), size_(size) {}

  const DwarfCell* begin() const { return data_; }
  const DwarfCell* end() const { return data_ + size_; }
  const DwarfCell* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const DwarfCell& operator[](size_t i) const { return data_[i]; }
  const DwarfCell& front() const { return data_[0]; }
  const DwarfCell& back() const { return data_[size_ - 1]; }

 private:
  const DwarfCell* data_ = nullptr;
  size_t size_ = 0;
};

/// \brief Value-type view of one arena node, returned by DwarfCube::node().
/// Cheap to copy (pointer + scalars); the cells it spans live as long as the
/// cube (or any cube sharing the chunk) does.
struct NodeView {
  CellSpan cells;                ///< sorted by key, ascending
  NodeId all_child = kNullNode;  ///< interior nodes
  Measure all_measure = 0;       ///< leaf nodes
  uint16_t level = 0;            ///< 0-based dimension index
  bool all_coalesced = false;    ///< ALL pointer aliases a cell subtree

  /// Binary search for \p key; nullptr when absent.
  const DwarfCell* FindCell(DimKey key) const;
};

/// \brief Builder-side transient node: heap-owned cells, flattened into the
/// arena at every finalize point (AdoptArena / ShareArenaAndAppend). Never
/// stored in a finished cube.
struct DwarfNode {
  std::vector<DwarfCell> cells;  ///< sorted by key, ascending
  NodeId all_child = kNullNode;  ///< interior nodes
  Measure all_measure = 0;       ///< leaf nodes
  uint16_t level = 0;            ///< 0-based dimension index
  bool all_coalesced = false;    ///< ALL pointer aliases a cell subtree

  /// Binary search for \p key; nullptr when absent.
  const DwarfCell* FindCell(DimKey key) const;
};

/// \brief Copies an arena node back into builder form (the merge path edits
/// imported subtree nodes before re-committing them).
DwarfNode MaterializeNode(const NodeView& view);

/// \brief One immutable chunk of the flat arena: a FlatNode array plus the
/// cell array its first_cell offsets index into. Backing storage is either
/// owned vectors or an external read-only block (an mmap'd snapshot) pinned
/// by a keepalive handle.
///
/// Tracks a process-wide live-instance count so tests can assert that epoch
/// drops free whole chunks instead of walking nodes.
class NodeArena {
 public:
  NodeArena() { live_instances_.fetch_add(1, std::memory_order_relaxed); }

  /// Takes ownership of materialized arrays (in-memory build paths).
  NodeArena(std::vector<FlatNode> nodes, std::vector<DwarfCell> cells)
      : owned_nodes_(std::move(nodes)), owned_cells_(std::move(cells)) {
    nodes_ = owned_nodes_.data();
    num_nodes_ = owned_nodes_.size();
    cells_ = owned_cells_.data();
    num_cells_ = owned_cells_.size();
    live_instances_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Points at externally owned arrays (an mmap'd snapshot); \p keepalive
  /// pins the backing storage for the arena's lifetime.
  NodeArena(const FlatNode* nodes, size_t num_nodes, const DwarfCell* cells,
            size_t num_cells, std::shared_ptr<const void> keepalive)
      : keepalive_(std::move(keepalive)),
        nodes_(nodes),
        num_nodes_(num_nodes),
        cells_(cells),
        num_cells_(num_cells) {
    live_instances_.fetch_add(1, std::memory_order_relaxed);
  }

  ~NodeArena() { live_instances_.fetch_sub(1, std::memory_order_relaxed); }

  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;

  const FlatNode* nodes() const { return nodes_; }
  size_t num_nodes() const { return num_nodes_; }
  const DwarfCell* cells() const { return cells_; }
  size_t num_cells() const { return num_cells_; }

  /// View of the node at chunk-local index \p local.
  NodeView View(size_t local) const {
    const FlatNode& node = nodes_[local];
    NodeView view;
    view.cells = CellSpan(cells_ + node.first_cell, node.num_cells);
    view.all_child = node.all_child;
    view.all_measure = node.all_measure;
    view.level = node.level;
    view.all_coalesced = node.all_coalesced();
    return view;
  }

  /// Process-wide count of live arenas — the epoch-drop test's probe.
  static int64_t live_instances() {
    return live_instances_.load(std::memory_order_relaxed);
  }

 private:
  static std::atomic<int64_t> live_instances_;

  std::vector<FlatNode> owned_nodes_;
  std::vector<DwarfCell> owned_cells_;
  std::shared_ptr<const void> keepalive_;
  const FlatNode* nodes_ = nullptr;
  size_t num_nodes_ = 0;
  const DwarfCell* cells_ = nullptr;
  size_t num_cells_ = 0;
};

/// \brief Flattens builder-side nodes into one arena chunk (cells packed in
/// node order).
std::shared_ptr<const NodeArena> FlattenNodes(const std::vector<DwarfNode>& nodes);

/// \brief Aggregate statistics about a cube's physical structure.
struct CubeStats {
  uint64_t node_count = 0;
  uint64_t cell_count = 0;        ///< regular cells, excluding ALL cells
  uint64_t coalesced_all_count = 0;
  uint64_t tuple_count = 0;       ///< distinct input tuples
  uint64_t source_tuple_count = 0;  ///< raw tuples before duplicate merging
  /// Approximate in-memory bytes (arena + cell payloads).
  uint64_t approx_bytes = 0;
};

/// \brief An immutable DWARF cube. Build one with DwarfBuilder; query with
/// the functions in query.h; persist with the mappers in src/mapper.
class DwarfCube {
 public:
  DwarfCube() = default;

  const CubeSchema& schema() const { return schema_; }
  size_t num_dimensions() const { return schema_.num_dimensions(); }
  AggFn agg() const { return schema_.agg(); }

  NodeId root() const { return root_; }
  bool empty() const { return root_ == kNullNode; }

  NodeView node(NodeId id) const {
    // Fast path covers every from-scratch cube (one chunk) and, for merged
    // cubes, the newest chunk; older chunks binary-search by start id.
    const NodeChunk& last = chunks_.back();
    if (id >= last.begin) return last.arena->View(id - last.begin);
    return NodeInSharedChunk(id);
  }
  /// Arena extent (dead merge slots included) — the bound for id-indexed
  /// lookup tables. Reachable counts live in stats().node_count.
  size_t num_nodes() const { return num_nodes_; }
  /// Arena chunks: 1 for a from-scratch cube, +1 per incremental merge.
  size_t arena_chunks() const { return chunks_.size(); }

  /// True when \p level is the bottom (measure-carrying) level.
  bool IsLeafLevel(uint16_t level) const {
    return static_cast<size_t>(level) + 1 == num_dimensions();
  }

  /// Dictionary for dimension \p dim (decodes DimKey ids back to strings).
  const Dictionary& dictionary(size_t dim) const { return dictionaries_[dim]; }
  const std::vector<Dictionary>& dictionaries() const { return dictionaries_; }

  /// Structural and tuple statistics. A cube built from tuples, reassembled
  /// from a store or loaded from a snapshot carries them from construction.
  /// A merged cube computes the structural fields on the first call (one
  /// walk of the reachable nodes; concurrent first calls are safe), and
  /// every copy of it shares that result.
  const CubeStats& stats() const;

  /// stats().tuple_count and stats().source_tuple_count without the walk —
  /// what the publish path reads.
  uint64_t tuple_count() const { return stats_.tuple_count; }
  uint64_t source_tuple_count() const { return stats_.source_tuple_count; }

  /// \brief Recomputes structural statistics by walking the arena.
  /// (Counts every node exactly once even though coalesced subtrees are
  /// reachable through several parents.)
  CubeStats ComputeStats() const;

  /// \brief Builds a cube directly over a validated single-chunk flat arena —
  /// the snapshot v3 load path (validate-and-point instead of rebuild), and
  /// the one validator every reassembled cube passes (CubeAssembler::Finish
  /// flattens into it). Validates id bounds, level monotonicity (which also
  /// rules out cycles), a level-0 root, strict cell sort and every cell key
  /// below its level's dictionary size; \p stats is trusted from the
  /// snapshot header so no arena walk happens. FinalizeOrderedViews still
  /// runs (rank views are not persisted).
  static Result<DwarfCube> FromFlatArena(CubeSchema schema,
                                         std::vector<Dictionary> dictionaries,
                                         std::shared_ptr<const NodeArena> arena,
                                         NodeId root, const CubeStats& stats);

  /// \brief Renders the cube as an indented tree for debugging and the
  /// quickstart example (mirrors Fig. 2). Intended for small cubes.
  std::string ToDebugString() const;

  /// \brief Structural equality: same schema shape, same tree contents.
  /// Used to verify that a cube rebuilt from a store round-trips.
  /// Compares the logical structure (keys, measures, ALL aggregates)
  /// independent of arena numbering.
  bool StructurallyEquals(const DwarfCube& other) const;

 private:
  friend class DwarfBuilder;
  friend class CubeAssembler;
  friend class CubeMerger;
  friend class CubeUpdater;

  /// One immutable run of the arena: ids [begin, begin + arena->num_nodes()).
  struct NodeChunk {
    NodeId begin = 0;
    std::shared_ptr<const NodeArena> arena;
  };

  /// Out-of-line slow path of node(): binary search over the chunk list.
  NodeView NodeInSharedChunk(NodeId id) const;

  /// Replaces the arena with a single chunk flattened from \p nodes
  /// (from-scratch builds).
  void AdoptArena(std::vector<DwarfNode> nodes);

  /// Shares \p base's chunks and appends \p tail, flattened, as one new
  /// chunk whose ids start at base.num_nodes() (the incremental-merge
  /// publish path).
  void ShareArenaAndAppend(const DwarfCube& base, std::vector<DwarfNode> tail);

  /// Builds the dictionary rank views of the ordered dimensions (a no-op
  /// unless an ordered dictionary grew). Every finalize point
  /// (DwarfBuilder::Build, CubeAssembler::Finish, CubeMerger::Merge) calls
  /// this eagerly: cubes are shared immutably across server epochs, so
  /// building lazily on first query would be a data race.
  void FinalizeOrderedViews();

  /// Sets the tuple counts and leaves the structural stats to the first
  /// stats() call, under a fresh memo (the merge outputs).
  void DeferStats(uint64_t tuple_count, uint64_t source_tuple_count);

  /// A merged cube's structural stats, computed once on first use.
  struct LazyStats {
    std::once_flag once;
    CubeStats stats;
  };

  CubeSchema schema_;
  std::vector<NodeChunk> chunks_;
  size_t num_nodes_ = 0;
  std::vector<Dictionary> dictionaries_;
  NodeId root_ = kNullNode;
  /// The tuple counts always; the structural fields too unless lazy_stats_
  /// is set.
  CubeStats stats_;
  /// Set on merged cubes. Copies share it: they share the arena and the
  /// root, so one walk serves them all.
  std::shared_ptr<LazyStats> lazy_stats_;
};

/// \brief Low-level assembler used by the store mappers to rebuild a cube
/// from persisted nodes/cells. Performs validation on Finish().
class CubeAssembler {
 public:
  explicit CubeAssembler(CubeSchema schema, std::vector<Dictionary> dictionaries)
      : schema_(std::move(schema)), dictionaries_(std::move(dictionaries)) {}

  /// Appends a node and returns its id.
  NodeId AddNode(DwarfNode node);

  void SetRoot(NodeId root) { root_ = root; }

  /// \brief Carries the input-tuple counts into the assembled cube's stats.
  /// They are a property of the feed, not of the node structure, so a cube
  /// reassembled from storage (or from an epoch snapshot file) would
  /// otherwise report zero tuples.
  void SetTupleCounts(uint64_t tuple_count, uint64_t source_tuple_count) {
    tuple_count_ = tuple_count;
    source_tuple_count_ = source_tuple_count;
  }

  /// Validates the nodes through DwarfCube::FromFlatArena, computes stats and
  /// produces the cube.
  Result<DwarfCube> Finish();

 private:
  CubeSchema schema_;
  std::vector<Dictionary> dictionaries_;
  std::vector<DwarfNode> nodes_;
  NodeId root_ = kNullNode;
  uint64_t tuple_count_ = 0;
  uint64_t source_tuple_count_ = 0;
};

}  // namespace scdwarf::dwarf

#endif  // SCDWARF_DWARF_DWARF_CUBE_H_
