/// \file cursor.h
/// \brief Resumable row enumeration over a DwarfCube: the one slice/roll-up
/// walk, kept in an explicit stack so it can emit a bounded number of rows
/// per call and pick up exactly where it stopped.
///
/// dwarf::Slice and dwarf::RollUp drain a RowCursor in one page, and the
/// query service's cursor sessions page through one, so any sequence of
/// Next() calls with any page sizes yields exactly the one-shot rows in the
/// one-shot order.
///
/// A RowCursor holds a plain pointer to the cube; the caller owns the cube
/// and must keep it alive for the cursor's lifetime (the serving layer pins
/// the epoch snapshot's shared_ptr next to the cursor for this reason).

#ifndef SCDWARF_DWARF_CURSOR_H_
#define SCDWARF_DWARF_CURSOR_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "dwarf/dwarf_cube.h"
#include "dwarf/query.h"

namespace scdwarf::dwarf {

/// \brief Paused depth-first enumeration of slice/rollup rows.
class RowCursor {
 public:
  /// Cursor over the rows of dwarf::Slice(cube, fixed_dim, key).
  static Result<RowCursor> OverSlice(const DwarfCube& cube, size_t fixed_dim,
                                     DimKey key);

  /// Cursor over the rows of dwarf::RollUp(cube, group_dims, filters), with
  /// the same validation. Row keys come back in requested \p group_dims
  /// order, and \p filters (optional, copied) restricts grouped ordered dims
  /// to rank windows.
  static Result<RowCursor> OverRollUp(const DwarfCube& cube,
                                      const std::vector<size_t>& group_dims,
                                      const RankFilters* filters = nullptr);

  /// \brief Appends up to \p max_rows next rows to \p out and returns how
  /// many were produced (< max_rows only when the walk finished).
  /// Calling Next on an exhausted cursor appends nothing.
  size_t Next(size_t max_rows, std::vector<SliceRow>* out);

  /// True once the walk has nothing left. A Next that comes up short always
  /// leaves the cursor done; one that fills its page may not, and the next
  /// call then returns no rows.
  bool done() const { return done_; }

 private:
  /// One grouped level of the walk. Frames sit in ascending dimension order,
  /// and the first depth_ of them hold the paused cell iteration of the node
  /// the walk is in at their level.
  struct Frame {
    const DwarfCell* next = nullptr;  ///< next cell to take
    const DwarfCell* end = nullptr;
    const Dictionary* dict = nullptr;
    size_t dim = 0;
    size_t slot = 0;  ///< index of this level's label among a row's keys
    std::optional<RankWindow> window;
  };

  /// \p pinned_dim is the slice's fixed dimension (num_dimensions() for a
  /// roll-up, which pins none).
  RowCursor(const DwarfCube& cube, std::vector<Frame> frames,
            size_t pinned_dim, DimKey pinned_key);

  /// Walks down from node \p id at \p level through pinned and rolled-up
  /// levels. Returns true with the row's \p measure when it reaches the
  /// leaf level; returns false once it has opened the next grouped level's
  /// frame at *\p top, or when a pinned key has no cell.
  bool Descend(NodeId id, size_t level, Frame** top, Measure* measure);

  /// Appends one row holding the current labels and \p measure.
  void EmitRow(Measure measure, std::vector<SliceRow>* out) const;

  const DwarfCube* cube_ = nullptr;
  std::vector<Frame> frames_;
  size_t depth_ = 0;  ///< open frames
  /// Labels of the open frames' current cells in row key order, pointing
  /// into the cube's dictionaries (the cube is immutable and outlives the
  /// cursor), so EmitRow copies each label once, into its row.
  std::vector<const std::string*> labels_;
  size_t pinned_dim_ = 0;
  DimKey pinned_key_ = 0;
  /// The one row of a walk with no grouped level, until Next emits it.
  std::optional<Measure> root_row_;
  bool done_ = false;
};

}  // namespace scdwarf::dwarf

#endif  // SCDWARF_DWARF_CURSOR_H_
