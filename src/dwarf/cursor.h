/// \file cursor.h
/// \brief Resumable row enumeration over a DwarfCube: the traversal state of
/// Slice / RollUp captured in an explicit stack so it can emit a bounded
/// number of rows per call and pick up exactly where it stopped.
///
/// This is what the query service's cursor sessions page with: a RowCursor
/// opened against one cube snapshot yields, across any sequence of Next()
/// calls with any page sizes, exactly the row sequence the one-shot
/// dwarf::Slice / dwarf::RollUp would return — same rows, same order.
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

  /// Cursor over the rows of dwarf::RollUp(cube, group_dims, filters).
  /// Row keys come back in requested \p group_dims order, and \p filters
  /// (optional, copied) restricts grouped ordered dims to rank windows,
  /// tested per cell exactly as the one-shot roll-up tests them — the paged
  /// row sequence stays byte-identical to the one-shot rows in every case.
  static Result<RowCursor> OverRollUp(const DwarfCube& cube,
                                      const std::vector<size_t>& group_dims,
                                      const RankFilters* filters = nullptr);

  /// \brief Appends up to \p max_rows next rows to \p out and returns how
  /// many were produced (< max_rows only when the traversal finished).
  /// Calling Next on an exhausted cursor appends nothing.
  size_t Next(size_t max_rows, std::vector<SliceRow>* out);

  /// True once every row has been emitted.
  bool done() const { return stack_.empty(); }

  /// Rows emitted so far across all Next() calls.
  uint64_t rows_emitted() const { return rows_emitted_; }

 private:
  /// One suspended level of the recursive enumerator. Enumerated levels
  /// iterate cells through next_cell; pinned and rolled-up (ALL) levels
  /// descend or emit once, tracked by entered.
  struct Frame {
    NodeId node = kNullNode;
    uint16_t level = 0;
    size_t next_cell = 0;
    bool entered = false;
    bool pushed_label = false;  ///< pop labels_ when this frame pops
  };

  RowCursor(const DwarfCube& cube, std::vector<bool> enumerate,
            std::vector<std::optional<DimKey>> pinned, RankFilters filters,
            std::vector<size_t> order);

  void PopFrame();

  /// True when no row can come out of a subtree at \p level: some rank
  /// filter at or below it has an empty window.
  bool Prunable(size_t level) const;

  /// Appends one result row holding the current labels (permuted to the
  /// caller's requested key order) and \p measure.
  void EmitRow(Measure measure, std::vector<SliceRow>* out);

  const DwarfCube* cube_ = nullptr;
  std::vector<bool> enumerate_;
  std::vector<std::optional<DimKey>> pinned_;
  RankFilters filters_;             ///< empty when the cursor has no windows
  std::vector<size_t> order_;       ///< labels_ index per output key position
  bool order_identity_ = true;
  std::vector<Frame> stack_;
  /// Labels of the enumerated levels, pointing into the cube's dictionaries
  /// (the cube is immutable and outlives the cursor), so EmitRow copies each
  /// label once, into its row.
  std::vector<const std::string*> labels_;
  uint64_t rows_emitted_ = 0;
};

}  // namespace scdwarf::dwarf

#endif  // SCDWARF_DWARF_CURSOR_H_
