/// \file snapshot.h
/// \brief Epoch cube snapshot files: the publisher serializes each published
/// epoch once to an immutable `.cf` file, and every replica process opens it
/// read-only via mmap — one serialization fans out to N replicas, and the
/// kernel page cache holds a single copy of the file bytes no matter how
/// many replicas on the machine map it.
///
/// File layout, version 3 (all integers little-endian, strings
/// length-prefixed):
///
///   "SCDWCUBE"  u32 version  u64 epoch
///   schema      (name, dimensions + dimension tables + ordered flags,
///                measure, aggregate)
///   dictionaries (per dimension: id-ordered value list)
///   root id, node count, cell count, CubeStats block (6 × u64)
///   padding to an 8-byte file offset
///   FlatNode[node count]   — raw 24-byte arena records, first_cell
///                            globalized across chunks
///   DwarfCell[cell count]  — raw 16-byte cell records
///   "SCDWEND\0" trailer
///
/// v3 is a direct image of the flat arena (dwarf_cube.h, DESIGN.md §12):
/// loading validates the arrays in place (id bounds, level monotonicity,
/// strict cell sort, keys within their dictionaries) and points the cube at
/// the mapping, which stays mapped for the cube's lifetime via the arena's
/// keepalive handle — replica load is validate-and-point, not rebuild. v3 is the only version the loader
/// reads: any other version is an InvalidArgument naming both versions.
///
/// Nodes are written in arena-id order *including dead merge slots* (ids an
/// incremental merge left unreachable), so node ids survive the round trip
/// unchanged and the writer never needs a reachability pass. Dead slots are
/// still well-formed nodes, so validation accepts them, and compaction (the
/// rebuild QueryServer::ApplyUpdate runs once the served cube reaches
/// QueryServer::kCompactionChunkLimit chunks) bounds how many a long-lived
/// publisher accumulates.
///
/// Writes go to a temp file in the same directory followed by an atomic
/// rename: a reader never observes a partially-written snapshot under the
/// final name. Loading maps the file PROT_READ and parses straight out of
/// the mapping (bounds-checked; a truncated or corrupt file is an error,
/// never a crash). The snapshot file itself is never written to by a reader.

#ifndef SCDWARF_REPLICA_SNAPSHOT_H_
#define SCDWARF_REPLICA_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "dwarf/dwarf_cube.h"

namespace scdwarf::replica {

/// \brief One loaded snapshot: the epoch the file was published under plus
/// the loaded cube.
struct CubeSnapshot {
  uint64_t epoch = 0;
  dwarf::DwarfCube cube;
};

/// \brief A snapshot file discovered in a spool directory.
struct SnapshotFileEntry {
  uint64_t epoch = 0;
  std::string path;
};

/// \brief Serializes \p cube under \p epoch to \p path (temp file + atomic
/// rename). Overwrites an existing file of the same name.
Status WriteCubeSnapshot(const dwarf::DwarfCube& cube, uint64_t epoch,
                         const std::string& path);

/// \brief Maps \p path read-only and points a cube at the mapped arena.
/// IoError when the file cannot be opened or mapped; InvalidArgument when it
/// is not version 3; ParseError / InvalidArgument when the bytes are
/// truncated or corrupt.
Result<CubeSnapshot> LoadCubeSnapshot(const std::string& path);

/// \brief Canonical spool file name of \p epoch: "epoch-<20 digits>.cf".
/// Zero-padded so lexicographic directory order is epoch order.
std::string SnapshotFileName(uint64_t epoch);

/// \brief Scans \p dir for snapshot files (by the SnapshotFileName pattern)
/// and returns them sorted by ascending epoch. An empty directory yields an
/// empty list; a missing directory is an IoError.
Result<std::vector<SnapshotFileEntry>> ListSnapshots(const std::string& dir);

}  // namespace scdwarf::replica

#endif  // SCDWARF_REPLICA_SNAPSHOT_H_
