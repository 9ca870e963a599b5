#include "replica/snapshot.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/files.h"

namespace scdwarf::replica {

namespace {

constexpr char kMagic[8] = {'S', 'C', 'D', 'W', 'C', 'U', 'B', 'E'};
constexpr char kTrailer[8] = {'S', 'C', 'D', 'W', 'E', 'N', 'D', '\0'};
/// v3 is a direct image of the flat arena (dwarf_cube.h): after the
/// dictionaries come root/node/cell counts, the CubeStats block, padding to
/// an 8-byte file offset, then the raw FlatNode and DwarfCell arrays
/// (first_cell globalized across chunks). Rank views of ordered dimensions
/// are not serialized — the load path recomputes them from the dictionaries,
/// which are identical to the publisher's, so the views are too. Loading
/// validates the arrays in place and points the cube at the mapping — no
/// per-node rebuild — with the mapping pinned for the cube's lifetime.
/// Spool files live only as long as their fleet, so this is the one version
/// the loader reads.
constexpr uint32_t kVersion = 3;

// The v3 arrays are memcpy'd native structs; every producer and consumer of
// snapshot files in this codebase is little-endian (x86-64 / aarch64), like
// the scalar fields around them.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "snapshot v3 writes native little-endian arrays");

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked cursor over the mapped file bytes. Every read either
/// advances or reports the corruption, so a truncated file can never walk
/// past the mapping.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }

  Status Need(size_t n) {
    if (remaining() < n) {
      return Status::ParseError("snapshot truncated: need " +
                                std::to_string(n) + " bytes at offset " +
                                std::to_string(pos_) + ", have " +
                                std::to_string(remaining()));
    }
    return Status::OK();
  }

  Status ReadRaw(void* out, size_t n) {
    SCD_RETURN_IF_ERROR(Need(n));
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Result<uint32_t> ReadU32() {
    SCD_RETURN_IF_ERROR(Need(4));
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(data_[pos_ + i]);
    }
    pos_ += 4;
    return v;
  }

  Result<uint64_t> ReadU64() {
    SCD_RETURN_IF_ERROR(Need(8));
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(data_[pos_ + i]);
    }
    pos_ += 8;
    return v;
  }

  Result<std::string> ReadString() {
    SCD_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
    SCD_RETURN_IF_ERROR(Need(n));
    std::string s(data_ + pos_, n);
    pos_ += n;
    return s;
  }

  /// Current byte pointer (for pointing arrays into the mapping).
  const char* cursor() const { return data_ + pos_; }

  Status Skip(size_t n) {
    SCD_RETURN_IF_ERROR(Need(n));
    pos_ += n;
    return Status::OK();
  }

  /// Skips padding up to the next 8-byte-aligned file offset.
  Status AlignTo8() { return Skip((8 - pos_ % 8) % 8); }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// RAII over the read-only mapping. Held by shared_ptr because a load points
/// the cube's arena straight into the mapped bytes (the keepalive handle of
/// dwarf::NodeArena); released once the cube is gone, or at once when the
/// file fails to load.
struct Mapping {
  void* addr = MAP_FAILED;
  size_t size = 0;
  ~Mapping() {
    if (addr != MAP_FAILED && size > 0) ::munmap(addr, size);
  }
};

}  // namespace

Status WriteCubeSnapshot(const dwarf::DwarfCube& cube, uint64_t epoch,
                         const std::string& path) {
  const dwarf::CubeSchema& schema = cube.schema();
  // The image stores cell runs with 32-bit offsets; a cube anywhere near
  // these bounds (> 2^32 cells ≈ 64 GiB of cells) cannot be snapshotted.
  uint64_t total_cells = 0;
  for (dwarf::NodeId id = 0; id < cube.num_nodes(); ++id) {
    total_cells += cube.node(id).cells.size();
  }
  if (cube.num_nodes() >= dwarf::kNullNode ||
      total_cells > static_cast<uint64_t>(UINT32_MAX)) {
    return Status::InvalidArgument("cube too large for a v3 snapshot image");
  }
  std::string out;
  // Exact-ish pre-size: header + dictionaries dominate the slack; the arrays
  // are appended in two block copies per node.
  out.reserve(512 + total_cells * sizeof(dwarf::DwarfCell) +
              cube.num_nodes() * sizeof(dwarf::FlatNode));
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kVersion);
  PutU64(&out, epoch);
  PutString(&out, schema.name());
  PutU32(&out, static_cast<uint32_t>(schema.num_dimensions()));
  for (const dwarf::DimensionSpec& dim : schema.dimensions()) {
    PutString(&out, dim.name);
    PutString(&out, dim.dimension_table);
    out.push_back(dim.ordered ? 1 : 0);
  }
  PutString(&out, schema.measure_name());
  PutU32(&out, static_cast<uint32_t>(schema.agg()));
  for (size_t d = 0; d < cube.num_dimensions(); ++d) {
    const dwarf::Dictionary& dict = cube.dictionary(d);
    PutU64(&out, dict.size());
    for (dwarf::DimKey id = 0; id < dict.size(); ++id) {
      PutString(&out, dict.DecodeUnchecked(id));
    }
  }
  PutU32(&out, cube.root());
  PutU64(&out, cube.num_nodes());
  PutU64(&out, total_cells);
  const dwarf::CubeStats& stats = cube.stats();
  PutU64(&out, stats.node_count);
  PutU64(&out, stats.cell_count);
  PutU64(&out, stats.coalesced_all_count);
  PutU64(&out, stats.tuple_count);
  PutU64(&out, stats.source_tuple_count);
  PutU64(&out, stats.approx_bytes);
  // Pad to an 8-byte file offset so the mmap'd arrays are pointer-aligned
  // (the mapping itself is page-aligned; FlatNode is 24 bytes, so the cell
  // array after it stays 8-aligned too).
  while (out.size() % 8 != 0) out.push_back(0);
  // The node array, with first_cell globalized: chunks are serialized in id
  // order, so the image is one contiguous arena regardless of how many merge
  // chunks the live cube carried.
  uint32_t next_cell = 0;
  for (dwarf::NodeId id = 0; id < cube.num_nodes(); ++id) {
    const dwarf::NodeView node = cube.node(id);
    dwarf::FlatNode entry;
    entry.first_cell = next_cell;
    entry.num_cells = static_cast<uint32_t>(node.cells.size());
    entry.all_child = node.all_child;
    entry.level = node.level;
    entry.flags = node.all_coalesced ? dwarf::FlatNode::kAllCoalesced : 0;
    entry.all_measure = node.all_measure;
    out.append(reinterpret_cast<const char*>(&entry), sizeof(entry));
    next_cell += entry.num_cells;
  }
  for (dwarf::NodeId id = 0; id < cube.num_nodes(); ++id) {
    const dwarf::NodeView node = cube.node(id);
    out.append(reinterpret_cast<const char*>(node.cells.data()),
               node.cells.size() * sizeof(dwarf::DwarfCell));
  }
  out.append(kTrailer, sizeof(kTrailer));
  return WriteFileAtomic(path, out);
}

Result<CubeSnapshot> LoadCubeSnapshot(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " +
                           std::string(std::strerror(errno)));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    Status status = Status::IoError("fstat " + path + ": " +
                                    std::string(std::strerror(errno)));
    ::close(fd);
    return status;
  }
  auto mapping = std::make_shared<Mapping>();
  mapping->size = static_cast<size_t>(st.st_size);
  if (mapping->size > 0) {
    // PROT_READ + MAP_SHARED: every replica on the machine shares one page
    // cache copy of the file, and any write attempt faults instead of
    // silently corrupting the published artifact.
    mapping->addr =
        ::mmap(nullptr, mapping->size, PROT_READ, MAP_SHARED, fd, 0);
  }
  ::close(fd);
  if (mapping->size == 0 || mapping->addr == MAP_FAILED) {
    return Status::IoError("mmap " + path + ": " +
                           (mapping->size == 0 ? std::string("empty file")
                                               : std::strerror(errno)));
  }
  Reader in(static_cast<const char*>(mapping->addr), mapping->size);
  char magic[8];
  SCD_RETURN_IF_ERROR(in.ReadRaw(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError(path + " is not a cube snapshot (bad magic)");
  }
  SCD_ASSIGN_OR_RETURN(uint32_t version, in.ReadU32());
  if (version != kVersion) {
    return Status::InvalidArgument(
        path + " is snapshot version " + std::to_string(version) +
        "; only version " + std::to_string(kVersion) + " is supported");
  }
  SCD_ASSIGN_OR_RETURN(uint64_t epoch, in.ReadU64());
  SCD_ASSIGN_OR_RETURN(std::string schema_name, in.ReadString());
  SCD_ASSIGN_OR_RETURN(uint32_t num_dims, in.ReadU32());
  if (num_dims == 0 || num_dims > 64) {
    return Status::ParseError("snapshot has implausible dimension count " +
                              std::to_string(num_dims));
  }
  std::vector<dwarf::DimensionSpec> dims;
  dims.reserve(num_dims);
  for (uint32_t d = 0; d < num_dims; ++d) {
    SCD_ASSIGN_OR_RETURN(std::string name, in.ReadString());
    SCD_ASSIGN_OR_RETURN(std::string table, in.ReadString());
    char ordered = 0;
    SCD_RETURN_IF_ERROR(in.ReadRaw(&ordered, 1));
    dims.emplace_back(std::move(name), std::move(table), ordered != 0);
  }
  SCD_ASSIGN_OR_RETURN(std::string measure_name, in.ReadString());
  SCD_ASSIGN_OR_RETURN(uint32_t agg_raw, in.ReadU32());
  if (agg_raw > static_cast<uint32_t>(dwarf::AggFn::kMax)) {
    return Status::ParseError("snapshot has unknown aggregate id " +
                              std::to_string(agg_raw));
  }
  dwarf::CubeSchema schema(std::move(schema_name), std::move(dims),
                           std::move(measure_name),
                           static_cast<dwarf::AggFn>(agg_raw));
  std::vector<dwarf::Dictionary> dictionaries;
  dictionaries.reserve(num_dims);
  for (uint32_t d = 0; d < num_dims; ++d) {
    SCD_ASSIGN_OR_RETURN(uint64_t count, in.ReadU64());
    // Each value needs at least its 4-byte length prefix.
    if (count * 4 > in.remaining()) {
      return Status::ParseError("snapshot dictionary " + std::to_string(d) +
                                " claims " + std::to_string(count) +
                                " values past end of file");
    }
    dwarf::Dictionary dict(schema.dimensions()[d].name);
    for (uint64_t i = 0; i < count; ++i) {
      SCD_ASSIGN_OR_RETURN(std::string value, in.ReadString());
      dict.Encode(value);
    }
    if (dict.size() != count) {
      return Status::ParseError("snapshot dictionary " + std::to_string(d) +
                                " holds duplicate values");
    }
    dictionaries.push_back(std::move(dict));
  }
  SCD_ASSIGN_OR_RETURN(uint32_t root, in.ReadU32());
  SCD_ASSIGN_OR_RETURN(uint64_t num_nodes, in.ReadU64());
  // Direct arena image: validate the raw arrays in place and point the
  // cube at the mapping (pinned by the arena's keepalive handle). No
  // per-node rebuild, no stats walk — load cost is the validation scan.
  SCD_ASSIGN_OR_RETURN(uint64_t num_cells, in.ReadU64());
  if (num_nodes >= dwarf::kNullNode ||
      num_cells > static_cast<uint64_t>(UINT32_MAX)) {
    return Status::ParseError("snapshot arena counts exceed 32-bit ids");
  }
  dwarf::CubeStats stats;
  SCD_ASSIGN_OR_RETURN(stats.node_count, in.ReadU64());
  SCD_ASSIGN_OR_RETURN(stats.cell_count, in.ReadU64());
  SCD_ASSIGN_OR_RETURN(stats.coalesced_all_count, in.ReadU64());
  SCD_ASSIGN_OR_RETURN(stats.tuple_count, in.ReadU64());
  SCD_ASSIGN_OR_RETURN(stats.source_tuple_count, in.ReadU64());
  SCD_ASSIGN_OR_RETURN(stats.approx_bytes, in.ReadU64());
  SCD_RETURN_IF_ERROR(in.AlignTo8());
  const auto* nodes = reinterpret_cast<const dwarf::FlatNode*>(in.cursor());
  SCD_RETURN_IF_ERROR(in.Skip(num_nodes * sizeof(dwarf::FlatNode)));
  const auto* cells = reinterpret_cast<const dwarf::DwarfCell*>(in.cursor());
  SCD_RETURN_IF_ERROR(in.Skip(num_cells * sizeof(dwarf::DwarfCell)));
  char trailer[8];
  SCD_RETURN_IF_ERROR(in.ReadRaw(trailer, sizeof(trailer)));
  if (std::memcmp(trailer, kTrailer, sizeof(kTrailer)) != 0) {
    return Status::ParseError(path + " has a corrupt snapshot trailer");
  }
  auto arena = std::make_shared<const dwarf::NodeArena>(
      nodes, num_nodes, cells, num_cells, mapping);
  Result<dwarf::DwarfCube> cube = dwarf::DwarfCube::FromFlatArena(
      std::move(schema), std::move(dictionaries), std::move(arena), root,
      stats);
  if (!cube.ok()) return cube.status().WithContext("loading " + path);
  return CubeSnapshot{epoch, std::move(*cube)};
}

std::string SnapshotFileName(uint64_t epoch) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "epoch-%020llu.cf",
                static_cast<unsigned long long>(epoch));
  return buf;
}

Result<std::vector<SnapshotFileEntry>> ListSnapshots(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return Status::IoError("opendir " + dir + ": " +
                           std::string(std::strerror(errno)));
  }
  std::vector<SnapshotFileEntry> entries;
  while (dirent* entry = ::readdir(handle)) {
    unsigned long long epoch = 0;
    int consumed = 0;
    // Exactly the SnapshotFileName pattern: "epoch-<digits>.cf".
    if (std::sscanf(entry->d_name, "epoch-%20llu.cf%n", &epoch, &consumed) ==
            1 &&
        consumed > 0 && entry->d_name[consumed] == '\0') {
      entries.push_back(
          {epoch, dir + "/" + entry->d_name});
    }
  }
  ::closedir(handle);
  std::sort(entries.begin(), entries.end(),
            [](const SnapshotFileEntry& a, const SnapshotFileEntry& b) {
              return a.epoch < b.epoch;
            });
  return entries;
}

}  // namespace scdwarf::replica
