#include "clustered/flat_file.h"

#include <algorithm>
#include <cstdlib>

#include "common/bytes.h"
#include "common/files.h"
#include "dwarf/traversal.h"

namespace scdwarf::clustered {

namespace {

constexpr uint32_t kMagic = 0x46574453;  // "SDWF"
constexpr uint8_t kVersion = 1;

using dwarf::DwarfCell;
using dwarf::DwarfCube;
using dwarf::DwarfNode;
using dwarf::Measure;
using dwarf::NodeId;

/// Serializes one node with node-indexed children (file ids, not offsets).
void EncodeNode(const DwarfCube& cube, const dwarf::NodeView& node,
                const std::vector<uint32_t>& file_ids, ByteWriter* out) {
  bool leaf = cube.IsLeafLevel(node.level);
  out->PutVarint(node.level);
  out->PutVarint(node.cells.size());
  for (const DwarfCell& cell : node.cells) {
    out->PutVarint(cell.key);
    if (leaf) {
      out->PutSignedVarint(cell.measure);
    } else {
      out->PutVarint(file_ids[cell.child]);
    }
  }
  if (leaf) {
    out->PutSignedVarint(node.all_measure);
  } else {
    out->PutVarint(file_ids[node.all_child]);
  }
}

}  // namespace

const char* ClusterLayoutName(ClusterLayout layout) {
  switch (layout) {
    case ClusterLayout::kHierarchical:
      return "hierarchical";
    case ClusterLayout::kRecursive:
      return "recursive";
  }
  return "?";
}

Status WriteDwarfFile(const DwarfCube& cube, const std::string& path,
                      ClusterLayout layout) {
  // Layout order decides file ids.
  std::vector<NodeId> order = dwarf::CollectReachableNodes(
      cube, layout == ClusterLayout::kHierarchical
                ? dwarf::TraversalOrder::kBreadthFirst
                : dwarf::TraversalOrder::kDepthFirst);
  std::vector<uint32_t> file_ids(cube.num_nodes(), 0);
  for (uint32_t i = 0; i < order.size(); ++i) file_ids[order[i]] = i;

  // Header.
  ByteWriter header;
  header.PutU32(kMagic);
  header.PutU8(kVersion);
  header.PutU8(static_cast<uint8_t>(layout));
  header.PutString(dwarf::AggFnName(cube.agg()));
  header.PutString(cube.schema().name());
  header.PutString(cube.schema().measure_name());
  header.PutVarint(cube.num_dimensions());
  for (size_t dim = 0; dim < cube.num_dimensions(); ++dim) {
    header.PutString(cube.schema().dimensions()[dim].name);
    header.PutString(cube.schema().dimensions()[dim].dimension_table);
    const dwarf::Dictionary& dictionary = cube.dictionary(dim);
    header.PutVarint(dictionary.size());
    for (dwarf::DimKey id = 0; id < dictionary.size(); ++id) {
      header.PutString(dictionary.DecodeUnchecked(id));
    }
  }
  header.PutU8(cube.empty() ? 1 : 0);
  header.PutVarint(order.size());
  if (!cube.empty()) {
    header.PutU32(file_ids[cube.root()]);
  } else {
    header.PutU32(0);
  }

  // Node payloads.
  std::vector<std::vector<uint8_t>> payloads;
  payloads.reserve(order.size());
  for (NodeId arena_id : order) {
    ByteWriter node_bytes;
    EncodeNode(cube, cube.node(arena_id), file_ids, &node_bytes);
    payloads.push_back(node_bytes.TakeBuffer());
  }

  // Directory: fixed-width (offset u64, size u32) per node so FlatFileCube
  // can seek directly.
  uint64_t directory_bytes = payloads.size() * (sizeof(uint64_t) + sizeof(uint32_t));
  uint64_t payload_start = header.size() + directory_bytes;
  ByteWriter directory;
  uint64_t offset = payload_start;
  for (const auto& payload : payloads) {
    directory.PutU64(offset);
    directory.PutU32(static_cast<uint32_t>(payload.size()));
    offset += payload.size();
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  auto write_all = [&out](const std::vector<uint8_t>& bytes) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };
  write_all(header.data());
  write_all(directory.data());
  for (const auto& payload : payloads) write_all(payload);
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

namespace {

/// Shared header decode used by both ReadDwarfFile and FlatFileCube::Open.
struct FileHeader {
  ClusterLayout layout;
  dwarf::AggFn agg;
  std::string cube_name;
  std::string measure_name;
  std::vector<std::string> dim_names;
  std::vector<std::string> dim_tables;
  std::vector<std::vector<std::string>> dictionaries;  // id -> string
  bool empty;
  uint64_t num_nodes;
  uint32_t root_id;
};

Result<FileHeader> DecodeHeader(ByteReader* reader) {
  SCD_ASSIGN_OR_RETURN(uint32_t magic, reader->ReadU32());
  if (magic != kMagic) return Status::ParseError("bad dwarf file magic");
  SCD_ASSIGN_OR_RETURN(uint8_t version, reader->ReadU8());
  if (version != kVersion) {
    return Status::ParseError("unsupported dwarf file version");
  }
  FileHeader header;
  SCD_ASSIGN_OR_RETURN(uint8_t layout, reader->ReadU8());
  if (layout > static_cast<uint8_t>(ClusterLayout::kRecursive)) {
    return Status::ParseError("unknown cluster layout");
  }
  header.layout = static_cast<ClusterLayout>(layout);
  SCD_ASSIGN_OR_RETURN(std::string agg_name, reader->ReadString());
  SCD_ASSIGN_OR_RETURN(header.agg, dwarf::ParseAggFn(agg_name));
  SCD_ASSIGN_OR_RETURN(header.cube_name, reader->ReadString());
  SCD_ASSIGN_OR_RETURN(header.measure_name, reader->ReadString());
  SCD_ASSIGN_OR_RETURN(uint64_t num_dims, reader->ReadVarint());
  for (uint64_t dim = 0; dim < num_dims; ++dim) {
    SCD_ASSIGN_OR_RETURN(std::string name, reader->ReadString());
    SCD_ASSIGN_OR_RETURN(std::string table, reader->ReadString());
    header.dim_names.push_back(std::move(name));
    header.dim_tables.push_back(std::move(table));
    SCD_ASSIGN_OR_RETURN(uint64_t dict_size, reader->ReadVarint());
    std::vector<std::string> entries;
    entries.reserve(dict_size);
    for (uint64_t i = 0; i < dict_size; ++i) {
      SCD_ASSIGN_OR_RETURN(std::string entry, reader->ReadString());
      entries.push_back(std::move(entry));
    }
    header.dictionaries.push_back(std::move(entries));
  }
  SCD_ASSIGN_OR_RETURN(uint8_t empty, reader->ReadU8());
  header.empty = empty != 0;
  SCD_ASSIGN_OR_RETURN(header.num_nodes, reader->ReadVarint());
  SCD_ASSIGN_OR_RETURN(header.root_id, reader->ReadU32());
  return header;
}

Result<dwarf::CubeSchema> HeaderToSchema(const FileHeader& header) {
  std::vector<dwarf::DimensionSpec> dims;
  for (size_t i = 0; i < header.dim_names.size(); ++i) {
    dims.emplace_back(header.dim_names[i], header.dim_tables[i]);
  }
  dwarf::CubeSchema schema(header.cube_name, std::move(dims),
                           header.measure_name, header.agg);
  SCD_RETURN_IF_ERROR(schema.Validate());
  return schema;
}

}  // namespace

Result<DwarfCube> ReadDwarfFile(const std::string& path) {
  SCD_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFile(path));
  ByteReader reader(bytes);
  SCD_ASSIGN_OR_RETURN(FileHeader header, DecodeHeader(&reader));
  SCD_ASSIGN_OR_RETURN(dwarf::CubeSchema schema, HeaderToSchema(header));

  std::vector<dwarf::Dictionary> dictionaries;
  for (size_t dim = 0; dim < header.dim_names.size(); ++dim) {
    dwarf::Dictionary dictionary(header.dim_names[dim]);
    for (const std::string& entry : header.dictionaries[dim]) {
      dictionary.Encode(entry);
    }
    dictionaries.push_back(std::move(dictionary));
  }

  // Directory.
  std::vector<uint64_t> offsets(header.num_nodes);
  std::vector<uint32_t> sizes(header.num_nodes);
  for (uint64_t i = 0; i < header.num_nodes; ++i) {
    SCD_ASSIGN_OR_RETURN(offsets[i], reader.ReadU64());
    SCD_ASSIGN_OR_RETURN(sizes[i], reader.ReadU32());
  }

  dwarf::CubeAssembler assembler(schema, std::move(dictionaries));
  size_t num_dims = header.dim_names.size();
  for (uint64_t i = 0; i < header.num_nodes; ++i) {
    if (offsets[i] + sizes[i] > bytes.size()) {
      return Status::ParseError("node directory points past end of file");
    }
    ByteReader node_reader(bytes.data() + offsets[i], sizes[i]);
    DwarfNode node;
    SCD_ASSIGN_OR_RETURN(uint64_t level, node_reader.ReadVarint());
    node.level = static_cast<uint16_t>(level);
    bool leaf = level + 1 == num_dims;
    SCD_ASSIGN_OR_RETURN(uint64_t num_cells, node_reader.ReadVarint());
    for (uint64_t c = 0; c < num_cells; ++c) {
      DwarfCell cell;
      SCD_ASSIGN_OR_RETURN(uint64_t key, node_reader.ReadVarint());
      cell.key = static_cast<dwarf::DimKey>(key);
      if (leaf) {
        SCD_ASSIGN_OR_RETURN(cell.measure, node_reader.ReadSignedVarint());
      } else {
        SCD_ASSIGN_OR_RETURN(uint64_t child, node_reader.ReadVarint());
        cell.child = static_cast<NodeId>(child);
      }
      node.cells.push_back(cell);
    }
    if (leaf) {
      SCD_ASSIGN_OR_RETURN(node.all_measure, node_reader.ReadSignedVarint());
    } else {
      SCD_ASSIGN_OR_RETURN(uint64_t all_child, node_reader.ReadVarint());
      node.all_child = static_cast<NodeId>(all_child);
      node.all_coalesced = node.cells.size() == 1 &&
                           node.cells[0].child == node.all_child;
    }
    assembler.AddNode(std::move(node));
  }
  if (!header.empty) assembler.SetRoot(header.root_id);
  return assembler.Finish();
}

Result<FlatFileCube> FlatFileCube::Open(const std::string& path) {
  // Read the header + directory only.
  SCD_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFile(path));
  ByteReader reader(bytes);
  SCD_ASSIGN_OR_RETURN(FileHeader header, DecodeHeader(&reader));

  FlatFileCube cube;
  cube.path_ = path;
  cube.layout_ = header.layout;
  cube.agg_ = header.agg;
  cube.dimension_names_ = header.dim_names;
  cube.dictionaries_.resize(header.dictionaries.size());
  for (size_t dim = 0; dim < header.dictionaries.size(); ++dim) {
    for (size_t id = 0; id < header.dictionaries[dim].size(); ++id) {
      cube.dictionaries_[dim].emplace(header.dictionaries[dim][id],
                                      static_cast<dwarf::DimKey>(id));
    }
  }
  cube.node_offsets_.resize(header.num_nodes);
  cube.node_sizes_.resize(header.num_nodes);
  for (uint64_t i = 0; i < header.num_nodes; ++i) {
    SCD_ASSIGN_OR_RETURN(cube.node_offsets_[i], reader.ReadU64());
    SCD_ASSIGN_OR_RETURN(cube.node_sizes_[i], reader.ReadU32());
  }
  cube.root_id_ = header.root_id;
  cube.empty_ = header.empty;
  cube.file_size_ = bytes.size();
  cube.file_.open(path, std::ios::binary);
  if (!cube.file_) return Status::IoError("cannot reopen " + path);
  return cube;
}

Result<FlatFileCube::FileNode> FlatFileCube::FetchNode(uint32_t id) {
  if (id >= node_offsets_.size()) {
    return Status::OutOfRange("node id " + std::to_string(id) +
                              " outside directory");
  }
  uint64_t offset = node_offsets_[id];
  uint32_t size = node_sizes_[id];
  stats_.seek_distance += offset > last_read_end_ ? offset - last_read_end_
                                                  : last_read_end_ - offset;
  file_.seekg(static_cast<std::streamoff>(offset));
  std::vector<uint8_t> bytes(size);
  if (!file_.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return Status::IoError("failed to read node " + std::to_string(id));
  }
  last_read_end_ = offset + size;
  ++stats_.node_reads;
  stats_.bytes_read += size;

  ByteReader reader(bytes);
  FileNode node;
  SCD_ASSIGN_OR_RETURN(uint64_t level, reader.ReadVarint());
  node.level = static_cast<uint16_t>(level);
  bool leaf = level + 1 == dimension_names_.size();
  SCD_ASSIGN_OR_RETURN(uint64_t num_cells, reader.ReadVarint());
  for (uint64_t c = 0; c < num_cells; ++c) {
    dwarf::DwarfCell cell;
    SCD_ASSIGN_OR_RETURN(uint64_t key, reader.ReadVarint());
    cell.key = static_cast<dwarf::DimKey>(key);
    if (leaf) {
      SCD_ASSIGN_OR_RETURN(cell.measure, reader.ReadSignedVarint());
    } else {
      SCD_ASSIGN_OR_RETURN(uint64_t child, reader.ReadVarint());
      cell.child = static_cast<NodeId>(child);
    }
    node.cells.push_back(cell);
  }
  if (leaf) {
    SCD_ASSIGN_OR_RETURN(node.all_measure, reader.ReadSignedVarint());
  } else {
    SCD_ASSIGN_OR_RETURN(uint64_t all_child, reader.ReadVarint());
    node.all_child = static_cast<uint32_t>(all_child);
  }
  return node;
}

Result<dwarf::DimKey> FlatFileCube::EncodeKey(size_t dim,
                                              const std::string& key) const {
  if (dim >= dictionaries_.size()) {
    return Status::OutOfRange("no dimension " + std::to_string(dim));
  }
  auto it = dictionaries_[dim].find(key);
  if (it == dictionaries_[dim].end()) {
    return Status::NotFound("key '" + key + "' not in dimension " +
                            dimension_names_[dim]);
  }
  return it->second;
}

Result<dwarf::Measure> FlatFileCube::PointQuery(
    const std::vector<std::optional<std::string>>& keys) {
  if (keys.size() != num_dimensions()) {
    return Status::InvalidArgument("point query arity mismatch");
  }
  if (empty_) return Status::NotFound("cube is empty");
  uint32_t current = root_id_;
  for (size_t level = 0; level < keys.size(); ++level) {
    SCD_ASSIGN_OR_RETURN(FileNode node, FetchNode(current));
    bool leaf = level + 1 == keys.size();
    if (keys[level].has_value()) {
      SCD_ASSIGN_OR_RETURN(dwarf::DimKey key, EncodeKey(level, *keys[level]));
      auto it = std::lower_bound(
          node.cells.begin(), node.cells.end(), key,
          [](const dwarf::DwarfCell& cell, dwarf::DimKey k) {
            return cell.key < k;
          });
      if (it == node.cells.end() || it->key != key) {
        return Status::NotFound("no data at dimension " +
                                std::to_string(level) + " key '" +
                                *keys[level] + "'");
      }
      if (leaf) return it->measure;
      current = it->child;
    } else {
      if (leaf) return node.all_measure;
      current = node.all_child;
    }
  }
  return Status::Internal("unreachable");
}

Result<dwarf::Measure> FlatFileCube::Aggregate(
    uint32_t node_id, size_t level,
    const std::vector<dwarf::DimPredicate>& preds, bool* found) {
  SCD_ASSIGN_OR_RETURN(FileNode node, FetchNode(node_id));
  bool leaf = level + 1 == preds.size();
  const dwarf::DimPredicate& pred = preds[level];
  Measure acc = dwarf::AggIdentity(agg_);
  if (pred.kind == dwarf::DimPredicate::Kind::kAll) {
    if (leaf) {
      *found = true;
      return node.all_measure;
    }
    return Aggregate(node.all_child, level + 1, preds, found);
  }
  for (const dwarf::DwarfCell& cell : node.cells) {
    if (!pred.Matches(cell.key)) continue;
    if (leaf) {
      acc = dwarf::AggCombine(agg_, acc, cell.measure);
      *found = true;
    } else {
      bool child_found = false;
      auto child = Aggregate(cell.child, level + 1, preds, &child_found);
      SCD_RETURN_IF_ERROR(child.status());
      if (child_found) {
        acc = dwarf::AggCombine(agg_, acc, *child);
        *found = true;
      }
    }
  }
  return acc;
}

Result<dwarf::Measure> FlatFileCube::AggregateQuery(
    const std::vector<dwarf::DimPredicate>& predicates) {
  if (predicates.size() != num_dimensions()) {
    return Status::InvalidArgument("aggregate query arity mismatch");
  }
  for (const dwarf::DimPredicate& pred : predicates) {
    if (pred.kind != dwarf::DimPredicate::Kind::kRange) continue;
    if (pred.lo > pred.hi) {
      return Status::InvalidArgument("range predicate has lo > hi");
    }
    if (pred.by_rank) {
      // The flat file stores no rank views; callers must resolve value
      // ranges to id ranges before querying the clustered layout.
      return Status::InvalidArgument(
          "rank-range predicates are not supported on flat-file cubes");
    }
  }
  if (empty_) return Status::NotFound("cube is empty");
  bool found = false;
  SCD_ASSIGN_OR_RETURN(Measure result,
                       Aggregate(root_id_, 0, predicates, &found));
  if (!found) return Status::NotFound("no tuples match the query");
  return result;
}

}  // namespace scdwarf::clustered
