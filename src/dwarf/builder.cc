#include "dwarf/builder.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <queue>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace scdwarf::dwarf {

namespace {

/// Below this many tuples the shard/merge machinery costs more than the
/// serial sort it replaces.
constexpr size_t kMinParallelSortTuples = 4096;

/// Below this many tuples the per-subtree task machinery costs more than the
/// serial construction sweep it replaces.
constexpr size_t kMinParallelSweepTuples = 4096;

/// Hash functor for merge memoization keys (sorted multisets of NodeId).
struct NodeListHash {
  size_t operator()(const std::vector<NodeId>& ids) const {
    uint64_t h = 0x9ae16a3b2f90404fULL;
    for (NodeId id : ids) h = HashCombine(h, id);
    return static_cast<size_t>(h);
  }
};

/// SuffixCoalesce results by sorted input ids.
using MergeMemo = std::unordered_map<std::vector<NodeId>, NodeId, NodeListHash>;

}  // namespace

/// \brief Stateful construction pass over the sorted, deduplicated tuples.
class DwarfBuilder::Impl {
 public:
  Impl(const CubeSchema& schema, const BuilderOptions& options)
      : schema_(schema),
        options_(options),
        num_dims_(schema.num_dimensions()),
        agg_(schema.agg()) {}

  /// Sweeps tuples [\p begin, \p end) whose keys agree on every dimension
  /// below \p base_level, building the sub-dwarf rooted at \p base_level.
  /// The full build is Run(tuples, 0, tuples.size(), 0, nodes).
  Result<NodeId> Run(const std::vector<Tuple>& tuples, size_t begin,
                     size_t end, size_t base_level,
                     std::vector<DwarfNode>* nodes) {
    nodes_ = nodes;
    if (begin >= end) return kNullNode;

    open_.assign(num_dims_, {});
    // Seed the path for the first tuple.
    for (size_t level = base_level; level < num_dims_; ++level) {
      open_[level].push_back(MakeCell(tuples[begin], level));
    }

    for (size_t i = begin + 1; i < end; ++i) {
      const Tuple& tuple = tuples[i];
      const Tuple& prev = tuples[i - 1];
      size_t diverge = base_level;
      while (tuple.keys[diverge] == prev.keys[diverge]) ++diverge;
      // Close every open node strictly below the divergence level,
      // bottom-up, wiring each closed node into its parent's pending cell.
      for (size_t level = num_dims_ - 1; level > diverge; --level) {
        NodeId closed = CloseOpenNode(level);
        open_[level - 1].back().child = closed;
        open_[level].clear();
      }
      // Extend the divergence node and reopen the path below it.
      open_[diverge].push_back(MakeCell(tuple, diverge));
      for (size_t level = diverge + 1; level < num_dims_; ++level) {
        open_[level].push_back(MakeCell(tuple, level));
      }
    }

    // Final close up to the base level.
    for (size_t level = num_dims_ - 1; level > base_level; --level) {
      NodeId closed = CloseOpenNode(level);
      open_[level - 1].back().child = closed;
    }
    return CloseOpenNode(base_level);
  }

  /// Closes the top of the cube over pre-built subtrees, replaying the
  /// serial sweep's behavior for levels 0..split exactly. The caller drives
  /// one cycle per group, in sorted group order:
  ///
  ///   BeginStitch(split, nodes);
  ///   for each group: StitchBoundary(first, prev);  // closes, then opens
  ///                   <append the group's rebased arena to nodes>
  ///                   WireGroupRoot(rebased_root, begin, &group_memo);
  ///   root = FinishStitch();
  ///
  /// StitchBoundary runs *before* the group's arena is appended because the
  /// serial sweep commits the boundary's close cascade (levels split down to
  /// diverge+1) between the two groups' subtree nodes — the interleaving is
  /// what keeps the arena bit-identical to the serial one.
  void BeginStitch(size_t split, std::vector<DwarfNode>* nodes) {
    nodes_ = nodes;
    stitch_split_ = split;
    open_.assign(num_dims_, {});
  }

  /// Closes the open nodes below the divergence of \p first vs \p prev (the
  /// previous group's first tuple; null for the first group) and opens the
  /// cell path for the new group down to the split level.
  void StitchBoundary(const Tuple& first, const Tuple* prev) {
    size_t diverge = 0;
    if (prev != nullptr) {
      while (first.keys[diverge] == prev->keys[diverge]) ++diverge;
      // diverge <= split: groups are distinct (split+1)-length prefixes.
      for (size_t level = stitch_split_; level > diverge; --level) {
        NodeId closed = CloseOpenNode(level);
        open_[level - 1].back().child = closed;
      }
    }
    for (size_t level = diverge; level <= stitch_split_; ++level) {
      open_[level].push_back(MakeCell(first, level));
    }
  }

  /// Wires the just-appended group's subtree root into the pending
  /// split-level cell opened by StitchBoundary, and makes the group's merge
  /// memo (keyed by its local ids; it must outlive the stitch) visible to
  /// later top-phase merges. \p begin is the group's first id in the arena.
  void WireGroupRoot(NodeId root, NodeId begin, const MergeMemo* memo) {
    open_[stitch_split_].back().child = root;
    groups_.push_back({begin, static_cast<NodeId>(nodes_->size()), memo});
  }

  /// Hands over the merge memo of a finished Run.
  MergeMemo TakeMergeMemo() { return std::move(merge_memo_); }

  /// Final cascade: closes split..0 and returns the root id.
  NodeId FinishStitch() {
    for (size_t level = stitch_split_; level > 0; --level) {
      NodeId closed = CloseOpenNode(level);
      open_[level - 1].back().child = closed;
    }
    return CloseOpenNode(0);
  }

 private:
  /// A group stitched into the arena: its id range [begin, end) and the
  /// memo its own sweep built.
  struct StitchedGroup {
    NodeId begin;
    NodeId end;
    const MergeMemo* memo;
  };

  /// Looks up a sorted memo key in the memo of the stitched group whose id
  /// range holds every id of the key; kNullNode when there is none.
  NodeId FindInGroupMemo(const std::vector<NodeId>& key) {
    auto group = std::upper_bound(
        groups_.begin(), groups_.end(), key.front(),
        [](NodeId id, const StitchedGroup& g) { return id < g.begin; });
    if (group == groups_.begin()) return kNullNode;
    --group;
    if (key.back() >= group->end) return kNullNode;
    local_key_.clear();
    for (NodeId id : key) local_key_.push_back(id - group->begin);
    auto it = group->memo->find(local_key_);
    return it == group->memo->end() ? kNullNode : it->second + group->begin;
  }

  DwarfCell MakeCell(const Tuple& tuple, size_t level) const {
    DwarfCell cell;
    cell.key = tuple.keys[level];
    if (level + 1 == num_dims_) {
      cell.measure = tuple.measure;
    }
    return cell;
  }

  bool IsLeafLevel(size_t level) const { return level + 1 == num_dims_; }

  /// Finalizes the open node at \p level: computes its ALL cell and commits
  /// it to the arena.
  NodeId CloseOpenNode(size_t level) {
    DwarfNode node;
    node.level = static_cast<uint16_t>(level);
    node.cells = std::move(open_[level]);
    open_[level].clear();
    FinalizeAll(&node);
    return Commit(std::move(node));
  }

  /// Computes the ALL cell of \p node from its (already closed) children.
  void FinalizeAll(DwarfNode* node) {
    if (IsLeafLevel(node->level)) {
      Measure all = AggIdentity(agg_);
      for (const DwarfCell& cell : node->cells) {
        all = AggCombine(agg_, all, cell.measure);
      }
      node->all_measure = all;
      return;
    }
    std::vector<NodeId> children;
    children.reserve(node->cells.size());
    for (const DwarfCell& cell : node->cells) children.push_back(cell.child);
    node->all_child = SuffixCoalesce(std::move(children), node->level + 1);
    node->all_coalesced =
        options_.enable_suffix_coalescing && node->cells.size() == 1;
  }

  NodeId Commit(DwarfNode node) {
    NodeId id = static_cast<NodeId>(nodes_->size());
    nodes_->push_back(std::move(node));
    return id;
  }

  /// Merges the sub-dwarfs rooted at \p inputs (all at \p level) into the
  /// aggregate sub-dwarf, sharing structure where possible.
  ///
  /// Duplicate input ids are intentional and must be aggregated once per
  /// occurrence: two cells whose subtrees coalesced both contribute.
  NodeId SuffixCoalesce(std::vector<NodeId> inputs, size_t level) {
    SCD_CHECK(!inputs.empty());
    if (options_.enable_suffix_coalescing && inputs.size() == 1) {
      return inputs[0];  // Share the existing sub-dwarf.
    }
    if (!options_.enable_suffix_coalescing && inputs.size() == 1) {
      return CopySubtree(inputs[0]);
    }

    std::vector<NodeId> memo_key;
    bool use_memo =
        options_.enable_suffix_coalescing && options_.enable_merge_memoization;
    if (use_memo) {
      memo_key = inputs;
      std::sort(memo_key.begin(), memo_key.end());
      auto it = merge_memo_.find(memo_key);
      if (it != merge_memo_.end()) return it->second;
      NodeId hit = FindInGroupMemo(memo_key);
      if (hit != kNullNode) return hit;
    }

    // Gather all input cells and sort by key; equal keys group together.
    struct Entry {
      DimKey key;
      NodeId child;
      Measure measure;
    };
    std::vector<Entry> entries;
    for (NodeId input : inputs) {
      const DwarfNode& in = (*nodes_)[input];
      for (const DwarfCell& cell : in.cells) {
        entries.push_back({cell.key, cell.child, cell.measure});
      }
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) { return a.key < b.key; });

    DwarfNode merged;
    merged.level = static_cast<uint16_t>(level);
    bool leaf = IsLeafLevel(level);
    size_t i = 0;
    while (i < entries.size()) {
      size_t j = i;
      while (j < entries.size() && entries[j].key == entries[i].key) ++j;
      DwarfCell cell;
      cell.key = entries[i].key;
      if (leaf) {
        Measure value = AggIdentity(agg_);
        for (size_t k = i; k < j; ++k) {
          value = AggCombine(agg_, value, entries[k].measure);
        }
        cell.measure = value;
      } else {
        std::vector<NodeId> group;
        group.reserve(j - i);
        for (size_t k = i; k < j; ++k) group.push_back(entries[k].child);
        cell.child = SuffixCoalesce(std::move(group), level + 1);
      }
      merged.cells.push_back(cell);
      i = j;
    }
    FinalizeAll(&merged);
    NodeId id = Commit(std::move(merged));
    if (use_memo) merge_memo_.emplace(std::move(memo_key), id);
    return id;
  }

  /// Deep-copies a sub-dwarf (suffix-coalescing ablation only).
  NodeId CopySubtree(NodeId source) {
    // Copy the source node by value first: recursive Commit() calls may
    // reallocate the arena and invalidate any reference into it.
    DwarfNode copy = (*nodes_)[source];
    copy.all_coalesced = false;
    if (!IsLeafLevel(copy.level)) {
      for (DwarfCell& cell : copy.cells) {
        cell.child = CopySubtree(cell.child);
      }
      copy.all_child = CopySubtree(copy.all_child);
    }
    return Commit(std::move(copy));
  }

  const CubeSchema& schema_;
  const BuilderOptions& options_;
  size_t num_dims_;
  AggFn agg_;
  std::vector<DwarfNode>* nodes_ = nullptr;
  std::vector<std::vector<DwarfCell>> open_;
  size_t stitch_split_ = 0;
  MergeMemo merge_memo_;
  std::vector<StitchedGroup> groups_;  ///< ascending begin ids
  std::vector<NodeId> local_key_;      ///< FindInGroupMemo scratch
};

DwarfBuilder::DwarfBuilder(CubeSchema schema, BuilderOptions options)
    : schema_(std::move(schema)), options_(options) {
  dictionaries_.reserve(schema_.num_dimensions());
  for (const DimensionSpec& dim : schema_.dimensions()) {
    dictionaries_.emplace_back(dim.name);
  }
}

Status DwarfBuilder::AddTuple(const std::vector<std::string>& keys,
                              Measure measure) {
  if (keys.size() != schema_.num_dimensions()) {
    return Status::InvalidArgument(
        "tuple has " + std::to_string(keys.size()) + " keys, schema has " +
        std::to_string(schema_.num_dimensions()) + " dimensions");
  }
  Tuple tuple;
  tuple.keys.reserve(keys.size());
  for (size_t dim = 0; dim < keys.size(); ++dim) {
    tuple.keys.push_back(dictionaries_[dim].Encode(keys[dim]));
  }
  tuple.measure = AggLeafValue(schema_.agg(), measure);
  tuples_.push_back(std::move(tuple));
  return Status::OK();
}

Status DwarfBuilder::AddAggregatedTuple(const std::vector<std::string>& keys,
                                        Measure measure) {
  if (keys.size() != schema_.num_dimensions()) {
    return Status::InvalidArgument(
        "tuple has " + std::to_string(keys.size()) + " keys, schema has " +
        std::to_string(schema_.num_dimensions()) + " dimensions");
  }
  Tuple tuple;
  tuple.keys.reserve(keys.size());
  for (size_t dim = 0; dim < keys.size(); ++dim) {
    tuple.keys.push_back(dictionaries_[dim].Encode(keys[dim]));
  }
  tuple.measure = measure;  // no AggLeafValue: already aggregated
  tuples_.push_back(std::move(tuple));
  return Status::OK();
}

Status DwarfBuilder::AddEncodedTuple(Tuple tuple) {
  if (tuple.keys.size() != schema_.num_dimensions()) {
    return Status::InvalidArgument("encoded tuple arity mismatch");
  }
  for (size_t dim = 0; dim < tuple.keys.size(); ++dim) {
    if (tuple.keys[dim] >= dictionaries_[dim].size()) {
      return Status::InvalidArgument(
          "encoded key " + std::to_string(tuple.keys[dim]) +
          " not present in dictionary for dimension " + std::to_string(dim));
    }
  }
  tuple.measure = AggLeafValue(schema_.agg(), tuple.measure);
  tuples_.push_back(std::move(tuple));
  return Status::OK();
}

Result<DimKey> DwarfBuilder::EncodeKey(size_t dim, std::string_view value) {
  if (dim >= dictionaries_.size()) {
    return Status::OutOfRange("no dimension " + std::to_string(dim));
  }
  return dictionaries_[dim].Encode(value);
}

Status DwarfBuilder::ImportDictionaries(std::vector<Dictionary> dictionaries) {
  if (!tuples_.empty()) {
    return Status::FailedPrecondition(
        "dictionaries must be imported before any tuple is added");
  }
  if (dictionaries.size() != schema_.num_dimensions()) {
    return Status::InvalidArgument(
        "imported " + std::to_string(dictionaries.size()) +
        " dictionaries, schema has " +
        std::to_string(schema_.num_dimensions()) + " dimensions");
  }
  dictionaries_ = std::move(dictionaries);
  for (size_t dim = 0; dim < dictionaries_.size(); ++dim) {
    dictionaries_[dim].set_name(schema_.dimensions()[dim].name);
  }
  return Status::OK();
}

void DwarfBuilder::SortAndAggregate(int num_threads) {
  if (num_threads <= 1 || tuples_.size() < kMinParallelSortTuples) {
    std::sort(tuples_.begin(), tuples_.end(), TupleKeyLess);
    // Merge duplicate key combinations through the aggregate.
    size_t write = 0;
    for (size_t read = 0; read < tuples_.size(); ++read) {
      if (write > 0 && TupleKeysEqual(tuples_[write - 1], tuples_[read])) {
        tuples_[write - 1].measure = AggCombine(
            schema_.agg(), tuples_[write - 1].measure, tuples_[read].measure);
      } else {
        if (write != read) tuples_[write] = std::move(tuples_[read]);
        ++write;
      }
    }
    tuples_.resize(write);
    return;
  }

  // Parallel path: sort contiguous shards concurrently, then k-way merge
  // them, aggregating duplicate key combinations as they surface adjacent in
  // the merge order. Equal keys across shards are popped consecutively
  // (ties break on shard index), so one look-behind suffices exactly as in
  // the serial dedup loop; because the per-key combine is commutative and
  // associative, the merged measures match the serial result bit for bit.
  std::vector<ShardRange> shards;
  {
    ThreadPool pool(num_threads);
    shards = SplitShards(tuples_.size(), pool.num_threads());
    ParallelForShards(pool, tuples_.size(), [&](const ShardRange& shard) {
      std::sort(tuples_.begin() + shard.begin, tuples_.begin() + shard.end,
                TupleKeyLess);
    });
  }

  struct Head {
    size_t shard;
    size_t pos;  ///< absolute index into tuples_
  };
  auto greater = [this](const Head& a, const Head& b) {
    if (tuples_[b.pos].keys != tuples_[a.pos].keys) {
      return TupleKeyLess(tuples_[b.pos], tuples_[a.pos]);
    }
    return a.shard > b.shard;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(greater)> heads(greater);
  for (const ShardRange& shard : shards) {
    if (shard.begin < shard.end) heads.push({shard.shard, shard.begin});
  }

  std::vector<Tuple> merged;
  merged.reserve(tuples_.size());
  while (!heads.empty()) {
    Head head = heads.top();
    heads.pop();
    Tuple& tuple = tuples_[head.pos];
    if (!merged.empty() && TupleKeysEqual(merged.back(), tuple)) {
      merged.back().measure =
          AggCombine(schema_.agg(), merged.back().measure, tuple.measure);
    } else {
      merged.push_back(std::move(tuple));
    }
    size_t next = head.pos + 1;
    if (next < shards[head.shard].end) heads.push({head.shard, next});
  }
  tuples_ = std::move(merged);
}

// Parallel sweep invariant (why the arena is bit-identical to serial):
//
// The sorted stream is partitioned into groups by a *split level* s chosen
// below: two consecutive tuples belong to the same group iff their keys
// agree on every dimension 0..s. In the serial sweep each group's entire
// subtree (everything at levels > s) is committed to the arena as one
// contiguous, ascending NodeId range; the boundary between group g and g+1
// then commits the close cascade for levels s down to diverge(g,g+1)+1 —
// where diverge is the first dimension on which the groups' prefixes differ
// — before any node of group g+1. The stitch Impl replays exactly that
// interleaving: StitchBoundary commits the boundary closes, the caller
// appends the group's rebased arena, WireGroupRoot wires the pending
// split-level cell, and FinishStitch replays the final cascade for levels
// s..0 in descending order.
//
// The merge memo is where the two sweeps could part. Keys recorded while a
// group is open consist solely of that group's ids, so a fresh Impl per
// group finds exactly the entries the serial memo would hold for it. A
// boundary or final close, however, can reach a merge whose inputs all lie
// inside one earlier group: suffix coalescing lets a top-phase node's cells
// share children from a group's subtree, and merging those recurses into
// the group's own nodes. The serial sweep finds such a key in the memo
// entries the group recorded. So each group's memo is kept, keyed by its
// local ids, until the stitch ends, and a top-phase miss whose ids all fall
// inside one stitched group's id range is looked up there, de-rebased.
// Every other top-phase key holds ids of >= 2 groups or of top-phase nodes,
// which only the top Impl's own memo can hold. Group-phase lookups never
// need top-phase entries, which hold only ids below the group's range. With
// that, the stitched arena equals the serial one id for id — for any thread
// count, any split level, and every ablation combination.
Result<NodeId> DwarfBuilder::ConstructSweep(int num_threads,
                                            std::vector<DwarfNode>* nodes,
                                            int* sweep_tasks) {
  *sweep_tasks = 0;
  const size_t num_dims = schema_.num_dimensions();
  if (num_threads > 1 && num_dims >= 2 && !tuples_.empty() &&
      tuples_.size() >= kMinParallelSweepTuples) {
    // Adaptive split level: the shallowest dimension whose group count gives
    // every worker ~2 tasks (cheap insurance against skewed group sizes).
    // Splitting at the first varying dimension alone can leave a handful of
    // huge groups (e.g. a Day-led feed with 2 distinct days on 8 threads);
    // descending one more level multiplies the group count. One pass
    // histograms consecutive-tuple divergence levels; group count at level s
    // is then 1 + sum(diverges at <= s). When no level reaches the target,
    // fall back to the deepest splittable level that still has >= 2 groups.
    std::vector<size_t> diverge_count(num_dims, 0);
    for (size_t i = 1; i < tuples_.size(); ++i) {
      size_t d = 0;
      while (tuples_[i].keys[d] == tuples_[i - 1].keys[d]) ++d;
      ++diverge_count[d];
    }
    const size_t target = 2 * static_cast<size_t>(num_threads);
    size_t split = num_dims;  // sentinel: no usable split level
    size_t running = 1;
    size_t deepest_with_groups = num_dims;
    for (size_t s = 0; s + 1 < num_dims; ++s) {
      running += diverge_count[s];
      if (running >= 2) deepest_with_groups = s;
      if (running >= target) {
        split = s;
        break;
      }
    }
    if (split == num_dims) split = deepest_with_groups;
    if (split + 1 < num_dims) {
      // Partition the sorted stream into per-(split+1)-prefix groups
      // (>= 2 by the choice of split).
      std::vector<std::pair<size_t, size_t>> groups;
      size_t begin = 0;
      auto same_group = [&](const Tuple& a, const Tuple& b) {
        for (size_t l = 0; l <= split; ++l) {
          if (a.keys[l] != b.keys[l]) return false;
        }
        return true;
      };
      for (size_t i = 1; i <= tuples_.size(); ++i) {
        if (i == tuples_.size() ||
            !same_group(tuples_[i], tuples_[begin])) {
          groups.emplace_back(begin, i);
          begin = i;
        }
      }
      struct Subtree {
        std::vector<DwarfNode> nodes;
        NodeId root = kNullNode;
        MergeMemo memo;
      };
      std::vector<Subtree> built(groups.size());
      Status first_error;
      {
        // Workers claim groups through an atomic cursor so large groups
        // don't serialize behind a static partition. The pool destructor
        // joins every worker, ordering all writes to built before the
        // stitch below reads them. Each claimed group gets its own span,
        // parented on the enclosing dwarf.construct span (captured here,
        // on the submitting thread) so --trace-dump shows the fan-out.
        uint64_t construct_span = trace::CurrentSpanId();
        ThreadPool pool(num_threads);
        std::atomic<size_t> next{0};
        std::atomic<bool> failed{false};
        std::mutex error_mu;
        for (int worker = 0; worker < pool.num_threads(); ++worker) {
          pool.Submit([this, &groups, &built, &next, &failed, &error_mu,
                       &first_error, split, construct_span] {
            // Stop claiming groups once any build has failed — the sweep's
            // result is the error either way, so don't pay for the rest.
            for (size_t g; !failed.load(std::memory_order_relaxed) &&
                           (g = next.fetch_add(1)) < groups.size();) {
              trace::ScopedSpan task_span("dwarf.sweep_task", construct_span);
              Impl impl(schema_, options_);
              Result<NodeId> root = impl.Run(tuples_, groups[g].first,
                                             groups[g].second, split + 1,
                                             &built[g].nodes);
              if (root.ok()) {
                built[g].root = *root;
                built[g].memo = impl.TakeMergeMemo();
              } else {
                failed.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(error_mu);
                if (first_error.ok()) first_error = root.status();
              }
            }
          });
        }
      }
      SCD_RETURN_IF_ERROR(first_error);

      // Stitch: per group, replay the serial boundary closes first, then
      // append the group's local arena with child ids rebased by its offset,
      // then wire the group root into the pending split-level cell. The
      // interleaving matters — see the invariant note above.
      *sweep_tasks = static_cast<int>(groups.size());
      Impl top_impl(schema_, options_);
      top_impl.BeginStitch(split, nodes);
      const Tuple* prev = nullptr;
      for (size_t g = 0; g < groups.size(); ++g) {
        const Tuple& first = tuples_[groups[g].first];
        top_impl.StitchBoundary(first, prev);
        NodeId offset = static_cast<NodeId>(nodes->size());
        for (DwarfNode& node : built[g].nodes) {
          if (static_cast<size_t>(node.level) + 1 < num_dims) {
            for (DwarfCell& cell : node.cells) cell.child += offset;
            node.all_child += offset;
          }
          nodes->push_back(std::move(node));
        }
        top_impl.WireGroupRoot(offset + built[g].root, offset, &built[g].memo);
        prev = &first;
      }
      return top_impl.FinishStitch();
    }
  }
  Impl impl(schema_, options_);
  return impl.Run(tuples_, 0, tuples_.size(), 0, nodes);
}

Result<DwarfCube> DwarfBuilder::Build(BuildProfile* profile) && {
  SCD_RETURN_IF_ERROR(schema_.Validate());

  static metrics::Counter* const builds_total =
      metrics::GlobalRegistry().GetCounter(
          "dwarf_builds_total", {}, "DwarfBuilder::Build invocations");
  static metrics::Counter* const tuples_total =
      metrics::GlobalRegistry().GetCounter(
          "dwarf_build_tuples_total", {},
          "raw tuples fed into cube construction");
  static metrics::Counter* const sweep_tasks_total =
      metrics::GlobalRegistry().GetCounter(
          "dwarf_sweep_tasks_total", {},
          "parallel construction-sweep subtree tasks (0 per serial build)");
  static FixedBucketHistogram* const sort_us =
      metrics::GlobalRegistry().GetHistogram(
          "dwarf_sort_us", {}, "tuple sort + duplicate aggregation time (us)");
  static FixedBucketHistogram* const construct_us =
      metrics::GlobalRegistry().GetHistogram(
          "dwarf_construct_us", {}, "DWARF construction sweep time (us)");

  int num_threads = ResolveThreadCount(options_.num_threads);
  uint64_t source_count = tuples_.size();
  builds_total->Increment();
  tuples_total->Increment(source_count);
  Stopwatch watch;
  {
    trace::ScopedSpan span("dwarf.sort");
    SortAndAggregate(num_threads);
  }
  size_t write = tuples_.size();
  sort_us->Record(watch.ElapsedMicros());
  if (profile != nullptr) profile->sort_ms = watch.ElapsedMillis();

  watch.Restart();
  trace::ScopedSpan span("dwarf.construct");
  DwarfCube cube;
  cube.schema_ = schema_;
  cube.dictionaries_ = std::move(dictionaries_);
  int sweep_tasks = 0;
  std::vector<DwarfNode> arena;
  SCD_ASSIGN_OR_RETURN(cube.root_,
                       ConstructSweep(num_threads, &arena, &sweep_tasks));
  cube.AdoptArena(std::move(arena));
  cube.stats_.tuple_count = write;
  cube.stats_.source_tuple_count = source_count;
  cube.stats_ = cube.ComputeStats();
  cube.FinalizeOrderedViews();
  construct_us->Record(watch.ElapsedMicros());
  sweep_tasks_total->Increment(static_cast<uint64_t>(sweep_tasks));
  if (profile != nullptr) {
    profile->construct_ms = watch.ElapsedMillis();
    profile->sweep_tasks = sweep_tasks;
  }
  return cube;
}

}  // namespace scdwarf::dwarf
