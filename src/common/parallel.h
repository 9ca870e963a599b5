/// \file parallel.h
/// \brief Deterministic data-parallel helpers over ThreadPool: contiguous
/// sharding and a parallel-for over the shards, so work split by them is
/// reproducible regardless of scheduling.
///
/// Thread-count policy lives here in one place: a knob value of 0 means
/// "auto", which honours the SCDWARF_THREADS environment variable and falls
/// back to std::thread::hardware_concurrency(). In the builder and the
/// mappers a resolved count of 1 means "run inline on the calling thread, no
/// pool"; the ETL pipeline always parses on at least one worker thread.

#ifndef SCDWARF_COMMON_PARALLEL_H_
#define SCDWARF_COMMON_PARALLEL_H_

#include <cstddef>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "common/thread_pool.h"

namespace scdwarf {

/// \brief The process-wide default thread count: SCDWARF_THREADS when set to
/// a positive integer, otherwise hardware_concurrency() (at least 1).
int DefaultThreadCount();

/// \brief Resolves a user-facing thread knob: values >= 1 pass through,
/// anything else (0, negative) means DefaultThreadCount().
int ResolveThreadCount(int requested);

/// \brief One contiguous shard of [0, n).
struct ShardRange {
  size_t shard = 0;  ///< shard index, dense from 0
  size_t begin = 0;
  size_t end = 0;
};

/// \brief Splits [0, n) into at most \p num_shards contiguous, near-equal
/// ranges (fewer when n < num_shards; empty when n == 0). The split depends
/// only on (n, num_shards), never on scheduling.
std::vector<ShardRange> SplitShards(size_t n, int num_shards);

/// \brief Runs \p fn(shard) for every shard of [0, n) on \p pool and blocks
/// until all complete. With a single shard the call runs inline.
template <typename Fn>
void ParallelForShards(ThreadPool& pool, size_t n, Fn&& fn) {
  std::vector<ShardRange> shards = SplitShards(n, pool.num_threads());
  if (shards.empty()) return;
  if (shards.size() == 1) {
    fn(shards[0]);
    return;
  }
  std::mutex mu;
  std::condition_variable done;
  size_t pending = shards.size();
  for (const ShardRange& shard : shards) {
    pool.Submit([&, shard] {
      fn(shard);
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) done.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&] { return pending == 0; });
}

}  // namespace scdwarf

#endif  // SCDWARF_COMMON_PARALLEL_H_
