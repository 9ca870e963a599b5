/// \file epoch_cube.h
/// \brief Versioned holder of the served cube: readers take an epoch-stamped
/// snapshot under a shared lock, and each new cube is published under the
/// next epoch.
///
/// Readers never block on an update: a snapshot is a shared_ptr to an
/// immutable DwarfCube, so in-flight queries keep executing against the
/// epoch they started on while Publish swaps the pointer. The store does not
/// order its writers: QueryServer builds every new cube and publishes it
/// under its own publish mutex, which is what makes the epoch sequence a
/// linear history.

#ifndef SCDWARF_SERVER_EPOCH_CUBE_H_
#define SCDWARF_SERVER_EPOCH_CUBE_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "common/result.h"
#include "dwarf/dwarf_cube.h"

namespace scdwarf::server {

/// \brief Epoch-snapshot store over one DwarfCube.
class EpochCubeStore {
 public:
  /// \p initial_epoch seeds the epoch counter: a replica reloading a
  /// mid-history snapshot file starts where the publisher left off instead
  /// of renumbering from zero.
  explicit EpochCubeStore(dwarf::DwarfCube cube, uint64_t initial_epoch = 0)
      : epoch_(initial_epoch),
        cube_(std::make_shared<const dwarf::DwarfCube>(std::move(cube))) {
    retained_.push_back({epoch_, cube_});
  }

  /// \brief One consistent read view: the epoch and the cube it names.
  struct Snapshot {
    uint64_t epoch = 0;
    std::shared_ptr<const dwarf::DwarfCube> cube;
  };

  /// Current epoch + cube, taken under the shared lock.
  Snapshot snapshot() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return {epoch_, cube_};
  }

  uint64_t epoch() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return epoch_;
  }

  /// \brief The retained snapshot of \p epoch, or NotFound when it was never
  /// published here or has aged out of the retention window. Lets a cursor
  /// session re-open at the exact epoch it was pinned to on another replica
  /// (router failover).
  Result<Snapshot> SnapshotAt(uint64_t epoch) const;

  /// \brief How many epochs stay reachable through SnapshotAt, current one
  /// included (minimum 1). Set before updates start flowing; not
  /// synchronized itself.
  void set_retain_epochs(size_t retain) {
    retain_epochs_ = retain < 1 ? 1 : retain;
  }

  /// \brief Swaps in \p cube as the served cube under \p epoch and trims the
  /// retention window. \p epoch must be greater than the current epoch —
  /// FailedPrecondition otherwise, so a stale or replayed snapshot is
  /// rejected idempotently. Readers are blocked only for the pointer swap.
  Status Publish(dwarf::DwarfCube cube, uint64_t epoch);

 private:
  mutable std::shared_mutex mu_;  ///< guards epoch_, cube_ + retained_
  uint64_t epoch_ = 0;
  std::shared_ptr<const dwarf::DwarfCube> cube_;
  /// Recent epochs, ascending, current one last; bounded by retain_epochs_.
  std::vector<Snapshot> retained_;
  size_t retain_epochs_ = 4;
};

}  // namespace scdwarf::server

#endif  // SCDWARF_SERVER_EPOCH_CUBE_H_
