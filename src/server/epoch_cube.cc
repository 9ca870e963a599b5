#include "server/epoch_cube.h"

#include <string>

namespace scdwarf::server {

Status EpochCubeStore::Publish(dwarf::DwarfCube cube, uint64_t epoch) {
  auto published = std::make_shared<const dwarf::DwarfCube>(std::move(cube));
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (epoch <= epoch_) {
    return Status::FailedPrecondition(
        "snapshot epoch " + std::to_string(epoch) +
        " is not newer than current epoch " + std::to_string(epoch_));
  }
  cube_ = std::move(published);
  epoch_ = epoch;
  retained_.push_back({epoch_, cube_});
  while (retained_.size() > retain_epochs_) retained_.erase(retained_.begin());
  return Status::OK();
}

Result<EpochCubeStore::Snapshot> EpochCubeStore::SnapshotAt(
    uint64_t epoch) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const Snapshot& snap : retained_) {
    if (snap.epoch == epoch) return snap;
  }
  return Status::NotFound("epoch " + std::to_string(epoch) +
                          " is no longer retained (current epoch " +
                          std::to_string(epoch_) + ")");
}

}  // namespace scdwarf::server
