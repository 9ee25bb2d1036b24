// A tape library: d drives, t storage cells, one robot arm.
//
// The robot is a FIFO sim::Resource — all cartridge moves within one
// library serialize through it, which is exactly the contention the paper's
// placement scheme is designed around. Robots of different libraries are
// independent resources and therefore operate in parallel.
#pragma once

#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "tape/drive.hpp"
#include "tape/specs.hpp"
#include "util/assert.hpp"
#include "util/ids.hpp"

namespace tapesim::tape {

class TapeLibrary {
 public:
  /// `first_drive` / `first_tape` are the global ids of this library's
  /// first drive and first storage cell (the system assigns dense ranges).
  TapeLibrary(LibraryId id, const LibrarySpec& spec, sim::Engine& engine,
              DriveId first_drive, TapeId first_tape);

  TapeLibrary(const TapeLibrary&) = delete;
  TapeLibrary& operator=(const TapeLibrary&) = delete;
  TapeLibrary(TapeLibrary&&) = default;

  [[nodiscard]] LibraryId id() const { return id_; }
  [[nodiscard]] const LibrarySpec& spec() const { return spec_; }

  [[nodiscard]] std::uint32_t drive_count() const {
    return spec_.drives_per_library;
  }
  [[nodiscard]] std::uint32_t tape_count() const {
    return spec_.tapes_per_library;
  }

  /// Global id of the local drive at `index` (0-based).
  [[nodiscard]] DriveId drive_id(std::uint32_t index) const;
  /// Global id of the local tape at `slot` (0-based).
  [[nodiscard]] TapeId tape_id(std::uint32_t slot) const;

  [[nodiscard]] bool owns_drive(DriveId d) const {
    return d.valid() && d.value() >= first_drive_.value() &&
           d.value() < first_drive_.value() + spec_.drives_per_library;
  }
  [[nodiscard]] bool owns_tape(TapeId t) const;

  [[nodiscard]] TapeDrive& drive(DriveId d) {
    TAPESIM_ASSERT_MSG(owns_drive(d), "drive does not belong to this library");
    return drives_[d.value() - first_drive_.value()];
  }
  [[nodiscard]] const TapeDrive& drive(DriveId d) const {
    TAPESIM_ASSERT_MSG(owns_drive(d), "drive does not belong to this library");
    return drives_[d.value() - first_drive_.value()];
  }
  [[nodiscard]] std::vector<TapeDrive>& drives() { return drives_; }
  [[nodiscard]] const std::vector<TapeDrive>& drives() const {
    return drives_;
  }

  /// The robot arm; acquire it for every cartridge exchange.
  [[nodiscard]] sim::Resource& robot() { return *robot_; }
  [[nodiscard]] const sim::Resource& robot() const { return *robot_; }

  /// One-way robot move between a cell and a drive.
  [[nodiscard]] Seconds robot_move_time() const {
    return spec_.cell_to_drive_time;
  }
  /// Full exchange move: carry the old cartridge back to its cell, then
  /// fetch the new one to the drive.
  [[nodiscard]] Seconds robot_exchange_time() const {
    return spec_.cell_to_drive_time + spec_.cell_to_drive_time;
  }

 private:
  LibraryId id_;
  LibrarySpec spec_;
  DriveId first_drive_;
  TapeId first_tape_;
  std::vector<TapeDrive> drives_;
  // unique_ptr keeps the Resource address stable across library moves
  // (waiting callbacks capture `this` of the resource indirectly).
  std::unique_ptr<sim::Resource> robot_;
};

}  // namespace tapesim::tape
