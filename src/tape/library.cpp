#include "tape/library.hpp"

#include <memory>
#include <string>

#include "util/assert.hpp"

namespace tapesim::tape {

TapeLibrary::TapeLibrary(LibraryId id, const LibrarySpec& spec,
                         sim::Engine& engine, DriveId first_drive,
                         TapeId first_tape)
    : id_(id), spec_(spec), first_drive_(first_drive), first_tape_(first_tape) {
  spec_.validate();
  drives_.reserve(spec_.drives_per_library);
  for (std::uint32_t i = 0; i < spec_.drives_per_library; ++i) {
    drives_.emplace_back(DriveId{first_drive_.value() + i}, spec_.drive,
                         spec_.tape_capacity);
  }
  robot_ = std::make_unique<sim::Resource>(
      engine, "robot[lib" + std::to_string(id_.value()) + "]");
}

DriveId TapeLibrary::drive_id(std::uint32_t index) const {
  TAPESIM_ASSERT(index < spec_.drives_per_library);
  return DriveId{first_drive_.value() + index};
}

TapeId TapeLibrary::tape_id(std::uint32_t slot) const {
  TAPESIM_ASSERT(slot < spec_.tapes_per_library);
  return TapeId{first_tape_.value() + slot};
}

bool TapeLibrary::owns_tape(TapeId t) const {
  return t.valid() && t.value() >= first_tape_.value() &&
         t.value() < first_tape_.value() + spec_.tapes_per_library;
}

}  // namespace tapesim::tape
