#include "tape/system.hpp"

#include "util/assert.hpp"

namespace tapesim::tape {

const char* to_string(CartridgeHealth h) {
  switch (h) {
    case CartridgeHealth::kGood: return "good";
    case CartridgeHealth::kDegraded: return "degraded";
    case CartridgeHealth::kLost: return "lost";
  }
  return "?";
}

const char* to_string(LibraryState s) {
  switch (s) {
    case LibraryState::kUp: return "up";
    case LibraryState::kDown: return "down";
    case LibraryState::kDestroyed: return "destroyed";
  }
  return "?";
}

TapeSystem::TapeSystem(const SystemSpec& spec, sim::Engine& engine)
    : spec_(spec) {
  spec_.validate();
  libraries_.reserve(spec_.num_libraries);
  for (std::uint32_t lib = 0; lib < spec_.num_libraries; ++lib) {
    libraries_.emplace_back(
        LibraryId{lib}, spec_.library, engine,
        DriveId{lib * spec_.library.drives_per_library},
        TapeId{lib * spec_.library.tapes_per_library});
  }
  tape_on_drive_.assign(spec_.total_tapes(), DriveId{});
  cartridge_health_.assign(spec_.total_tapes(), CartridgeHealth::kGood);
  mount_counts_.assign(spec_.total_tapes(), 0);
  library_states_.assign(spec_.num_libraries, LibraryState::kUp);
  library_down_since_.assign(spec_.num_libraries, Seconds{});
  library_downtime_.assign(spec_.num_libraries, Seconds{});
}

void TapeSystem::note_mounted(TapeId t, DriveId d) {
  TAPESIM_ASSERT_MSG(library_of_tape(t) == library_of_drive(d),
                     "tapes never leave their own library");
  TAPESIM_ASSERT_MSG(!tape_on_drive_[t.index()].valid(),
                     "tape already mounted somewhere");
  tape_on_drive_[t.index()] = d;
  ++mount_counts_[t.index()];
}

std::uint32_t TapeSystem::mount_count(TapeId t) const {
  TAPESIM_ASSERT(t.valid() && t.index() < mount_counts_.size());
  return mount_counts_[t.index()];
}

void TapeSystem::note_unmounted(TapeId t) {
  TAPESIM_ASSERT_MSG(tape_on_drive_[t.index()].valid(),
                     "tape was not mounted");
  tape_on_drive_[t.index()] = DriveId{};
}

void TapeSystem::setup_mount(TapeId t, DriveId d) {
  TapeDrive& dr = drive(d);
  TAPESIM_ASSERT_MSG(dr.empty(), "setup_mount needs an empty drive");
  dr.setup_mounted(t);
  note_mounted(t, d);
}

CartridgeHealth TapeSystem::cartridge_health(TapeId t) const {
  TAPESIM_ASSERT(t.valid() && t.index() < cartridge_health_.size());
  return cartridge_health_[t.index()];
}

LibraryState TapeSystem::library_state(LibraryId lib) const {
  TAPESIM_ASSERT(lib.valid() && lib.index() < library_states_.size());
  return library_states_[lib.index()];
}

void TapeSystem::fail_library(LibraryId lib, LibraryState to, Seconds at) {
  TAPESIM_ASSERT(lib.valid() && lib.index() < library_states_.size());
  TAPESIM_ASSERT_MSG(to != LibraryState::kUp, "fail_library cannot restore");
  TAPESIM_ASSERT_MSG(library_states_[lib.index()] == LibraryState::kUp,
                     "library outage registered twice");
  library_states_[lib.index()] = to;
  library_down_since_[lib.index()] = at;
}

Seconds TapeSystem::restore_library(LibraryId lib, Seconds at) {
  TAPESIM_ASSERT(lib.valid() && lib.index() < library_states_.size());
  TAPESIM_ASSERT_MSG(library_states_[lib.index()] == LibraryState::kDown,
                     "only transiently downed libraries restore");
  const Seconds window = at - library_down_since_[lib.index()];
  TAPESIM_ASSERT_MSG(window.count() >= 0.0, "outage window runs backwards");
  library_states_[lib.index()] = LibraryState::kUp;
  library_downtime_[lib.index()] += window;
  return window;
}

Seconds TapeSystem::library_downtime(LibraryId lib) const {
  TAPESIM_ASSERT(lib.valid() && lib.index() < library_downtime_.size());
  return library_downtime_[lib.index()];
}

void TapeSystem::set_cartridge_health(TapeId t, CartridgeHealth h) {
  TAPESIM_ASSERT(t.valid() && t.index() < cartridge_health_.size());
  const CartridgeHealth from = cartridge_health_[t.index()];
  TAPESIM_ASSERT_MSG(h >= from, "cartridge health never improves");
  if (h == from) return;
  cartridge_health_[t.index()] = h;
  if (cartridge_observer_ != nullptr)
    cartridge_observer_->on_cartridge_health(t, from, h);
}

}  // namespace tapesim::tape
