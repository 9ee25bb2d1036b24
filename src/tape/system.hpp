// The full parallel tape storage system: n independent libraries plus the
// global id spaces and the tape-location bookkeeping shared by all of them.
//
// Global numbering is dense: drive g = lib*d + i, tape g = lib*t + j, so
// per-id state lives in flat vectors.
#pragma once

#include <optional>
#include <vector>

#include "sim/engine.hpp"
#include "tape/library.hpp"
#include "tape/specs.hpp"
#include "util/assert.hpp"
#include "util/ids.hpp"

namespace tapesim::tape {

/// Media condition of a cartridge. Read errors escalate Good -> Degraded
/// (higher error rate, still readable) -> Lost (data unrecoverable; the
/// scheduler completes its requests as unavailable instead of wedging).
enum class CartridgeHealth : std::uint8_t {
  kGood,
  kDegraded,
  kLost,
};

[[nodiscard]] const char* to_string(CartridgeHealth h);

/// Operational state of a whole library (the correlated fault domain: one
/// outage downs every drive, the robot, and access to every resident
/// cartridge atomically). kDown is transient — the library returns at its
/// restore time; kDestroyed is a permanent site disaster.
enum class LibraryState : std::uint8_t {
  kUp,
  kDown,
  kDestroyed,
};

[[nodiscard]] const char* to_string(LibraryState s);

/// Observer for cartridge health escalations; the default is a no-op.
class CartridgeObserver {
 public:
  virtual ~CartridgeObserver() = default;
  virtual void on_cartridge_health(TapeId t, CartridgeHealth from,
                                   CartridgeHealth to) {
    (void)t;
    (void)from;
    (void)to;
  }
};

class TapeSystem {
 public:
  TapeSystem(const SystemSpec& spec, sim::Engine& engine);

  TapeSystem(const TapeSystem&) = delete;
  TapeSystem& operator=(const TapeSystem&) = delete;

  [[nodiscard]] const SystemSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint32_t num_libraries() const {
    return spec_.num_libraries;
  }

  // The id accessors below sit on every scheduler path, so they are
  // defined here to inline; each still checks its id in every build.
  [[nodiscard]] TapeLibrary& library(LibraryId id) {
    TAPESIM_ASSERT(id.valid() && id.index() < libraries_.size());
    return libraries_[id.index()];
  }
  [[nodiscard]] const TapeLibrary& library(LibraryId id) const {
    TAPESIM_ASSERT(id.valid() && id.index() < libraries_.size());
    return libraries_[id.index()];
  }
  [[nodiscard]] std::vector<TapeLibrary>& libraries() { return libraries_; }
  [[nodiscard]] const std::vector<TapeLibrary>& libraries() const {
    return libraries_;
  }

  [[nodiscard]] LibraryId library_of_drive(DriveId d) const {
    TAPESIM_ASSERT(d.valid() && d.value() < spec_.total_drives());
    return LibraryId{d.value() / spec_.library.drives_per_library};
  }
  [[nodiscard]] LibraryId library_of_tape(TapeId t) const {
    TAPESIM_ASSERT(t.valid() && t.value() < spec_.total_tapes());
    return LibraryId{t.value() / spec_.library.tapes_per_library};
  }

  [[nodiscard]] TapeDrive& drive(DriveId d) {
    return library(library_of_drive(d)).drive(d);
  }
  [[nodiscard]] const TapeDrive& drive(DriveId d) const {
    return library(library_of_drive(d)).drive(d);
  }

  /// The drive currently holding `t`, or nullopt if the tape is in its cell.
  [[nodiscard]] std::optional<DriveId> drive_holding(TapeId t) const {
    TAPESIM_ASSERT(t.valid() && t.index() < tape_on_drive_.size());
    const DriveId d = tape_on_drive_[t.index()];
    if (!d.valid()) return std::nullopt;
    return d;
  }
  [[nodiscard]] bool is_mounted(TapeId t) const {
    return drive_holding(t).has_value();
  }

  /// Bookkeeping calls made by the scheduler when mounts complete/begin.
  void note_mounted(TapeId t, DriveId d);
  void note_unmounted(TapeId t);

  /// Lifetime mounts of cartridge `t` (incl. setup mounts) — mechanical
  /// wear input to health scoring.
  [[nodiscard]] std::uint32_t mount_count(TapeId t) const;

  /// Instantly mounts `t` on empty drive `d` (simulation setup only — the
  /// paper mounts the initial batches "during startup time" outside the
  /// measured window). The drive becomes idle with the head at BOT.
  void setup_mount(TapeId t, DriveId d);

  /// Media condition bookkeeping, driven by the fault model.
  [[nodiscard]] CartridgeHealth cartridge_health(TapeId t) const;
  /// Health only escalates (Good -> Degraded -> Lost); attempts to improve
  /// it are rejected. Notifies the observer on every actual change.
  void set_cartridge_health(TapeId t, CartridgeHealth h);
  [[nodiscard]] bool cartridge_lost(TapeId t) const {
    return cartridge_health(t) == CartridgeHealth::kLost;
  }

  /// Attaches a cartridge-health observer (not owned); nullptr detaches.
  void set_cartridge_observer(CartridgeObserver* observer) {
    cartridge_observer_ = observer;
  }

  // --- library operational state (driven by the fault model) ---

  [[nodiscard]] LibraryState library_state(LibraryId lib) const;
  [[nodiscard]] bool library_up(LibraryId lib) const {
    return library_state(lib) == LibraryState::kUp;
  }
  /// Marks `lib` down (transient) or destroyed at `at`. Only an up library
  /// can fail; partial-time accounting of in-flight drive work stays with
  /// the scheduler (TapeDrive::fail/repair).
  void fail_library(LibraryId lib, LibraryState to, Seconds at);
  /// Brings a transiently downed library back at `at`; returns the length
  /// of the outage window just closed and accumulates it into
  /// library_downtime(). Destroyed libraries never restore.
  Seconds restore_library(LibraryId lib, Seconds at);
  /// Total downtime of closed outage windows of `lib` so far.
  [[nodiscard]] Seconds library_downtime(LibraryId lib) const;

 private:
  SystemSpec spec_;
  std::vector<TapeLibrary> libraries_;
  /// Indexed by global tape id; holds the mounting drive or invalid.
  std::vector<DriveId> tape_on_drive_;
  /// Indexed by global tape id.
  std::vector<CartridgeHealth> cartridge_health_;
  /// Indexed by global tape id; lifetime mount count.
  std::vector<std::uint32_t> mount_counts_;
  /// Indexed by library id.
  std::vector<LibraryState> library_states_;
  /// Indexed by library id; onset of the currently open outage window.
  std::vector<Seconds> library_down_since_;
  /// Indexed by library id; accumulated closed-window downtime.
  std::vector<Seconds> library_downtime_;
  CartridgeObserver* cartridge_observer_ = nullptr;
};

}  // namespace tapesim::tape
