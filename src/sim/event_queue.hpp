// The event queue: a binary min-heap of small entries over a slot array,
// plus a same-instant lane.
//
// Entries are trivially copyable (time, seq, slot) records ordered by
// (time, seq); `seq` counts pushes, so equal-time events dispatch in
// scheduling order — the rule the whole simulator's determinism rests on.
// Each event's action and kind sit in a slot that never moves during a
// sift; freed slots are recycled through a free list. Cancellation is an
// O(1) generation check on the handle's slot: the action is destroyed at
// once, and the dead entry is dropped when it reaches the front of the
// heap or the lane (both fronts are always live events).
//
// The lane is a FIFO for events scheduled at the instant last popped, the
// zero-delay follow-ups that make up a large share of a simulation's
// events. A push joins it instead of the heap when its time equals the
// last pop's and the lane is empty or already holds that time, so the lane
// holds one time in seq order; `pop` takes the earlier of the lane front
// and the heap top by (time, seq), and the dispatch order is exactly the
// heap-only order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event.hpp"

namespace tapesim::sim {

class EventQueue {
 public:
  /// Schedules `action` at `time` and returns its handle (never kNoEvent).
  EventId push(Seconds time, Action&& action, const char* kind = nullptr);

  /// Removes and returns the earliest live event. Precondition: !empty().
  Event pop();

  /// Time of the earliest live event. Precondition: !empty().
  [[nodiscard]] Seconds next_time() const;

  /// Cancels a pending event and destroys its action. O(1). Returns false
  /// if `id` is not pending: it already ran, was cancelled, was discarded
  /// by clear(), or was never issued.
  bool cancel(EventId id);

  /// True while `id` names an event that has neither run nor been
  /// cancelled.
  [[nodiscard]] bool pending(EventId id) const;

  /// Discards every pending event, destroying its action. Handles issued
  /// before stay stale forever.
  void clear();

  [[nodiscard]] bool empty() const { return heap_.empty() && lane_empty(); }
  [[nodiscard]] std::size_t size() const { return live_; }

 private:
  struct Entry {
    Seconds time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    Action action;
    const char* kind = nullptr;
    /// Odd while the slot's event is pending; bumped when it runs or is
    /// cancelled and again when the slot is reused.
    std::uint32_t generation = 0;
    std::uint32_t next_free = 0;
  };

  [[nodiscard]] bool lane_empty() const { return lane_head_ == lane_.size(); }
  [[nodiscard]] bool dead(const Entry& e) const {
    return (slots_[e.slot].generation & 1u) == 0;
  }
  void discard(const Entry& e);
  void remove_top();
  void drop_dead_top();
  void drop_dead_lane_front();
  void free_slot(std::uint32_t slot);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  std::vector<Entry> heap_;
  /// The same-instant lane: entries [lane_head_, size) are queued, all at
  /// one time and in seq order. Its storage is reused once it drains.
  std::vector<Entry> lane_;
  std::size_t lane_head_ = 0;
  /// Time of the last pop; before the first one no push joins the lane.
  Seconds last_pop_{-std::numeric_limits<double>::infinity()};
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace tapesim::sim
