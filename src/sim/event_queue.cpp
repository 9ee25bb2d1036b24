#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace tapesim::sim {
namespace {

constexpr std::uint32_t slot_of(EventId id) {
  return static_cast<std::uint32_t>(id);
}
constexpr std::uint32_t generation_of(EventId id) {
  return static_cast<std::uint32_t>(id >> 32);
}
constexpr EventId make_id(std::uint32_t slot, std::uint32_t generation) {
  return (EventId{generation} << 32) | slot;
}

// True when `a` fires before `b`: earlier time, then earlier scheduling.
template <typename Entry>
bool before(const Entry& a, const Entry& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

}  // namespace

EventId EventQueue::push(Seconds time, Action&& action, const char* kind) {
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    TAPESIM_ASSERT_MSG(slots_.size() < kNoSlot, "event slot space exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  ++s.generation;  // odd: pending
  s.action = std::move(action);
  s.kind = kind;
  const Entry entry{time, next_seq_++, slot};
  // The lane holds one time only: a raw queue accepts pushes before the
  // last pop, so the lane may still hold a later time than last_pop_.
  if (time == last_pop_ && (lane_empty() || lane_[lane_head_].time == time)) {
    lane_.push_back(entry);
  } else {
    heap_.push_back(entry);
    sift_up(heap_.size() - 1);
  }
  ++live_;
  return make_id(slot, s.generation);
}

Event EventQueue::pop() {
  TAPESIM_ASSERT_MSG(!empty(), "pop from empty event queue");
  // Both fronts are live; the earlier by (time, seq) fires first.
  const bool from_lane =
      !lane_empty() &&
      (heap_.empty() || before(lane_[lane_head_], heap_.front()));
  const Entry top = from_lane ? lane_[lane_head_] : heap_.front();
  Slot& s = slots_[top.slot];
  Event event{top.time, make_id(top.slot, s.generation), s.kind,
              std::move(s.action)};
  ++s.generation;  // even: ran
  s.kind = nullptr;
  free_slot(top.slot);
  --live_;
  if (from_lane) {
    ++lane_head_;
    drop_dead_lane_front();
  } else {
    remove_top();
    drop_dead_top();
  }
  last_pop_ = top.time;
  return event;
}

Seconds EventQueue::next_time() const {
  TAPESIM_ASSERT_MSG(!empty(), "next_time of empty event queue");
  if (lane_empty()) return heap_.front().time;
  if (heap_.empty()) return lane_[lane_head_].time;
  return std::min(lane_[lane_head_].time, heap_.front().time);
}

bool EventQueue::pending(EventId id) const {
  const std::uint32_t slot = slot_of(id);
  const std::uint32_t generation = generation_of(id);
  return (generation & 1u) != 0 && slot < slots_.size() &&
         slots_[slot].generation == generation;
}

bool EventQueue::cancel(EventId id) {
  if (!pending(id)) return false;
  Slot& s = slots_[slot_of(id)];
  // Destroyed on return, once the queue is consistent again.
  Action doomed = std::move(s.action);
  ++s.generation;  // even: cancelled; its heap or lane entry is now dead
  s.kind = nullptr;
  --live_;
  drop_dead_top();
  drop_dead_lane_front();
  return true;
}

void EventQueue::clear() {
  std::vector<Entry> heap;
  std::vector<Entry> lane;
  heap.swap(heap_);
  lane.swap(lane_);
  const std::size_t lane_head = std::exchange(lane_head_, 0);
  for (const Entry& e : heap) discard(e);
  for (std::size_t i = lane_head; i < lane.size(); ++i) discard(lane[i]);
}

void EventQueue::discard(const Entry& e) {
  Slot& s = slots_[e.slot];
  Action doomed = std::move(s.action);
  if ((s.generation & 1u) != 0) {
    ++s.generation;
    --live_;
  }
  s.kind = nullptr;
  free_slot(e.slot);
}

void EventQueue::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // A generation that wrapped around to 0 would reissue the slot's first
  // handle: retire the slot instead of recycling it.
  if (s.generation == 0) return;
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::remove_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::drop_dead_top() {
  while (!heap_.empty() && dead(heap_.front())) {
    free_slot(heap_.front().slot);
    remove_top();
  }
}

void EventQueue::drop_dead_lane_front() {
  while (!lane_empty() && dead(lane_[lane_head_])) {
    free_slot(lane_[lane_head_].slot);
    ++lane_head_;
  }
  if (lane_empty()) {
    lane_.clear();
    lane_head_ = 0;
  }
}

void EventQueue::sift_up(std::size_t i) {
  const Entry moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry moving = heap_[i];
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], moving)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = moving;
}

}  // namespace tapesim::sim
