#include "sim/event_queue.hpp"

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
  heap_.push_back(Entry{time, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  ++live_;
  return make_id(slot, s.generation);
}

Event EventQueue::pop() {
  TAPESIM_ASSERT_MSG(!heap_.empty(), "pop from empty event queue");
  const Entry top = heap_.front();
  Slot& s = slots_[top.slot];
  Event event{top.time, make_id(top.slot, s.generation), s.kind,
              std::move(s.action)};
  ++s.generation;  // even: ran
  s.kind = nullptr;
  free_slot(top.slot);
  --live_;
  remove_top();
  drop_dead_top();
  return event;
}

Seconds EventQueue::next_time() const {
  TAPESIM_ASSERT_MSG(!heap_.empty(), "next_time of empty event queue");
  return heap_.front().time;
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
  ++s.generation;  // even: cancelled; the heap entry is now dead
  s.kind = nullptr;
  --live_;
  drop_dead_top();
  return true;
}

void EventQueue::clear() {
  std::vector<Entry> entries;
  entries.swap(heap_);
  for (const Entry& e : entries) {
    Slot& s = slots_[e.slot];
    Action doomed = std::move(s.action);
    if ((s.generation & 1u) != 0) {
      ++s.generation;
      --live_;
    }
    s.kind = nullptr;
    free_slot(e.slot);
  }
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
  while (!heap_.empty() &&
         (slots_[heap_.front().slot].generation & 1u) == 0) {
    free_slot(heap_.front().slot);
    remove_top();
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
