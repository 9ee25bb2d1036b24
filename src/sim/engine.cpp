#include "sim/engine.hpp"

#include <chrono>
#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace tapesim::sim {

namespace {

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

EventId Engine::schedule_in(Seconds delay, Action action, const char* kind) {
  TAPESIM_ASSERT_MSG(delay.count() >= 0.0, "cannot schedule into the past");
  return schedule(now_ + delay, std::move(action), kind);
}

EventId Engine::schedule_at(Seconds at, Action action, const char* kind) {
  return schedule(at, std::move(action), kind);
}

EventId Engine::schedule(Seconds at, Action&& action, const char* kind) {
  TAPESIM_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  TAPESIM_ASSERT_MSG(static_cast<bool>(action), "event action must be callable");
  const EventId id = queue_.push(at, std::move(action), kind);
  if (trace_ != nullptr) trace_->on_schedule(now_, at, id, kind);
  return id;
}

bool Engine::cancel(EventId id) {
  const bool cancelled = queue_.cancel(id);
  if (cancelled && trace_ != nullptr) trace_->on_cancel(now_, id);
  return cancelled;
}

void Engine::dispatch(Event& event) {
  TAPESIM_ASSERT_MSG(event.time >= now_, "time went backwards");
  now_ = event.time;
  ++dispatched_;
  if (trace_ != nullptr) trace_->on_dispatch(now_, event.id, event.kind);
  TAPESIM_LOG(kTrace) << "dispatch #" << event.id
                      << (event.kind == nullptr ? "" : " ")
                      << (event.kind == nullptr ? "" : event.kind);
  if (profile_ == nullptr) {
    event.action();
    return;
  }
  // Clocks are read only on sampled dispatches; at stride 1 that is every
  // dispatch, at larger strides the skipped ones pay one decrement+branch.
  if (--profile_countdown_ != 0) {
    event.action();
    return;
  }
  profile_countdown_ = profile_stride_;
  const auto t0 = std::chrono::steady_clock::now();
  event.action();
  profile_->on_dispatch_done(now_, event.kind, wall_seconds_since(t0),
                             queue_.size());
}

template <typename Loop>
Seconds Engine::profiled_run(Loop&& loop) {
  profile_->on_run_begin(now_);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t before = dispatched_;
  loop();
  profile_->on_run_end(now_, wall_seconds_since(t0), dispatched_ - before);
  return now_;
}

Seconds Engine::run() {
  const auto loop = [this] {
    while (!queue_.empty()) {
      Event event = queue_.pop();
      dispatch(event);
    }
  };
  if (profile_ == nullptr) {
    loop();
    return now_;
  }
  return profiled_run(loop);
}

Seconds Engine::run_until(Seconds deadline) {
  const auto loop = [this, deadline] {
    while (!queue_.empty() && queue_.next_time() <= deadline) {
      Event event = queue_.pop();
      dispatch(event);
    }
    if (now_ < deadline) now_ = deadline;
  };
  if (profile_ == nullptr) {
    loop();
    return now_;
  }
  return profiled_run(loop);
}

void Engine::reset() {
  queue_.clear();
  now_ = Seconds{0.0};
}

}  // namespace tapesim::sim
