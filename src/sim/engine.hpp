// The discrete-event simulation engine.
//
// Single-threaded, run-to-completion semantics: `run()` repeatedly pops the
// earliest event and executes its action; actions may schedule further
// events (never in the past). Determinism: equal-time events dispatch in
// scheduling order (see event_queue.hpp).
#pragma once

#include <cstdint>

#include "sim/action.hpp"
#include "sim/event_queue.hpp"
#include "sim/profile.hpp"
#include "sim/trace.hpp"
#include "util/units.hpp"

namespace tapesim::sim {

class Engine {
 public:
  /// Current simulation time. Starts at 0 and only moves forward.
  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedules `action` to run `delay` from now. Returns a handle usable
  /// with cancel() (never kNoEvent). `delay` must be >= 0. `kind` is a
  /// static label (a string literal; nullptr = unlabeled) that trace and
  /// profile hooks see; it must outlive the engine.
  EventId schedule_in(Seconds delay, Action action,
                      const char* kind = nullptr);

  /// Schedules `action` at absolute time `at` (>= now()).
  EventId schedule_at(Seconds at, Action action, const char* kind = nullptr);

  /// Cancels a pending event and destroys its action. Returns false if it
  /// already ran, was cancelled, or the handle is stale.
  bool cancel(EventId id);

  /// Runs until the queue is empty. Returns the final simulation time.
  Seconds run();

  /// Runs until the queue is empty or simulation time would exceed
  /// `deadline`; events after the deadline stay queued.
  Seconds run_until(Seconds deadline);

  /// Total number of events dispatched since construction.
  [[nodiscard]] std::uint64_t events_dispatched() const {
    return dispatched_;
  }
  [[nodiscard]] std::size_t events_pending() const { return queue_.size(); }

  /// Attaches a dispatch observer (not owned); pass nullptr to detach.
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

  /// Attaches a wall-clock profiler (not owned); pass nullptr to detach.
  /// Without one, no clocks are read anywhere in the dispatch loop; with
  /// one, simulated behavior is unchanged (profiling only observes wall
  /// time, never the simulation clock). The sink's sample stride is
  /// latched here; the first dispatch after attach is always sampled.
  void set_profile_sink(ProfileSink* sink) {
    profile_ = sink;
    profile_stride_ = sink == nullptr ? 1 : sink->dispatch_sample_stride();
    if (profile_stride_ == 0) profile_stride_ = 1;
    profile_countdown_ = 1;
  }
  [[nodiscard]] ProfileSink* profile_sink() const { return profile_; }

  /// Resets time to 0 and discards pending events, destroying their
  /// actions; their handles stay stale. Dispatch counters are kept (they
  /// are cumulative engine statistics).
  void reset();

 private:
  EventId schedule(Seconds at, Action&& action, const char* kind);
  void dispatch(Event& event);
  template <typename Loop>
  Seconds profiled_run(Loop&& loop);

  EventQueue queue_;
  Seconds now_{0.0};
  std::uint64_t dispatched_ = 0;
  TraceSink* trace_ = nullptr;
  ProfileSink* profile_ = nullptr;
  std::size_t profile_stride_ = 1;     ///< latched from the sink at attach
  std::size_t profile_countdown_ = 1;  ///< dispatches until the next sample
};

}  // namespace tapesim::sim
