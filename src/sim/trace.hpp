// Observer hooks for simulation event lifetimes.
//
// Tests, the observability layer, and debugging tools attach a TraceSink to
// an Engine to observe events as they are scheduled, dispatched, and
// cancelled; production runs attach nothing and pay only a null-pointer
// check per event. All callbacks default to no-ops so sinks override only
// what they need. `kind` is the event's static label as scheduled (nullptr
// = unlabeled); it is passed through without building a string.
#pragma once

#include "sim/event.hpp"
#include "util/units.hpp"

namespace tapesim::sim {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Called when an event is scheduled. `at` is the simulation time the
  /// event will dispatch at (its scheduled time, not the current time);
  /// `now` is the time of the scheduling call.
  virtual void on_schedule(Seconds now, Seconds at, EventId event_id,
                           const char* kind) {
    (void)now;
    (void)at;
    (void)event_id;
    (void)kind;
  }

  /// Called immediately before an event's action runs.
  virtual void on_dispatch(Seconds time, EventId event_id, const char* kind) {
    (void)time;
    (void)event_id;
    (void)kind;
  }

  /// Called when a pending event is successfully cancelled.
  virtual void on_cancel(Seconds now, EventId event_id) {
    (void)now;
    (void)event_id;
  }
};

}  // namespace tapesim::sim
