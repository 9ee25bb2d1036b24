// Discrete-event kernel: event handles and the dispatched-event record.
#pragma once

#include <cstdint>

#include "sim/action.hpp"
#include "util/units.hpp"

namespace tapesim::sim {

/// Handle of a scheduled event, issued by EventQueue: the low 32 bits name
/// the event's slot, the high 32 bits the slot's generation while the event
/// is pending. A handle is never 0 and never matches a later event in the
/// same slot, so a stale handle cannot cancel someone else's event.
using EventId = std::uint64_t;

/// What callers store for "no event scheduled"; never issued.
inline constexpr EventId kNoEvent = 0;

/// An event as it leaves the queue for dispatch. `kind` is a static label
/// (a string literal such as "serve.transfer"; nullptr = unlabeled) that
/// trace and profile hooks receive as-is, without building a string.
struct Event {
  Seconds time;
  EventId id = kNoEvent;
  const char* kind = nullptr;
  Action action;
};

}  // namespace tapesim::sim
