// A FIFO-served exclusive resource.
//
// Models the robot arm: one exchange at a time per library; contending
// drives queue in arrival order (ties broken by request order, which the
// engine already makes deterministic). Also reusable for any future
// single-server stations (e.g. a shared I/O channel).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "sim/action.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

namespace tapesim::sim {

class Resource;

/// Observer for resource contention; all callbacks default to no-ops. The
/// observability layer implements this to turn robot grants into spans.
class ResourceObserver {
 public:
  virtual ~ResourceObserver() = default;
  /// A user asked for the resource (may be granted immediately).
  virtual void on_acquire(const Resource& resource) { (void)resource; }
  /// The resource was granted after `waited` of queueing (0 if immediate).
  virtual void on_grant(const Resource& resource, Seconds waited) {
    (void)resource;
    (void)waited;
  }
  /// The resource was released after being held for `held`.
  virtual void on_release(const Resource& resource, Seconds held) {
    (void)resource;
    (void)held;
  }
};

/// An exclusive server. Users call `acquire(fn)`; `fn(now)` runs as soon as
/// the resource is free and must eventually lead to a `release()` call.
class Resource {
 public:
  /// Identifies one acquire() call so a still-queued waiter can be
  /// cancelled. Tickets are never reused.
  using Ticket = std::uint64_t;
  static constexpr Ticket kInvalidTicket = 0;
  /// The kind every grant event carries.
  static constexpr const char* kGrantKind = "resource.grant";

  Resource(Engine& engine, std::string name)
      : engine_(&engine), name_(std::move(name)) {}

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;
  Resource(Resource&&) = default;
  Resource& operator=(Resource&&) = default;

  /// Requests the resource. If free, the grant fires as an immediate event
  /// (keeping all user code inside the event loop); otherwise it queues.
  /// The returned ticket can cancel the request while it is still queued.
  Ticket acquire(Action on_granted);

  /// Withdraws a queued waiter. Returns true if the waiter was removed;
  /// false if the ticket was already granted (the holder must still
  /// release()), already cancelled, or never existed. FIFO order of the
  /// remaining waiters is preserved.
  bool cancel(Ticket ticket);

  /// Releases the resource; the next queued waiter (if any) is granted via
  /// an immediate event. Must be called exactly once per successful grant.
  void release();

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::size_t queue_length() const { return waiting_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Cumulative time the resource has spent occupied (utilization metric).
  [[nodiscard]] Seconds busy_time() const { return busy_time_; }
  /// Total grants issued so far.
  [[nodiscard]] std::uint64_t grants() const { return grants_; }

  /// Attaches a contention observer (not owned); nullptr detaches.
  void set_observer(ResourceObserver* observer) { observer_ = observer; }

 private:
  struct Waiter {
    Action fn;
    Seconds asked{};
    Ticket ticket = kInvalidTicket;
  };

  void grant(Action fn, Seconds asked);

  Engine* engine_;
  std::string name_;
  std::deque<Waiter> waiting_;
  bool busy_ = false;
  Seconds acquired_at_{0.0};
  Seconds busy_time_{0.0};
  std::uint64_t grants_ = 0;
  Ticket next_ticket_ = 1;
  ResourceObserver* observer_ = nullptr;
};

}  // namespace tapesim::sim
