#include "sim/resource.hpp"

#include <utility>

#include "util/assert.hpp"

namespace tapesim::sim {

Resource::Ticket Resource::acquire(Action on_granted) {
  TAPESIM_ASSERT_MSG(static_cast<bool>(on_granted),
                     "acquire needs a grant callback");
  if (observer_ != nullptr) observer_->on_acquire(*this);
  const Ticket ticket = next_ticket_++;
  if (busy_) {
    waiting_.push_back(Waiter{std::move(on_granted), engine_->now(), ticket});
    return ticket;
  }
  grant(std::move(on_granted), engine_->now());
  return ticket;
}

bool Resource::cancel(Ticket ticket) {
  if (ticket == kInvalidTicket) return false;
  for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
    if (it->ticket == ticket) {
      waiting_.erase(it);
      return true;
    }
  }
  return false;
}

void Resource::grant(Action fn, Seconds asked) {
  busy_ = true;
  acquired_at_ = engine_->now();
  ++grants_;
  if (observer_ != nullptr) observer_->on_grant(*this, acquired_at_ - asked);
  // Dispatch through the engine so grant callbacks never run re-entrantly
  // inside acquire()/release() call stacks.
  engine_->schedule_in(Seconds{0.0}, std::move(fn), kGrantKind);
}

void Resource::release() {
  TAPESIM_ASSERT_MSG(busy_, "release of a free resource");
  busy_ = false;
  const Seconds held = engine_->now() - acquired_at_;
  busy_time_ += held;
  if (observer_ != nullptr) observer_->on_release(*this, held);
  if (!waiting_.empty()) {
    auto next = std::move(waiting_.front());
    waiting_.pop_front();
    grant(std::move(next.fn), next.asked);
  }
}

}  // namespace tapesim::sim
