#include "sim/semaphore.hpp"

#include <utility>

#include "util/assert.hpp"

namespace tapesim::sim {

void Semaphore::acquire(Action on_granted) {
  TAPESIM_ASSERT_MSG(static_cast<bool>(on_granted),
                     "acquire needs a grant callback");
  if (!unlimited() && in_use_ >= capacity_) {
    waiting_.emplace_back(engine_->now(), std::move(on_granted));
    return;
  }
  grant(std::move(on_granted));
}

void Semaphore::grant(Action fn) {
  ++in_use_;
  ++grants_;
  engine_->schedule_in(Seconds{0.0}, std::move(fn), kGrantKind);
}

void Semaphore::release() {
  TAPESIM_ASSERT_MSG(in_use_ > 0, "release without a matching acquire");
  --in_use_;
  if (!waiting_.empty()) {
    auto [asked_at, fn] = std::move(waiting_.front());
    waiting_.pop_front();
    wait_time_ += engine_->now() - asked_at;
    grant(std::move(fn));
  }
}

}  // namespace tapesim::sim
