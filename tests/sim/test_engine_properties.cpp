// Randomized property suite for the event kernel. The same random sequence
// of schedule, cancel, and run_until calls — with further schedules and
// cancels issued from inside running actions — drives sim::Engine and a
// reference model built on a std::multimap keyed by (time, scheduling
// order). Dispatch order, dispatch times, and every cancel() result must
// agree, and the sequences must actually exercise equal-time ties, cancels
// from inside an action, cancels of events that already ran, and cancels of
// stale handles whose slot was reused.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace tapesim::sim {
namespace {

/// Reference event loop: a multimap ordered by (time, scheduling order).
class ModelEngine {
 public:
  using Handle = std::uint64_t;  // the event's scheduling order

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return events_.size(); }

  template <typename F>
  Handle schedule_at(double at, F&& fn) {
    const Handle h = next_order_++;
    events_.emplace(Key{at, h}, std::forward<F>(fn));
    time_of_.emplace(h, at);
    return h;
  }

  bool cancel(Handle h) {
    const auto t = time_of_.find(h);
    if (t == time_of_.end()) return false;
    events_.erase(events_.find(Key{t->second, h}));
    time_of_.erase(t);
    return true;
  }

  void run_until(double deadline) {
    while (!events_.empty() && events_.begin()->first.first <= deadline) {
      auto node = events_.extract(events_.begin());
      time_of_.erase(node.key().second);
      now_ = node.key().first;
      node.mapped()();
    }
    if (now_ < deadline) now_ = deadline;
  }

 private:
  using Key = std::pair<double, Handle>;
  std::multimap<Key, std::function<void()>> events_;
  std::map<Handle, double> time_of_;
  Handle next_order_ = 0;
  double now_ = 0.0;
};

/// The engine under test behind the same interface.
class KernelEngine {
 public:
  using Handle = EventId;

  [[nodiscard]] double now() const { return engine_.now().count(); }
  [[nodiscard]] std::size_t pending() const {
    return engine_.events_pending();
  }

  template <typename F>
  Handle schedule_at(double at, F&& fn) {
    return engine_.schedule_at(Seconds{at}, std::forward<F>(fn));
  }
  bool cancel(Handle h) { return engine_.cancel(h); }
  void run_until(double deadline) { engine_.run_until(Seconds{deadline}); }

 private:
  Engine engine_;
};

/// One observable outcome: (what, token or handle index, value, time).
using Record = std::tuple<char, std::uint64_t, std::uint64_t, double>;

struct Coverage {
  int equal_time_dispatches = 0;
  int cancels_inside_actions = 0;
  int cancels_of_ran_events = 0;
  int cancels_of_reused_slots = 0;
};

template <typename Backend>
class Scenario {
 public:
  explicit Scenario(std::uint64_t seed) : seed_(seed), rng_(seed) {}

  std::vector<Record> play(int steps) {
    for (int step = 0; step < steps; ++step) {
      const double r = rng_.uniform();
      if (r < 0.45) {
        schedule(std::floor(rng_.uniform(0.0, 4.0)));
      } else if (r < 0.7) {
        cancel_random(rng_, /*inside_action=*/false);
      } else if (r < 0.9) {
        backend_.run_until(backend_.now() +
                           std::floor(rng_.uniform(0.0, 3.0)) + 0.5);
        log_.emplace_back('u', backend_.pending(), 0, backend_.now());
      }
    }
    backend_.run_until(1e9);  // drain
    log_.emplace_back('e', backend_.pending(), 0, backend_.now());
    return log_;
  }

  [[nodiscard]] const Coverage& coverage() const { return coverage_; }
  [[nodiscard]] const std::vector<typename Backend::Handle>& issued() const {
    return issued_;
  }

 private:
  enum class State { kPending, kRan, kCancelled };

  void schedule(double delay) {
    const std::uint64_t token = issued_.size();
    state_.push_back(State::kPending);
    issued_.push_back(backend_.schedule_at(backend_.now() + delay,
                                           [this, token] { run(token); }));
  }

  void run(std::uint64_t token) {
    if (last_dispatch_ == backend_.now()) ++coverage_.equal_time_dispatches;
    last_dispatch_ = backend_.now();
    state_[token] = State::kRan;
    log_.emplace_back('d', token, 0, backend_.now());
    // The action's own choices come from a token-keyed stream, so both
    // backends make them identically as long as they agree so far.
    Rng rng{seed_ * 0x9E3779B97F4A7C15ULL + token};
    if (rng.uniform() < 0.35) cancel_random(rng, /*inside_action=*/true);
    if (rng.uniform() < 0.3) schedule(std::floor(rng.uniform(0.0, 3.0)));
    if (rng.uniform() < 0.1) {
      // Schedule-then-cancel within one action, at the current time.
      schedule(0.0);
      cancel_index(issued_.size() - 1, /*inside_action=*/true);
    }
  }

  void cancel_random(Rng& rng, bool inside_action) {
    if (issued_.empty()) return;
    cancel_index(rng.uniform_below(issued_.size()), inside_action);
  }

  void cancel_index(std::size_t i, bool inside_action) {
    const State before = state_[i];
    const bool cancelled = backend_.cancel(issued_[i]);
    log_.emplace_back(inside_action ? 'C' : 'c', i, cancelled ? 1 : 0,
                      backend_.now());
    if (cancelled) state_[i] = State::kCancelled;
    if (inside_action) ++coverage_.cancels_inside_actions;
    if (before == State::kRan) ++coverage_.cancels_of_ran_events;
    if (before != State::kPending && reused_later(i)) {
      ++coverage_.cancels_of_reused_slots;
    }
  }

  // True when a handle issued after #i names the same slot (the kernel's
  // low 32 bits); the model's handles never share one.
  [[nodiscard]] bool reused_later(std::size_t i) const {
    const auto slot = static_cast<std::uint32_t>(issued_[i]);
    for (std::size_t j = i + 1; j < issued_.size(); ++j) {
      if (static_cast<std::uint32_t>(issued_[j]) == slot) return true;
    }
    return false;
  }

  std::uint64_t seed_;
  Rng rng_;
  Backend backend_;
  std::vector<typename Backend::Handle> issued_;
  std::vector<State> state_;
  std::vector<Record> log_;
  double last_dispatch_ = -1.0;
  Coverage coverage_;
};

class EngineProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineProperties, MatchesMultimapReferenceModel) {
  constexpr int kSteps = 3000;
  Scenario<KernelEngine> kernel{GetParam()};
  Scenario<ModelEngine> model{GetParam()};
  const std::vector<Record> got = kernel.play(kSteps);
  const std::vector<Record> want = model.play(kSteps);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "first divergence at record " << i;
  }

  const Coverage& c = kernel.coverage();
  EXPECT_GT(c.equal_time_dispatches, 0);
  EXPECT_GT(c.cancels_inside_actions, 0);
  EXPECT_GT(c.cancels_of_ran_events, 0);
  EXPECT_GT(c.cancels_of_reused_slots, 0);
  EXPECT_EQ(model.coverage().cancels_of_reused_slots, 0);

  // Handles are never 0 and never repeat, even across slot reuse.
  const std::set<EventId> distinct(kernel.issued().begin(),
                                   kernel.issued().end());
  EXPECT_EQ(distinct.size(), kernel.issued().size());
  EXPECT_EQ(distinct.count(kNoEvent), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperties,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace tapesim::sim
