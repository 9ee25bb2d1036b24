#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace tapesim::sim {
namespace {

EventId push_at(EventQueue& q, double time, const char* kind = nullptr) {
  return q.push(Seconds{time}, [] {}, kind);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  const EventId a = push_at(q, 3.0);
  const EventId b = push_at(q, 1.0);
  const EventId c = push_at(q, 2.0);
  EXPECT_EQ(q.pop().id, b);
  EXPECT_EQ(q.pop().id, c);
  EXPECT_EQ(q.pop().id, a);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesBreakTiesByScheduleOrder) {
  EventQueue q;
  const EventId first = push_at(q, 5.0, "first");
  const EventId second = push_at(q, 5.0, "second");
  const EventId third = push_at(q, 5.0, "third");
  EXPECT_EQ(q.pop().id, first);
  EXPECT_EQ(q.pop().id, second);
  const Event last = q.pop();
  EXPECT_EQ(last.id, third);
  EXPECT_STREQ(last.kind, "third");
}

TEST(EventQueue, NextTimePeeksWithoutRemoving) {
  EventQueue q;
  push_at(q, 7.0);
  push_at(q, 4.0);
  EXPECT_DOUBLE_EQ(q.next_time().count(), 4.0);
  EXPECT_EQ(q.size(), 2u);
}

TEST(EventQueue, CancelPreventsDelivery) {
  EventQueue q;
  const EventId doomed = push_at(q, 1.0);
  const EventId kept = push_at(q, 2.0);
  EXPECT_TRUE(q.cancel(doomed));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().id, kept);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  const EventId id = push_at(q, 1.0);
  EXPECT_FALSE(q.cancel(kNoEvent));
  EXPECT_FALSE(q.cancel(id + 1));  // a slot never handed out
  EXPECT_FALSE(q.cancel(id + (EventId{1} << 32)));  // even: not pending
  EXPECT_FALSE(q.cancel(id + (EventId{2} << 32)));  // a later tenant's
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // second cancel is a no-op
}

TEST(EventQueue, CancelTopThenNextTimeSkipsIt) {
  EventQueue q;
  const EventId top = push_at(q, 1.0);
  push_at(q, 2.0);
  q.cancel(top);
  EXPECT_DOUBLE_EQ(q.next_time().count(), 2.0);
}

TEST(EventQueue, CancelEverything) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 1; i <= 5; ++i) ids.push_back(push_at(q, double(i)));
  for (const EventId id : ids) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, HandlesAreNonZeroAndNeverRepeat) {
  EventQueue q;
  std::set<EventId> seen;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 4; ++i) {
      const EventId id = push_at(q, double(round));
      EXPECT_NE(id, kNoEvent);
      EXPECT_TRUE(seen.insert(id).second) << "handle reissued: " << id;
    }
    if (round % 2 == 0) {
      while (!q.empty()) q.pop();
    } else {
      q.clear();
    }
  }
}

// The queue issues handles, so no caller can push a duplicate id; the
// hazard is a stale handle kept after its event ended.
TEST(EventQueue, StaleHandleOfReusedSlotCannotCancel) {
  EventQueue q;
  const EventId ran = push_at(q, 1.0);
  EXPECT_EQ(q.pop().id, ran);
  const EventId reuser = push_at(q, 2.0);  // takes the freed slot
  EXPECT_EQ(static_cast<std::uint32_t>(reuser),
            static_cast<std::uint32_t>(ran));
  EXPECT_FALSE(q.pending(ran));
  EXPECT_FALSE(q.cancel(ran));
  EXPECT_TRUE(q.pending(reuser));

  // A cancelled event's slot is recycled too; neither old handle reaches
  // the slot's third tenant.
  EXPECT_TRUE(q.cancel(reuser));
  const EventId third = push_at(q, 3.0);
  EXPECT_EQ(static_cast<std::uint32_t>(third),
            static_cast<std::uint32_t>(ran));
  EXPECT_FALSE(q.cancel(ran));
  EXPECT_FALSE(q.cancel(reuser));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().id, third);
}

TEST(EventQueue, ClearDiscardsEventsAndStalesTheirHandles) {
  EventQueue q;
  const EventId a = push_at(q, 1.0);
  const EventId b = push_at(q, 2.0);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.cancel(a));
  EXPECT_FALSE(q.cancel(b));
  const EventId c = push_at(q, 3.0);
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  EXPECT_EQ(q.pop().id, c);
}

TEST(EventQueueDeath, PopFromEmptyAborts) {
  EventQueue q;
  EXPECT_DEATH(q.pop(), "empty");
}

// The sort oracle of the randomized suites: every pending event with its
// scheduling order; the earliest (time, order) entry fires next.
struct Ref {
  double time;
  std::uint64_t order;  // scheduling order
  EventId id;
};

bool fires_first(const Ref& a, const Ref& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.order < b.order;
}

class EventQueueRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueRandomized, MatchesSortOracle) {
  tapesim::Rng rng{GetParam()};
  EventQueue q;
  std::vector<Ref> reference;
  std::uint64_t next_order = 0;

  // Interleave pushes, cancels, and pops; every pop must match the
  // reference's earliest (time, order) entry.
  for (int step = 0; step < 2000; ++step) {
    const double action = rng.uniform();
    if (action < 0.6) {
      // Coarse times make equal-time ties common.
      const double t = std::floor(rng.uniform(0.0, 20.0));
      const EventId id = push_at(q, t);
      reference.push_back(Ref{t, next_order++, id});
    } else if (action < 0.75 && !reference.empty()) {
      const std::size_t victim = rng.uniform_below(reference.size());
      EXPECT_TRUE(q.cancel(reference[victim].id));
      reference.erase(reference.begin() +
                      static_cast<std::ptrdiff_t>(victim));
    } else if (!q.empty()) {
      const auto expected =
          std::min_element(reference.begin(), reference.end(), fires_first);
      ASSERT_NE(expected, reference.end());
      EXPECT_DOUBLE_EQ(q.next_time().count(), expected->time);
      const Event e = q.pop();
      EXPECT_EQ(e.id, expected->id);
      EXPECT_EQ(e.time.count(), expected->time);
      reference.erase(expected);
    }
    ASSERT_EQ(q.size(), reference.size());
  }
  std::sort(reference.begin(), reference.end(), fires_first);
  for (const Ref& r : reference) EXPECT_EQ(q.pop().id, r.id);
  EXPECT_TRUE(q.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueRandomized,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class EventQueueLane : public ::testing::TestWithParam<std::uint64_t> {};

// Drives the same-instant lane against the sort oracle. About half the
// pushes land at the time last popped, the lane's traffic; the rest land at
// coarse times before or after it, which the raw queue accepts. The lane is
// private, so coverage is counted from the oracle's history: the situations
// where the lane must merge with the heap, drop a cancelled entry, step
// aside for an earlier push, or be discarded.
TEST_P(EventQueueLane, MatchesSortOracle) {
  tapesim::Rng rng{GetParam()};
  EventQueue q;
  std::vector<Ref> reference;
  std::uint64_t next_order = 0;
  bool popped = false;
  double last_pop = 0.0;
  int merges = 0;         // push at last_pop while older events there pend
  int inner_cancels = 0;  // cancel at last_pop of a non-earliest event
  int early_pushes = 0;   // push before last_pop while events there pend
  int busy_clears = 0;    // clear() while events at last_pop pend
  const auto pending_at_last_pop = [&] {
    return popped && std::any_of(reference.begin(), reference.end(),
                                 [&](const Ref& r) {
                                   return r.time == last_pop;
                                 });
  };
  const auto push = [&](double t) {
    reference.push_back(Ref{t, next_order++, push_at(q, t)});
  };

  for (int step = 0; step < 16000; ++step) {
    const double action = rng.uniform();
    if (action < 0.5 && popped) {
      if (pending_at_last_pop()) ++merges;
      push(last_pop);
    } else if (action < 0.68) {
      // Few distinct times make ties with heap entries common, so a pop
      // often has to order an older heap entry before the lane front.
      const double t = std::floor(rng.uniform(0.0, 8.0));
      if (t < last_pop && pending_at_last_pop()) ++early_pushes;
      push(t);
    } else if (action < 0.8 && !reference.empty()) {
      const auto victim = reference.begin() + static_cast<std::ptrdiff_t>(
                              rng.uniform_below(reference.size()));
      const bool older_twin = std::any_of(
          reference.begin(), reference.end(), [&](const Ref& r) {
            return r.time == victim->time && r.order < victim->order;
          });
      if (popped && victim->time == last_pop && older_twin) ++inner_cancels;
      ASSERT_TRUE(q.cancel(victim->id));
      reference.erase(victim);
    } else if (action < 0.985 && !reference.empty()) {
      const auto expected =
          std::min_element(reference.begin(), reference.end(), fires_first);
      ASSERT_EQ(q.next_time().count(), expected->time);
      const Event e = q.pop();
      ASSERT_EQ(e.id, expected->id) << "step " << step;
      ASSERT_EQ(e.time.count(), expected->time);
      popped = true;
      last_pop = expected->time;
      reference.erase(expected);
    } else if (action >= 0.985) {
      if (pending_at_last_pop()) ++busy_clears;
      q.clear();
      for (const Ref& r : reference) EXPECT_FALSE(q.pending(r.id));
      reference.clear();
    }
    ASSERT_EQ(q.size(), reference.size());
    ASSERT_EQ(q.empty(), reference.empty());
    if (!reference.empty()) {
      ASSERT_EQ(q.next_time().count(),
                std::min_element(reference.begin(), reference.end(),
                                 fires_first)
                    ->time)
          << "step " << step;
    }
  }
  std::sort(reference.begin(), reference.end(), fires_first);
  for (const Ref& r : reference) ASSERT_EQ(q.pop().id, r.id);
  EXPECT_TRUE(q.empty());

  EXPECT_GE(merges, 50);
  EXPECT_GE(inner_cancels, 50);
  EXPECT_GE(early_pushes, 50);
  EXPECT_GE(busy_clears, 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueLane,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(EventQueue, DrainAfterMixedOperationsIsSorted) {
  tapesim::Rng rng{77};
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(push_at(q, rng.uniform(0.0, 10.0)));
  }
  for (std::size_t c = 4; c < ids.size(); c += 7) q.cancel(ids[c]);
  double last = -1.0;
  while (!q.empty()) {
    const Event e = q.pop();
    EXPECT_GE(e.time.count(), last);
    last = e.time.count();
  }
}

}  // namespace
}  // namespace tapesim::sim
