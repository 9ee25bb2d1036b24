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

class EventQueueRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueRandomized, MatchesSortOracle) {
  tapesim::Rng rng{GetParam()};
  EventQueue q;
  struct Ref {
    double time;
    std::uint64_t order;  // scheduling order
    EventId id;
  };
  std::vector<Ref> reference;
  std::uint64_t next_order = 0;
  const auto fires_first = [](const Ref& a, const Ref& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.order < b.order;
  };

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
