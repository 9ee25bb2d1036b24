#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tapesim::sim {
namespace {

TEST(Resource, GrantIsImmediateWhenFree) {
  Engine e;
  Resource r(e, "robot");
  double granted_at = -1.0;
  e.schedule_in(Seconds{3.0}, [&] {
    r.acquire([&] { granted_at = e.now().count(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(granted_at, 3.0);
  EXPECT_TRUE(r.busy());  // never released
  EXPECT_EQ(r.grants(), 1u);
}

TEST(Resource, SecondAcquirerWaitsForRelease) {
  Engine e;
  Resource r(e, "robot");
  std::vector<double> grants;
  e.schedule_in(Seconds{0.0}, [&] {
    r.acquire([&] {
      grants.push_back(e.now().count());
      e.schedule_in(Seconds{10.0}, [&] { r.release(); });
    });
  });
  e.schedule_in(Seconds{1.0}, [&] {
    r.acquire([&] {
      grants.push_back(e.now().count());
      r.release();
    });
  });
  e.run();
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_DOUBLE_EQ(grants[0], 0.0);
  EXPECT_DOUBLE_EQ(grants[1], 10.0);
}

TEST(Resource, QueueIsFifo) {
  Engine e;
  Resource r(e, "robot");
  std::vector<int> order;
  e.schedule_in(Seconds{0.0}, [&] {
    for (int i = 0; i < 4; ++i) {
      r.acquire([&, i] {
        order.push_back(i);
        e.schedule_in(Seconds{1.0}, [&] { r.release(); });
      });
    }
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Resource, BusyTimeAccumulates) {
  Engine e;
  Resource r(e, "robot");
  const auto hold_for = [&](Seconds busy) {
    r.acquire([&, busy] { e.schedule_in(busy, [&] { r.release(); }); });
  };
  e.schedule_in(Seconds{0.0}, [&] { hold_for(Seconds{4.0}); });
  e.schedule_in(Seconds{10.0}, [&] { hold_for(Seconds{6.0}); });
  e.run();
  EXPECT_DOUBLE_EQ(r.busy_time().count(), 10.0);
  EXPECT_EQ(r.grants(), 2u);
}

TEST(Resource, QueueLengthReflectsWaiters) {
  Engine e;
  Resource r(e, "robot");
  e.schedule_in(Seconds{0.0}, [&] {
    r.acquire([] {});  // holds forever
  });
  e.schedule_in(Seconds{1.0}, [&] {
    r.acquire([] {});
    r.acquire([] {});
  });
  e.run();
  EXPECT_EQ(r.queue_length(), 2u);
}

TEST(Resource, GrantsDoNotRunReentrantly) {
  Engine e;
  Resource r(e, "robot");
  bool inner_ran_during_release = false;
  bool in_release = false;
  e.schedule_in(Seconds{0.0}, [&] {
    r.acquire([&] {
      r.acquire([&] {
        inner_ran_during_release = in_release;
        r.release();
      });
      in_release = true;
      r.release();
      in_release = false;
    });
  });
  e.run();
  // The queued grant must be dispatched via the engine, after release()
  // returns, never from inside it.
  EXPECT_FALSE(inner_ran_during_release);
}

TEST(Resource, CancelRemovesQueuedWaiterAndPreservesFifo) {
  // The failover path withdraws a failed drive's pending robot request;
  // everyone behind it must keep their place in line.
  Engine e;
  Resource r(e, "robot");
  std::vector<int> order;
  Resource::Ticket victim = Resource::kInvalidTicket;
  e.schedule_in(Seconds{0.0}, [&] {
    r.acquire([&] {
      order.push_back(0);
      e.schedule_in(Seconds{1.0}, [&] { r.release(); });
    });
    r.acquire([&] {
      order.push_back(1);
      r.release();
    });
    victim = r.acquire([&] { order.push_back(2); });
    r.acquire([&] {
      order.push_back(3);
      r.release();
    });
  });
  e.schedule_in(Seconds{0.5}, [&] {
    EXPECT_EQ(r.queue_length(), 3u);
    EXPECT_TRUE(r.cancel(victim));
    EXPECT_EQ(r.queue_length(), 2u);
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3}));
  EXPECT_FALSE(r.busy());
}

TEST(Resource, CancelGrantedTicketIsRefused) {
  Engine e;
  Resource r(e, "robot");
  Resource::Ticket holder = Resource::kInvalidTicket;
  bool granted = false;
  e.schedule_in(Seconds{0.0}, [&] {
    holder = r.acquire([&] { granted = true; });
  });
  e.schedule_in(Seconds{1.0}, [&] {
    // Already granted: the holder owns the resource and must release() —
    // cancel() cannot take the grant back.
    EXPECT_TRUE(granted);
    EXPECT_FALSE(r.cancel(holder));
    EXPECT_TRUE(r.busy());
    r.release();
  });
  e.run();
  EXPECT_FALSE(r.busy());
}

TEST(Resource, CancelIsIdempotentAndRejectsUnknownTickets) {
  Engine e;
  Resource r(e, "robot");
  Resource::Ticket queued = Resource::kInvalidTicket;
  e.schedule_in(Seconds{0.0}, [&] {
    r.acquire([] {});  // holds forever
    queued = r.acquire([] { ADD_FAILURE() << "cancelled waiter ran"; });
  });
  e.schedule_in(Seconds{1.0}, [&] {
    EXPECT_TRUE(r.cancel(queued));
    EXPECT_FALSE(r.cancel(queued));  // second cancel is a no-op
    EXPECT_FALSE(r.cancel(Resource::kInvalidTicket));
    EXPECT_FALSE(r.cancel(Resource::Ticket{987654}));  // never issued
  });
  e.run();
  EXPECT_EQ(r.queue_length(), 0u);
}

TEST(Resource, CancelledWaiterNeverRunsAfterRelease) {
  // Cancel-while-waiting on the robot FIFO: the release that would have
  // granted the cancelled waiter must skip straight to the next one.
  Engine e;
  Resource r(e, "robot");
  bool survivor_ran = false;
  e.schedule_in(Seconds{0.0}, [&] {
    r.acquire([&] { e.schedule_in(Seconds{2.0}, [&] { r.release(); }); });
    const Resource::Ticket doomed =
        r.acquire([] { ADD_FAILURE() << "cancelled waiter ran"; });
    r.acquire([&] {
      survivor_ran = true;
      r.release();
    });
    e.schedule_in(Seconds{1.0}, [&, doomed] { EXPECT_TRUE(r.cancel(doomed)); });
  });
  e.run();
  EXPECT_TRUE(survivor_ran);
  EXPECT_FALSE(r.busy());
}

TEST(Resource, CancelLosesRaceWithSameTimeRelease) {
  // The in-flight-grant window: release() pops the waiter and schedules
  // its callback as an immediate event. A cancel issued in that window
  // (same timestamp, later event) must be refused — the waiter now owns
  // the resource and is obliged to release it, exactly like any holder.
  Engine e;
  Resource r(e, "robot");
  bool waiter_ran = false;
  Resource::Ticket waiter = Resource::kInvalidTicket;
  e.schedule_in(Seconds{0.0}, [&] {
    r.acquire([&] {
      e.schedule_in(Seconds{1.0}, [&] { r.release(); });
      // Inserted after the release above, so at t = 1 it runs once the
      // grant event is already in flight.
      e.schedule_in(Seconds{1.0}, [&] { EXPECT_FALSE(r.cancel(waiter)); });
    });
    waiter = r.acquire([&] {
      waiter_ran = true;
      r.release();
    });
  });
  e.run();
  EXPECT_TRUE(waiter_ran);
  EXPECT_FALSE(r.busy());
  EXPECT_EQ(r.grants(), 2u);
}

TEST(Resource, CancelSoleWaiterThenReleaseLeavesResourceFree) {
  // With the only waiter withdrawn, the release must leave the resource
  // idle and a later acquire gets an immediate grant (no ghost of the
  // cancelled request remains in the FIFO).
  Engine e;
  Resource r(e, "robot");
  double late_grant_at = -1.0;
  e.schedule_in(Seconds{0.0}, [&] {
    r.acquire([&] { e.schedule_in(Seconds{2.0}, [&] { r.release(); }); });
    const Resource::Ticket doomed =
        r.acquire([] { ADD_FAILURE() << "cancelled waiter ran"; });
    e.schedule_in(Seconds{1.0}, [&, doomed] { EXPECT_TRUE(r.cancel(doomed)); });
  });
  e.schedule_in(Seconds{5.0}, [&] {
    EXPECT_FALSE(r.busy());
    r.acquire([&] {
      late_grant_at = e.now().count();
      r.release();
    });
  });
  e.run();
  EXPECT_DOUBLE_EQ(late_grant_at, 5.0);
  EXPECT_EQ(r.grants(), 2u);  // the cancelled waiter never counts
}

TEST(Resource, DoubleCancelStaysRefusedAcrossGrantCycles) {
  // A cancelled ticket must stay dead forever: later acquire/release
  // cycles advance the ticket counter and churn the queue, but cancelling
  // the old ticket again can never hit a new waiter (tickets are never
  // reused).
  Engine e;
  Resource r(e, "robot");
  std::vector<int> order;
  Resource::Ticket doomed = Resource::kInvalidTicket;
  e.schedule_in(Seconds{0.0}, [&] {
    r.acquire([&] {
      order.push_back(0);
      e.schedule_in(Seconds{2.0}, [&] { r.release(); });
    });
    doomed = r.acquire([] { ADD_FAILURE() << "cancelled waiter ran"; });
  });
  e.schedule_in(Seconds{1.0}, [&] { EXPECT_TRUE(r.cancel(doomed)); });
  e.schedule_in(Seconds{3.0}, [&] {
    // New contention after the first cancel: queue a fresh waiter, then
    // try the dead ticket again mid-wait and once more after its grant.
    r.acquire([&] {
      order.push_back(1);
      e.schedule_in(Seconds{2.0}, [&] { r.release(); });
    });
    r.acquire([&] {
      order.push_back(2);
      r.release();
    });
    EXPECT_FALSE(r.cancel(doomed));
  });
  e.schedule_in(Seconds{6.0}, [&] { EXPECT_FALSE(r.cancel(doomed)); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(r.busy());
}

TEST(ResourceDeath, ReleasingFreeResourceAborts) {
  Engine e;
  Resource r(e, "robot");
  EXPECT_DEATH(r.release(), "free");
}

}  // namespace
}  // namespace tapesim::sim
