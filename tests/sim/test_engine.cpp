#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tapesim::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now().count(), 0.0);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, RunAdvancesTimeToLastEvent) {
  Engine e;
  double observed = -1.0;
  e.schedule_in(Seconds{5.0}, [&] { observed = e.now().count(); });
  const Seconds end = e.run();
  EXPECT_DOUBLE_EQ(end.count(), 5.0);
  EXPECT_DOUBLE_EQ(observed, 5.0);
  EXPECT_EQ(e.events_dispatched(), 1u);
}

TEST(Engine, EventsRunInScheduledTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_in(Seconds{3.0}, [&] { order.push_back(3); });
  e.schedule_in(Seconds{1.0}, [&] { order.push_back(1); });
  e.schedule_in(Seconds{2.0}, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SimultaneousEventsRunFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule_in(Seconds{1.0}, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, ActionsMayScheduleFurtherEvents) {
  Engine e;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(e.now().count());
    if (times.size() < 4) e.schedule_in(Seconds{2.0}, chain);
  };
  e.schedule_in(Seconds{1.0}, chain);
  e.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0, 5.0, 7.0}));
}

TEST(Engine, ZeroDelayEventRunsAtCurrentTime) {
  Engine e;
  double at = -1.0;
  e.schedule_in(Seconds{4.0}, [&] {
    e.schedule_in(Seconds{0.0}, [&] { at = e.now().count(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(at, 4.0);
}

TEST(Engine, CancelStopsPendingEvent) {
  Engine e;
  bool ran = false;
  const EventId id = e.schedule_in(Seconds{1.0}, [&] { ran = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, RunUntilLeavesLaterEventsQueued) {
  Engine e;
  std::vector<double> times;
  for (const double t : {1.0, 2.0, 3.0, 4.0}) {
    e.schedule_at(Seconds{t}, [&times, &e] { times.push_back(e.now().count()); });
  }
  e.run_until(Seconds{2.5});
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(e.now().count(), 2.5);
  EXPECT_EQ(e.events_pending(), 2u);
  e.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(Engine, RunUntilWithEmptyQueueAdvancesClock) {
  Engine e;
  e.run_until(Seconds{10.0});
  EXPECT_DOUBLE_EQ(e.now().count(), 10.0);
}

TEST(Engine, ResetClearsPendingAndRewindsClock) {
  Engine e;
  bool ran = false;
  e.schedule_in(Seconds{1.0}, [&] { ran = true; });
  e.reset();
  EXPECT_EQ(e.events_pending(), 0u);
  EXPECT_DOUBLE_EQ(e.now().count(), 0.0);
  e.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, TraceSinkSeesDispatchesInOrder) {
  struct Recorder : TraceSink {
    std::vector<std::pair<double, std::string>> seen;
    void on_dispatch(Seconds time, EventId, const char* kind) override {
      seen.emplace_back(time.count(), kind);
    }
  };
  Engine e;
  Recorder rec;
  e.set_trace_sink(&rec);
  e.schedule_in(Seconds{2.0}, [] {}, "second");
  e.schedule_in(Seconds{1.0}, [] {}, "first");
  e.run();
  ASSERT_EQ(rec.seen.size(), 2u);
  EXPECT_EQ(rec.seen[0], std::make_pair(1.0, std::string{"first"}));
  EXPECT_EQ(rec.seen[1], std::make_pair(2.0, std::string{"second"}));
}

TEST(EngineDeath, SchedulingInThePastAborts) {
  Engine e;
  e.schedule_in(Seconds{5.0}, [&e] {
    // Attempting to schedule before now() must abort.
    e.schedule_at(Seconds{1.0}, [] {});
  });
  EXPECT_DEATH(e.run(), "past");
}

TEST(EngineDeath, NegativeDelayAborts) {
  Engine e;
  EXPECT_DEATH(e.schedule_in(Seconds{-1.0}, [] {}), "past");
}

TEST(Engine, DeterministicReplay) {
  auto run_once = [] {
    Engine e;
    std::vector<std::uint64_t> order;
    for (int i = 0; i < 50; ++i) {
      const double t = (i * 7) % 13;
      e.schedule_in(Seconds{t}, [&order, i] {
        order.push_back(static_cast<std::uint64_t>(i));
      });
    }
    e.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- ProfileSink hook (engine self-profiling) ---

struct RecordingProfileSink : ProfileSink {
  struct Dispatch {
    double sim_now;
    std::string label;
    double wall_s;
    std::size_t queue_depth;
  };
  int run_begins = 0;
  int run_ends = 0;
  double last_run_wall_s = -1.0;
  std::uint64_t last_run_dispatches = 0;
  std::vector<Dispatch> dispatches;

  void on_run_begin(Seconds /*sim_now*/) override { ++run_begins; }
  void on_run_end(Seconds /*sim_now*/, double wall_s,
                  std::uint64_t count) override {
    ++run_ends;
    last_run_wall_s = wall_s;
    last_run_dispatches = count;
  }
  void on_dispatch_done(Seconds sim_now, const char* kind, double wall_s,
                        std::size_t queue_depth) override {
    dispatches.push_back(
        {sim_now.count(), kind == nullptr ? "" : kind, wall_s, queue_depth});
  }
};

TEST(Engine, ProfileSinkSeesEveryDispatchWithDepthAndLabel) {
  Engine e;
  RecordingProfileSink sink;
  e.set_profile_sink(&sink);

  e.schedule_in(Seconds{1.0}, [] {}, "first");
  e.schedule_in(Seconds{2.0}, [] {});
  e.run();

  ASSERT_EQ(sink.dispatches.size(), 2u);
  EXPECT_EQ(sink.dispatches[0].label, "first");
  EXPECT_DOUBLE_EQ(sink.dispatches[0].sim_now, 1.0);
  EXPECT_EQ(sink.dispatches[0].queue_depth, 1u);  // one event still pending
  EXPECT_EQ(sink.dispatches[1].queue_depth, 0u);
  EXPECT_GE(sink.dispatches[0].wall_s, 0.0);
}

TEST(Engine, ProfileSinkBracketsRunsWithWallAndDispatchCount) {
  Engine e;
  RecordingProfileSink sink;
  e.set_profile_sink(&sink);

  e.schedule_in(Seconds{1.0}, [] {});
  e.schedule_in(Seconds{5.0}, [] {});
  e.run_until(Seconds{2.0});
  EXPECT_EQ(sink.run_begins, 1);
  EXPECT_EQ(sink.run_ends, 1);
  EXPECT_EQ(sink.last_run_dispatches, 1u);
  EXPECT_GE(sink.last_run_wall_s, 0.0);

  e.run();
  EXPECT_EQ(sink.run_begins, 2);
  EXPECT_EQ(sink.last_run_dispatches, 1u);
}

TEST(Engine, ClearingProfileSinkStopsCallbacks) {
  Engine e;
  RecordingProfileSink sink;
  e.set_profile_sink(&sink);
  e.schedule_in(Seconds{1.0}, [] {});
  e.run();
  ASSERT_EQ(sink.dispatches.size(), 1u);

  e.set_profile_sink(nullptr);
  e.schedule_in(Seconds{1.0}, [] {});
  e.run();
  EXPECT_EQ(sink.dispatches.size(), 1u);
  EXPECT_EQ(sink.run_begins, 1);
}

// The zero-overhead-when-disabled contract's behavioral half: a profiled
// run must replay the exact event order and times of an unprofiled one
// (the profiler reads wall clocks only, never simulated time).
TEST(Engine, ProfiledRunIsBitIdenticalToUnprofiled) {
  const auto run_once = [](ProfileSink* sink) {
    Engine e;
    e.set_profile_sink(sink);
    std::vector<std::pair<int, double>> order;
    for (int i = 0; i < 40; ++i) {
      e.schedule_in(Seconds{static_cast<double>((i * 13) % 7)},
                    [&order, &e, i] { order.emplace_back(i, e.now().count()); });
    }
    e.run();
    return order;
  };
  RecordingProfileSink sink;
  EXPECT_EQ(run_once(nullptr), run_once(&sink));
  EXPECT_EQ(sink.dispatches.size(), 40u);
}

}  // namespace
}  // namespace tapesim::sim
