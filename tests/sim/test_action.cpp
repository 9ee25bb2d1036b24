// sim::Action: inline and heap storage, move-only captures, and exactly-once
// destruction of captures on every path an event can leave the engine by.
#include "sim/action.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "sim/engine.hpp"

namespace tapesim::sim {
namespace {

TEST(Action, DefaultIsEmpty) {
  Action a;
  EXPECT_FALSE(a);
  EXPECT_FALSE(a.is_inline());
}

TEST(Action, EmptyStdFunctionYieldsEmptyAction) {
  const Action a{std::function<void()>{}};
  EXPECT_FALSE(a);
}

// The scheduler's largest hot capture, [this, d, extent, xfer], is 48 bytes.
TEST(Action, FortyEightByteCaptureStaysInline) {
  const std::array<std::uint64_t, 5> payload{1, 2, 3, 4, 5};
  std::uint64_t sum = 0;
  auto fn = [payload, out = &sum]() {
    for (const std::uint64_t v : payload) *out += v;
  };
  static_assert(sizeof(fn) == Action::kInlineSize);
  Action a{fn};
  ASSERT_TRUE(a);
  EXPECT_TRUE(a.is_inline());
  Action moved = std::move(a);
  EXPECT_FALSE(a);  // a moved-from Action is empty
  EXPECT_TRUE(moved.is_inline());
  moved();
  EXPECT_EQ(sum, 15u);
}

TEST(Action, LargerCaptureFallsBackToHeap) {
  std::array<std::uint64_t, 8> payload{1, 2, 3, 4, 5, 6, 7, 8};
  std::uint64_t sum = 0;
  Action a{[payload, &sum]() {
    for (const std::uint64_t v : payload) sum += v;
  }};
  ASSERT_TRUE(a);
  EXPECT_FALSE(a.is_inline());
  Action moved = std::move(a);
  EXPECT_FALSE(moved.is_inline());
  moved();
  moved();  // an Action may run more than once outside the engine
  EXPECT_EQ(sum, 72u);
}

TEST(Action, MoveOnlyCapture) {
  auto box = std::make_unique<int>(41);
  int seen = 0;
  Action a{[box = std::move(box), &seen]() { seen = ++*box; }};
  EXPECT_TRUE(a.is_inline());
  Action b;
  b = std::move(a);
  b();
  EXPECT_EQ(seen, 42);
}

TEST(Action, ChainsMoveAnActionThroughCaptures) {
  int ran = 0;
  Action inner{[&ran]() { ++ran; }};
  Action outer{[inner = std::move(inner)]() mutable { inner(); }};
  EXPECT_FALSE(outer.is_inline());  // an Action capture exceeds the buffer
  outer();
  EXPECT_EQ(ran, 1);
}

// Counts destructions of live captures; moved-from shells do not count.
struct Counted {
  int* destroyed;
  bool live = true;
  explicit Counted(int* d) : destroyed(d) {}
  Counted(Counted&& o) noexcept : destroyed(o.destroyed), live(o.live) {
    o.live = false;
  }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  Counted& operator=(Counted&&) = delete;
  ~Counted() {
    if (live) ++*destroyed;
  }
};

// Padding selects inline (0) or heap (64 bytes) storage for the capture.
template <std::size_t Pad>
Action counting_action(int* destroyed, int* ran) {
  return Action{[c = Counted{destroyed}, pad = std::array<char, Pad + 1>{},
                 ran]() {
    (void)pad;
    ++*ran;
  }};
}

template <typename T>
class ActionLifetime : public ::testing::Test {};
struct InlineCapture {
  static constexpr std::size_t kPad = 0;
  static constexpr bool kInline = true;
  static constexpr const char* kName = "inline";
};
struct HeapCapture {
  static constexpr std::size_t kPad = 64;
  static constexpr bool kInline = false;
  static constexpr const char* kName = "heap";
};
struct StorageName {
  template <typename T>
  static std::string GetName(int /*index*/) {
    return T::kName;
  }
};
using Storages = ::testing::Types<InlineCapture, HeapCapture>;
TYPED_TEST_SUITE(ActionLifetime, Storages, StorageName);

TYPED_TEST(ActionLifetime, StorageMatchesCaptureSize) {
  int destroyed = 0;
  int ran = 0;
  const Action a = counting_action<TypeParam::kPad>(&destroyed, &ran);
  EXPECT_EQ(a.is_inline(), TypeParam::kInline);
}

TYPED_TEST(ActionLifetime, CaptureDestroyedOnceWhenEventRuns) {
  int destroyed = 0;
  int ran = 0;
  Engine e;
  e.schedule_in(Seconds{1.0},
                counting_action<TypeParam::kPad>(&destroyed, &ran));
  EXPECT_EQ(destroyed, 0);
  e.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(destroyed, 1);
}

TYPED_TEST(ActionLifetime, CaptureDestroyedOnceWhenEventIsCancelled) {
  int destroyed = 0;
  int ran = 0;
  Engine e;
  const EventId id = e.schedule_in(
      Seconds{1.0}, counting_action<TypeParam::kPad>(&destroyed, &ran));
  e.schedule_in(Seconds{2.0}, [] {});  // keeps the dead entry buried
  ASSERT_TRUE(e.cancel(id));
  EXPECT_EQ(destroyed, 1);  // released at cancel, not when popped
  e.run();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(destroyed, 1);
}

TYPED_TEST(ActionLifetime, CaptureDestroyedOnceOnEngineReset) {
  int destroyed = 0;
  int ran = 0;
  Engine e;
  e.schedule_in(Seconds{1.0},
                counting_action<TypeParam::kPad>(&destroyed, &ran));
  const EventId cancelled = e.schedule_in(
      Seconds{2.0}, counting_action<TypeParam::kPad>(&destroyed, &ran));
  ASSERT_TRUE(e.cancel(cancelled));
  EXPECT_EQ(destroyed, 1);
  e.reset();
  EXPECT_EQ(destroyed, 2);
  e.run();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(destroyed, 2);
}

TYPED_TEST(ActionLifetime, CaptureDestroyedOnceWhenEngineIsDestroyed) {
  int destroyed = 0;
  int ran = 0;
  {
    Engine e;
    e.schedule_in(Seconds{1.0},
                  counting_action<TypeParam::kPad>(&destroyed, &ran));
  }
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(destroyed, 1);
}

}  // namespace
}  // namespace tapesim::sim
