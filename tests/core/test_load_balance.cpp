#include "core/load_balance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <set>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "workload/model.hpp"

namespace tapesim::core {
namespace {

using workload::ObjectInfo;
using workload::Request;
using workload::Workload;

/// n equal-probability objects of `size` each (one request holds them all).
Workload uniform_cluster(std::uint32_t n, Bytes size) {
  std::vector<ObjectInfo> objects;
  std::vector<ObjectId> members;
  for (std::uint32_t i = 0; i < n; ++i) {
    objects.push_back(ObjectInfo{ObjectId{i}, size});
    members.push_back(ObjectId{i});
  }
  std::vector<Request> requests{Request{RequestId{0}, 1.0, members}};
  return Workload{std::move(objects), std::move(requests)};
}

std::vector<TapeLoadState> fresh_tapes(std::uint32_t n) {
  std::vector<TapeLoadState> tapes;
  for (std::uint32_t i = 0; i < n; ++i) {
    tapes.push_back(TapeLoadState{TapeId{i}, 0.0, Bytes{0}});
  }
  return tapes;
}

TEST(ChooseSplitWidth, ScalesWithClusterSize) {
  LoadBalanceParams params;
  params.min_split_chunk = 8_GB;
  EXPECT_EQ(choose_split_width(1_GB, 12, params), 1u);   // tiny: one tape
  EXPECT_EQ(choose_split_width(8_GB, 12, params), 1u);
  EXPECT_EQ(choose_split_width(17_GB, 12, params), 2u);
  EXPECT_EQ(choose_split_width(100_GB, 12, params), 12u);
  EXPECT_EQ(choose_split_width(100_GB, 4, params), 4u);  // clamped
}

TEST(ChooseSplitWidth, ZeroChunkUsesAllTapes) {
  LoadBalanceParams params;
  params.min_split_chunk = Bytes{0};
  EXPECT_EQ(choose_split_width(1_GB, 7, params), 7u);
}

TEST(BalanceCluster, SmallClusterStaysOnOneTape) {
  const Workload wl = uniform_cluster(4, 1_GB);
  auto tapes = fresh_tapes(6);
  LoadBalanceParams params;
  params.min_split_chunk = 8_GB;  // 4 GB cluster -> ndrv = 1
  std::vector<ObjectId> members;
  for (std::uint32_t i = 0; i < 4; ++i) members.push_back(ObjectId{i});
  const auto result = balance_cluster(members, tapes, wl, params);
  ASSERT_EQ(result.objects.size(), 4u);
  EXPECT_TRUE(result.overflow.empty());
  std::set<std::uint32_t> used;
  for (const TapeId t : result.tapes) used.insert(t.value());
  EXPECT_EQ(used.size(), 1u);
}

TEST(BalanceCluster, LargeClusterSpreadsEvenly) {
  const Workload wl = uniform_cluster(24, 2_GB);  // 48 GB
  auto tapes = fresh_tapes(6);
  LoadBalanceParams params;
  params.min_split_chunk = 8_GB;  // -> ndrv = 6
  std::vector<ObjectId> members;
  for (std::uint32_t i = 0; i < 24; ++i) members.push_back(ObjectId{i});
  const auto result = balance_cluster(members, tapes, wl, params);
  EXPECT_TRUE(result.overflow.empty());
  // Equal loads zig-zagged over 6 tapes: each receives exactly 4 objects.
  std::vector<int> counts(6, 0);
  for (const TapeId t : result.tapes) ++counts[t.index()];
  for (const int c : counts) EXPECT_EQ(c, 4);
  // Per-tape load bookkeeping matches.
  for (const auto& t : tapes) {
    EXPECT_EQ(t.used, 8_GB);
  }
}

TEST(BalanceCluster, BalancesHeterogeneousLoads) {
  // Object i has size (i+1) GB; probabilities equal.
  std::vector<ObjectInfo> objects;
  std::vector<ObjectId> members;
  for (std::uint32_t i = 0; i < 12; ++i) {
    objects.push_back(ObjectInfo{ObjectId{i}, Bytes{(i + 1) * 1000000000ULL}});
    members.push_back(ObjectId{i});
  }
  std::vector<Request> requests{Request{RequestId{0}, 1.0, members}};
  const Workload wl{std::move(objects), std::move(requests)};

  auto tapes = fresh_tapes(4);
  LoadBalanceParams params;
  params.min_split_chunk = Bytes{1};  // force full width
  const auto result = balance_cluster(members, tapes, wl, params);
  EXPECT_TRUE(result.overflow.empty());
  // Total 78 GB over 4 tapes -> mean 19.5 GB; zig-zag should keep every
  // tape within one max-object of the mean.
  for (const auto& t : tapes) {
    EXPECT_GT(t.used.as_double(), 19.5e9 - 12.1e9);
    EXPECT_LT(t.used.as_double(), 19.5e9 + 12.1e9);
  }
}

TEST(BalanceCluster, RespectsCapacityCapViaFallback) {
  const Workload wl = uniform_cluster(10, 3_GB);  // 30 GB total
  auto tapes = fresh_tapes(4);
  LoadBalanceParams params;
  params.min_split_chunk = 100_GB;  // ndrv = 1: everything targets 1 tape
  params.tape_capacity_cap = 9_GB;  // but a tape only holds 3 objects
  std::vector<ObjectId> members;
  for (std::uint32_t i = 0; i < 10; ++i) members.push_back(ObjectId{i});
  const auto result = balance_cluster(members, tapes, wl, params);
  // 4 tapes x 9 GB = 36 GB >= 30 GB: everything places, none overflows.
  EXPECT_TRUE(result.overflow.empty());
  ASSERT_EQ(result.objects.size(), 10u);
  for (const auto& t : tapes) EXPECT_LE(t.used, 9_GB);
}

TEST(BalanceCluster, OverflowsWhenBatchIsFull) {
  const Workload wl = uniform_cluster(10, 3_GB);
  auto tapes = fresh_tapes(2);
  LoadBalanceParams params;
  params.tape_capacity_cap = 6_GB;  // 2 tapes x 2 objects = 4 fit
  std::vector<ObjectId> members;
  for (std::uint32_t i = 0; i < 10; ++i) members.push_back(ObjectId{i});
  const auto result = balance_cluster(members, tapes, wl, params);
  EXPECT_EQ(result.objects.size(), 4u);
  EXPECT_EQ(result.overflow.size(), 6u);
  for (const auto& t : tapes) EXPECT_EQ(t.used, 6_GB);
}

TEST(BalanceCluster, AccumulatesAcrossCalls) {
  const Workload wl = uniform_cluster(8, 1_GB);
  auto tapes = fresh_tapes(2);
  LoadBalanceParams params;
  params.min_split_chunk = Bytes{1};
  std::vector<ObjectId> first{ObjectId{0}, ObjectId{1}, ObjectId{2},
                              ObjectId{3}};
  std::vector<ObjectId> second{ObjectId{4}, ObjectId{5}, ObjectId{6},
                               ObjectId{7}};
  balance_cluster(first, tapes, wl, params);
  balance_cluster(second, tapes, wl, params);
  EXPECT_EQ(tapes[0].used + tapes[1].used, 8_GB);
  EXPECT_EQ(tapes[0].used, 4_GB);  // equal loads stay balanced
}

TEST(BalanceCluster, SingleTape) {
  const Workload wl = uniform_cluster(5, 1_GB);
  auto tapes = fresh_tapes(1);
  std::vector<ObjectId> members;
  for (std::uint32_t i = 0; i < 5; ++i) members.push_back(ObjectId{i});
  const auto result = balance_cluster(members, tapes, wl, {});
  for (const TapeId t : result.tapes) EXPECT_EQ(t, TapeId{0});
}


// --- oracle: balance_cluster against the full walk ---------------------------
//
// reference_balance is balance_cluster before its two shortcuts (the
// early return when no member fits the least-used tape of a capped batch,
// and the partial sort that selects only the ndrv least-loaded tapes),
// kept verbatim. It has no caller in src. Each seed draws random batches
// and clusters for every policy, runs both functions on copies of the same
// tapes, and requires the same assignment, the same overflow (in order)
// and the same state on every tape afterwards.

BalanceAssignment reference_balance(std::span<const ObjectId> members,
                                    std::span<TapeLoadState> tapes,
                                    const workload::Workload& workload,
                                    const LoadBalanceParams& params) {
  TAPESIM_ASSERT(!members.empty());
  TAPESIM_ASSERT(!tapes.empty());

  std::vector<ObjectId> order{members.begin(), members.end()};
  switch (params.policy) {
    case BalancePolicy::kZigZag:
      // "sort objects in C into increasing order based on load"
      std::sort(order.begin(), order.end(), [&](ObjectId a, ObjectId b) {
        const double la = workload.object_load(a);
        const double lb = workload.object_load(b);
        if (la != lb) return la < lb;
        return a < b;
      });
      break;
    case BalancePolicy::kLeastLoaded:
      // LPT: biggest loads first, each to the emptiest tape.
      std::sort(order.begin(), order.end(), [&](ObjectId a, ObjectId b) {
        const double la = workload.object_load(a);
        const double lb = workload.object_load(b);
        if (la != lb) return la > lb;
        return a < b;
      });
      break;
    case BalancePolicy::kRoundRobin:
    case BalancePolicy::kFirstFit:
      break;  // member order as given
  }

  Bytes cluster_bytes{};
  for (const ObjectId o : order) cluster_bytes += workload.object_size(o);
  const std::uint32_t ndrv =
      choose_split_width(cluster_bytes, tapes.size(), params);

  // Select the ndrv least-loaded tapes for this cluster ("assign ndrv a
  // proper value based on info of C and tapes"), then, per Figure 3,
  // "sort m tapes in decreasing order based on workload" within the
  // selection for the zig-zag walk.
  std::vector<std::size_t> tape_order(tapes.size());
  for (std::size_t i = 0; i < tapes.size(); ++i) tape_order[i] = i;
  std::sort(tape_order.begin(), tape_order.end(),
            [&](std::size_t a, std::size_t b) {
              if (tapes[a].load != tapes[b].load)
                return tapes[a].load < tapes[b].load;
              return tapes[a].tape < tapes[b].tape;
            });
  tape_order.resize(ndrv);
  std::reverse(tape_order.begin(), tape_order.end());

  auto has_room = [&](const TapeLoadState& t, Bytes size) {
    return params.tape_capacity_cap.count() == 0 ||
           t.used + size <= params.tape_capacity_cap;
  };

  BalanceAssignment out;
  out.objects.reserve(order.size());
  out.tapes.reserve(order.size());

  // Figure 3 zig-zag: i walks 1..ndrv-1..0..1.. over the sorted tape list.
  std::int64_t i = 0;
  bool descending = false;  // pseudocode "flag"
  std::size_t member_index = 0;

  // Picks the policy's target tape (an index into `tapes`) for one object.
  auto pick_target = [&](Bytes size) -> std::size_t {
    switch (params.policy) {
      case BalancePolicy::kZigZag:
        if (!descending) {
          ++i;
        } else {
          --i;
        }
        if (i == static_cast<std::int64_t>(ndrv)) {
          descending = true;
          --i;
        }
        if (i == -1) {
          descending = false;
          ++i;
        }
        return tape_order[static_cast<std::size_t>(i)];
      case BalancePolicy::kRoundRobin:
        return tape_order[member_index % ndrv];
      case BalancePolicy::kFirstFit:
        for (std::size_t s = 0; s < ndrv; ++s) {
          if (has_room(tapes[tape_order[s]], size)) return tape_order[s];
        }
        return tape_order[0];  // full; the fallback below handles it
      case BalancePolicy::kLeastLoaded: {
        std::size_t best = tape_order[0];
        for (std::size_t s = 1; s < ndrv; ++s) {
          if (tapes[tape_order[s]].load < tapes[best].load) {
            best = tape_order[s];
          }
        }
        return best;
      }
    }
    return tape_order[0];
  };

  for (const ObjectId o : order) {
    const Bytes size = workload.object_size(o);
    std::size_t target = pick_target(size);
    ++member_index;
    if (!has_room(tapes[target], size)) {
      // Fall back to the least-used tape that still has room.
      std::size_t best = tapes.size();
      for (std::size_t cand = 0; cand < tapes.size(); ++cand) {
        if (!has_room(tapes[cand], size)) continue;
        if (best == tapes.size() || tapes[cand].used < tapes[best].used) {
          best = cand;
        }
      }
      if (best == tapes.size()) {
        out.overflow.push_back(o);
        continue;
      }
      target = best;
    }

    tapes[target].load += workload.object_load(o);
    tapes[target].used += size;
    out.objects.push_back(o);
    out.tapes.push_back(tapes[target].tape);
  }
  return out;
}

struct OracleCase {
  Workload workload;
  std::vector<ObjectId> members;
  std::vector<TapeLoadState> tapes;
  LoadBalanceParams params;
};

/// Draws one case. Tapes are empty, partly used, within one object of the
/// cap, or exactly at it, with shuffled ids so the first tape is rarely the
/// least-used one; loads tie often. Member sizes sit around the room the
/// tapes have left, including sizes that fill a tape exactly.
OracleCase draw_case(Rng& rng, BalancePolicy policy) {
  const std::uint64_t cap = rng.uniform_in(1'000, 1'000'000);
  const std::uint64_t typical = rng.uniform_in(cap / 100, cap / 2);
  const bool capped = rng.uniform() < 0.9;
  // 0: mostly roomy, 1: crowded, 2: every tape near or at the cap.
  const std::uint64_t mode = rng.uniform_below(3);
  const double fullness = mode == 0   ? rng.uniform(0.0, 0.5)
                          : mode == 1 ? rng.uniform(0.5, 1.0)
                                      : 1.0;

  const auto tape_count = static_cast<std::uint32_t>(rng.uniform_in(1, 64));
  std::vector<std::uint32_t> ids(tape_count);
  std::iota(ids.begin(), ids.end(), 100U);
  shuffle(ids, rng);
  std::vector<TapeLoadState> tapes;
  std::uint64_t max_room = 0;
  for (const std::uint32_t id : ids) {
    std::uint64_t used = 0;
    if (rng.uniform() < fullness) {
      used = rng.uniform() < 0.3
                 ? cap
                 : cap - rng.uniform_in(1, std::min(cap, typical));
    } else if (rng.uniform() < 0.7) {
      used = rng.uniform_below(cap);
    }
    const double load = rng.uniform() < 0.3
                            ? static_cast<double>(rng.uniform_below(4)) * 0.25 *
                                  static_cast<double>(cap)
                            : rng.uniform() * static_cast<double>(cap);
    tapes.push_back(TapeLoadState{TapeId{id}, load, Bytes{used}});
    max_room = std::max(max_room, cap - used);
  }
  auto room_of_some_tape = [&] {
    const TapeLoadState& t = tapes[rng.uniform_below(tapes.size())];
    return cap - t.used.count();
  };

  const auto member_count = static_cast<std::uint32_t>(rng.uniform_in(1, 40));
  // In mode 2, most clusters fit nowhere: every member is larger than
  // the most room any tape has left.
  const bool none_fit = mode == 2 && rng.uniform() < 0.75;
  std::vector<ObjectInfo> objects;
  for (std::uint32_t i = 0; i < member_count; ++i) {
    std::uint64_t size = 0;
    const double pick = rng.uniform();
    if (none_fit) {
      size = max_room + rng.uniform_in(1, typical);
    } else if (mode == 2 && pick < 0.3) {
      size = max_room;  // fits the least-used tape exactly
    } else if (pick < 0.45) {
      size = room_of_some_tape();  // fills that tape exactly
    } else if (pick < 0.6) {
      size = room_of_some_tape() + 1;
    } else if (pick < 0.7) {
      size = room_of_some_tape();
      size = size > 1 ? size - 1 : 1;
    } else {
      size = rng.uniform_in(typical / 2, typical * 3 / 2);
    }
    objects.push_back(ObjectInfo{ObjectId{i}, Bytes{std::max<std::uint64_t>(
                                                  size, 1)}});
  }
  // A few requests over random members, from a small set of probabilities
  // so loads tie; members in no request have load 0.
  std::vector<Request> requests;
  const std::uint64_t request_count = rng.uniform_in(1, 3);
  for (std::uint32_t r = 0; r < request_count; ++r) {
    std::vector<ObjectId> in_request;
    for (std::uint32_t i = 0; i < member_count; ++i) {
      if (rng.uniform() < 0.7) in_request.push_back(ObjectId{i});
    }
    const double probability =
        static_cast<double>(rng.uniform_in(1, 4)) * 0.125;
    requests.push_back(Request{RequestId{r}, probability, in_request});
  }

  std::vector<ObjectId> members(member_count);
  for (std::uint32_t i = 0; i < member_count; ++i) members[i] = ObjectId{i};
  shuffle(members, rng);

  LoadBalanceParams params;
  params.policy = policy;
  params.tape_capacity_cap = Bytes{capped ? cap : 0};
  switch (rng.uniform_below(4)) {
    case 0: params.min_split_chunk = Bytes{0}; break;  // every tape
    case 1: params.min_split_chunk = Bytes{~std::uint64_t{0}}; break;  // one
    default: params.min_split_chunk = Bytes{rng.uniform_in(1, 2 * cap)};
  }
  return OracleCase{Workload{std::move(objects), std::move(requests)},
                    std::move(members), std::move(tapes), params};
}

::testing::AssertionResult same_balance(
    const BalanceAssignment& got, const std::vector<TapeLoadState>& got_tapes,
    const BalanceAssignment& want,
    const std::vector<TapeLoadState>& want_tapes) {
  if (got.objects != want.objects) {
    return ::testing::AssertionFailure() << "objects differ";
  }
  if (got.tapes != want.tapes) {
    return ::testing::AssertionFailure() << "tapes differ";
  }
  if (got.overflow != want.overflow) {
    return ::testing::AssertionFailure() << "overflow differs";
  }
  for (std::size_t i = 0; i < want_tapes.size(); ++i) {
    const TapeLoadState& g = got_tapes[i];
    const TapeLoadState& w = want_tapes[i];
    if (g.tape != w.tape || g.used != w.used ||
        std::bit_cast<std::uint64_t>(g.load) !=
            std::bit_cast<std::uint64_t>(w.load)) {
      return ::testing::AssertionFailure() << "tape slot " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

class BalanceOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BalanceOracle, MatchesReference) {
  constexpr int kCasesPerPolicy = 750;
  constexpr int kMinPerOutcome = 100;
  Rng rng{0xBA1A'0000ULL + GetParam()};
  for (const BalancePolicy policy :
       {BalancePolicy::kZigZag, BalancePolicy::kRoundRobin,
        BalancePolicy::kFirstFit, BalancePolicy::kLeastLoaded}) {
    int all_placed = 0;
    int partial = 0;
    int all_overflow = 0;
    for (int c = 0; c < kCasesPerPolicy; ++c) {
      OracleCase oc = draw_case(rng, policy);
      std::vector<TapeLoadState> want_tapes = oc.tapes;
      const BalanceAssignment want =
          reference_balance(oc.members, want_tapes, oc.workload, oc.params);
      const BalanceAssignment got =
          balance_cluster(oc.members, oc.tapes, oc.workload, oc.params);
      ASSERT_TRUE(same_balance(got, oc.tapes, want, want_tapes))
          << to_string(policy) << " case " << c << ": "
          << oc.members.size() << " members, " << oc.tapes.size()
          << " tapes, cap " << oc.params.tape_capacity_cap.count();
      if (want.overflow.empty()) {
        ++all_placed;
      } else if (want.objects.empty()) {
        ++all_overflow;
      } else {
        ++partial;
      }
    }
    // The draw reaches every outcome often, so the shortcut for clusters
    // that fit nowhere is compared as often as the full walk.
    EXPECT_GE(all_placed, kMinPerOutcome) << to_string(policy);
    EXPECT_GE(partial, kMinPerOutcome) << to_string(policy);
    EXPECT_GE(all_overflow, kMinPerOutcome) << to_string(policy);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BalanceOracle,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace tapesim::core
