#include "core/load_balance.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"

namespace tapesim::core {

const char* to_string(BalancePolicy p) {
  switch (p) {
    case BalancePolicy::kZigZag: return "zig-zag";
    case BalancePolicy::kRoundRobin: return "round-robin";
    case BalancePolicy::kFirstFit: return "first-fit";
    case BalancePolicy::kLeastLoaded: return "least-loaded";
  }
  return "?";
}

std::uint32_t choose_split_width(Bytes cluster_bytes,
                                 std::size_t available_tapes,
                                 const LoadBalanceParams& params) {
  TAPESIM_ASSERT(available_tapes > 0);
  if (params.min_split_chunk.count() == 0) {
    return static_cast<std::uint32_t>(available_tapes);
  }
  const auto width = static_cast<std::uint32_t>(
      cluster_bytes.count() / params.min_split_chunk.count());
  return std::clamp<std::uint32_t>(
      width, 1, static_cast<std::uint32_t>(available_tapes));
}

BalanceAssignment balance_cluster(std::span<const ObjectId> members,
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

  auto has_room = [&](const TapeLoadState& t, Bytes size) {
    return params.tape_capacity_cap.count() == 0 ||
           t.used + size <= params.tape_capacity_cap;
  };

  BalanceAssignment out;

  // A member fits some tape iff it fits the least-used one, and a walk that
  // places nothing changes no tape. So when no member fits that tape, the
  // walk below would send every member to overflow in `order`: return that
  // at once. Most calls from place() are such offers of a deferred cluster
  // to a fragmented batch.
  if (params.tape_capacity_cap.count() != 0) {
    const TapeLoadState& least_used = *std::min_element(
        tapes.begin(), tapes.end(),
        [](const TapeLoadState& a, const TapeLoadState& b) {
          return a.used < b.used;
        });
    const bool any_fits =
        std::any_of(order.begin(), order.end(), [&](ObjectId o) {
          return has_room(least_used, workload.object_size(o));
        });
    if (!any_fits) {
      out.overflow = std::move(order);
      return out;
    }
  }

  Bytes cluster_bytes{};
  for (const ObjectId o : order) cluster_bytes += workload.object_size(o);
  const std::uint32_t ndrv =
      choose_split_width(cluster_bytes, tapes.size(), params);

  // Select the ndrv least-loaded tapes for this cluster ("assign ndrv a
  // proper value based on info of C and tapes"), then, per Figure 3,
  // "sort m tapes in decreasing order based on workload" within the
  // selection for the zig-zag walk. (load, tape id) is a strict total
  // order, so sorting only the selected prefix picks the same tapes in the
  // same order as sorting them all.
  std::vector<std::size_t> tape_order(tapes.size());
  for (std::size_t i = 0; i < tapes.size(); ++i) tape_order[i] = i;
  std::partial_sort(tape_order.begin(),
                    tape_order.begin() + static_cast<std::ptrdiff_t>(ndrv),
                    tape_order.end(), [&](std::size_t a, std::size_t b) {
                      if (tapes[a].load != tapes[b].load)
                        return tapes[a].load < tapes[b].load;
                      return tapes[a].tape < tapes[b].tape;
                    });
  tape_order.resize(ndrv);
  std::reverse(tape_order.begin(), tape_order.end());

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

}  // namespace tapesim::core
