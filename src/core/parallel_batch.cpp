#include "core/parallel_batch.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "util/assert.hpp"

namespace tapesim::core {
namespace {

/// One allocation unit moving through the sublist partitioning: a whole
/// cluster (refinement on), a single object (refinement off), or a piece of
/// an oversized cluster that had to straddle batches.
struct Unit {
  std::vector<ObjectId> members;  ///< Descending object probability.
  Bytes bytes{};
  double probability = 0.0;

  [[nodiscard]] double density() const {
    return bytes.count() == 0 ? 0.0 : probability / bytes.as_double();
  }
};

Unit make_unit(std::vector<ObjectId> members,
               const workload::Workload& workload) {
  Unit u;
  u.members = std::move(members);
  for (const ObjectId o : u.members) {
    u.bytes += workload.object_size(o);
    u.probability += workload.object_probability(o);
  }
  return u;
}

}  // namespace

ParallelBatchPlacement::ParallelBatchPlacement(ParallelBatchParams params)
    : params_(params) {}

std::uint32_t ParallelBatchPlacement::batch_count(
    const tape::SystemSpec& spec, std::uint32_t switch_drives) {
  const std::uint32_t d = spec.library.drives_per_library;
  const std::uint32_t t = spec.library.tapes_per_library;
  const std::uint32_t always = d - switch_drives;
  // Batch 0 uses `always` tapes per library; each further batch uses
  // `switch_drives` tapes per library.
  return 1 + (t - always) / switch_drives;
}

std::vector<TapeId> ParallelBatchPlacement::batch_tapes(
    const tape::SystemSpec& spec, std::uint32_t switch_drives,
    std::uint32_t index) {
  const std::uint32_t d = spec.library.drives_per_library;
  const std::uint32_t t = spec.library.tapes_per_library;
  const std::uint32_t n = spec.num_libraries;
  const std::uint32_t always = d - switch_drives;

  std::uint32_t first_slot = 0;
  std::uint32_t width = 0;
  if (index == 0) {
    first_slot = 0;
    width = always;
  } else {
    first_slot = always + (index - 1) * switch_drives;
    width = switch_drives;
  }
  TAPESIM_ASSERT_MSG(first_slot + width <= t, "batch index out of range");

  // Interleave libraries so the zig-zag balancer spreads a cluster across
  // libraries before doubling up within one (maximizes robot parallelism).
  std::vector<TapeId> tapes;
  tapes.reserve(static_cast<std::size_t>(n) * width);
  for (std::uint32_t s = 0; s < width; ++s) {
    for (std::uint32_t lib = 0; lib < n; ++lib) {
      tapes.push_back(TapeId{lib * t + first_slot + s});
    }
  }
  return tapes;
}

PlacementPlan ParallelBatchPlacement::place(
    const PlacementContext& context) const {
  TAPESIM_ASSERT(context.workload != nullptr && context.spec != nullptr);
  const workload::Workload& workload = *context.workload;
  const tape::SystemSpec& spec = *context.spec;
  const std::uint32_t d = spec.library.drives_per_library;
  const std::uint32_t m = params_.switch_drives;

  if (m < 1 || m >= d) {
    throw std::runtime_error(
        "parallel batch placement: switch drives m must be in [1, d-1]");
  }
  if (params_.cluster_refinement && context.clusters == nullptr) {
    throw std::runtime_error(
        "parallel batch placement: cluster refinement needs clusters");
  }
  const double k = params_.capacity_utilization;
  if (!(k > 0.0 && k <= 1.0)) {
    throw std::runtime_error("capacity utilization k must be in (0, 1]");
  }

  // --- Steps 1-2 and 4 (or its ablation): units in density order. ---
  std::vector<Unit> units;
  if (params_.cluster_refinement) {
    const auto& clusters = context.clusters->clusters();
    units.reserve(clusters.size());
    for (const cluster::Cluster& c : clusters) {
      units.push_back(make_unit(c.members, workload));
    }
    std::sort(units.begin(), units.end(), [](const Unit& a, const Unit& b) {
      const double da = a.density();
      const double db = b.density();
      if (da != db) return da > db;
      return a.members.front() < b.members.front();
    });
  } else {
    // Without refinement the units are the density-sorted object list.
    std::vector<ObjectId> density_order(workload.object_count());
    for (std::uint32_t i = 0; i < workload.object_count(); ++i) {
      density_order[i] = ObjectId{i};
    }
    std::sort(density_order.begin(), density_order.end(),
              [&](ObjectId a, ObjectId b) {
                const double da = workload.probability_density(a);
                const double db = workload.probability_density(b);
                if (da != db) return da > db;
                return a < b;
              });
    units.reserve(workload.object_count());
    for (const ObjectId o : density_order) {
      units.push_back(make_unit({o}, workload));
    }
  }

  // --- Step 3: sublists sized to tape batches. ---
  const Bytes tape_cap_planned{static_cast<Bytes::value_type>(
      k * spec.library.tape_capacity.as_double())};
  const std::uint32_t total_batches = batch_count(spec, m);

  PlacementPlan plan(spec, workload);

  LoadBalanceParams balance = params_.balance;
  balance.tape_capacity_cap = tape_cap_planned;

  // Batch filling state.
  std::uint32_t batch_index = 0;
  std::vector<TapeLoadState> batch_state;
  Bytes batch_cap{};
  Bytes batch_used{};
  auto open_batch = [&](std::uint32_t index) {
    if (index >= total_batches) {
      throw std::runtime_error(
          "parallel batch placement: workload exceeds system capacity");
    }
    const auto tapes = batch_tapes(spec, m, index);
    batch_state.clear();
    for (const TapeId t : tapes) batch_state.push_back(TapeLoadState{t});
    batch_cap = Bytes{static_cast<Bytes::value_type>(
        static_cast<double>(tapes.size()) *
        tape_cap_planned.as_double())};
    batch_used = Bytes{};
  };
  open_batch(0);

  // First-fit-decreasing over density-ordered units; units that do not fit
  // the current batch wait in `spilled` and get first chance at the next
  // batch (this is the "move objects between adjacent sublists" refinement).
  std::deque<Unit> spilled;
  std::size_t next_unit = 0;
  auto next_candidate = [&]() -> Unit* {
    if (!spilled.empty()) return &spilled.front();
    if (next_unit < units.size()) return &units[next_unit];
    return nullptr;
  };
  auto pop_candidate = [&](bool from_spill) {
    if (from_spill) {
      spilled.pop_front();
    } else {
      ++next_unit;
    }
  };

  std::deque<Unit> deferred;  // did not fit current batch remainder

  // Balances `members` onto the open batch; returns the bytes actually
  // placed. Fragmentation overflow becomes a deferred unit for the next
  // batch. A fresh batch that cannot take an object at all means the
  // object exceeds the per-tape cap — unplaceable, so throw.
  auto place_members = [&](const std::vector<ObjectId>& members) {
    auto assignment = balance_cluster(members, batch_state, workload, balance);
    Bytes placed{};
    for (std::size_t i = 0; i < assignment.objects.size(); ++i) {
      plan.assign(assignment.objects[i], assignment.tapes[i]);
      placed += workload.object_size(assignment.objects[i]);
    }
    if (!assignment.overflow.empty()) {
      if (assignment.objects.empty() && batch_used.count() == 0) {
        throw std::runtime_error(
            "parallel batch placement: object exceeds the per-tape cap");
      }
      deferred.push_back(make_unit(std::move(assignment.overflow), workload));
    }
    return placed;
  };

  while (true) {
    Unit* cand = next_candidate();
    const bool from_spill = !spilled.empty();
    if (cand == nullptr) {
      if (deferred.empty()) break;  // all placed
      // Current batch cannot take anything more; open the next one.
      ++batch_index;
      open_batch(batch_index);
      for (auto& u : deferred) spilled.push_back(std::move(u));
      deferred.clear();
      continue;
    }

    if (cand->bytes > batch_cap) {
      // Oversized cluster: fill what fits now, spill the tail as a new unit.
      Unit head;
      Unit tail;
      Bytes room = batch_cap - batch_used;
      for (const ObjectId o : cand->members) {
        const Bytes size = workload.object_size(o);
        if (head.bytes + size <= room) {
          head.members.push_back(o);
          head.bytes += size;
          head.probability += workload.object_probability(o);
        } else {
          tail.members.push_back(o);
          tail.bytes += size;
          tail.probability += workload.object_probability(o);
        }
      }
      pop_candidate(from_spill);
      if (!tail.members.empty()) deferred.push_back(std::move(tail));
      if (head.members.empty()) continue;
      batch_used += place_members(head.members);
      continue;
    }

    if (batch_used + cand->bytes > batch_cap) {
      deferred.push_back(std::move(*cand));
      pop_candidate(from_spill);
      continue;
    }

    batch_used += place_members(cand->members);
    pop_candidate(from_spill);
  }

  // --- Step 6: on-tape alignment. ---
  plan.align_all(params_.alignment);

  // --- Mount policy: pinned first batch + m switch drives per library. ---
  const std::uint32_t n = spec.num_libraries;
  const std::uint32_t t = spec.library.tapes_per_library;
  const std::uint32_t always = d - m;
  plan.mount_policy.replacement = ReplacementPolicy::kFixedBatch;
  plan.mount_policy.drive_pinned.assign(spec.total_drives(), false);
  for (std::uint32_t lib = 0; lib < n; ++lib) {
    for (std::uint32_t s = 0; s < always; ++s) {
      const DriveId drive{lib * d + s};
      const TapeId tp{lib * t + s};
      plan.mount_policy.drive_pinned[drive.index()] = true;
      plan.mount_policy.initial_mounts.emplace_back(drive, tp);
    }
    // Switch drives start holding the second batch (paper Section 5.2).
    for (std::uint32_t s = 0; s < m; ++s) {
      const DriveId drive{lib * d + always + s};
      const TapeId tp{lib * t + always + s};
      plan.mount_policy.initial_mounts.emplace_back(drive, tp);
    }
  }
  plan.compute_tape_popularity();
  plan.validate();
  return plan;
}

}  // namespace tapesim::core
