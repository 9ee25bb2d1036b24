#include "core/object_probability.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"

namespace tapesim::core {

ObjectProbabilityPlacement::ObjectProbabilityPlacement(
    ObjectProbabilityParams params)
    : params_(params) {}

PlacementPlan ObjectProbabilityPlacement::place(
    const PlacementContext& context) const {
  TAPESIM_ASSERT(context.workload != nullptr && context.spec != nullptr);
  const workload::Workload& workload = *context.workload;
  const tape::SystemSpec& spec = *context.spec;
  const double k = params_.capacity_utilization;
  if (!(k > 0.0 && k <= 1.0)) {
    throw std::runtime_error("capacity utilization k must be in (0, 1]");
  }

  // Each object's sort key, computed once rather than per comparison.
  std::vector<ObjectId> order(workload.object_count());
  std::vector<double> key(workload.object_count());
  for (std::uint32_t i = 0; i < workload.object_count(); ++i) {
    order[i] = ObjectId{i};
    key[i] = params_.sort_by_density ? workload.probability_density(order[i])
                                     : workload.object_probability(order[i]);
  }
  std::sort(order.begin(), order.end(), [&](ObjectId a, ObjectId b) {
    const double pa = key[a.index()];
    const double pb = key[b.index()];
    if (pa != pb) return pa > pb;
    return a < b;
  });

  const Bytes cap{static_cast<Bytes::value_type>(
      k * spec.library.tape_capacity.as_double())};
  const std::uint32_t n = spec.num_libraries;
  const std::uint32_t t = spec.library.tapes_per_library;

  PlacementPlan plan(spec, workload);

  // Pack in probability order onto rank-ordered tapes; ranks round-robin
  // across libraries so consecutive popular tapes sit behind independent
  // robots.
  auto rank_to_tape = [&](std::uint32_t rank) {
    const std::uint32_t lib = rank % n;
    const std::uint32_t slot = rank / n;
    if (slot >= t) {
      throw std::runtime_error(
          "object probability placement: workload exceeds system capacity");
    }
    return TapeId{lib * t + slot};
  };

  std::uint32_t rank = 0;
  Bytes used{};
  for (const ObjectId o : order) {
    const Bytes size = workload.object_size(o);
    if (size > cap) {
      throw std::runtime_error(
          "object probability placement: object exceeds per-tape cap");
    }
    if (used + size > cap) {
      ++rank;
      used = Bytes{};
    }
    plan.assign(o, rank_to_tape(rank));
    used += size;
  }

  plan.align_all(params_.alignment);
  plan.mount_policy.replacement = ReplacementPolicy::kLeastPopular;
  plan.compute_tape_popularity();
  mount_most_popular(plan);
  plan.validate();
  return plan;
}

}  // namespace tapesim::core
