#include "core/plan.hpp"

#include <algorithm>
#include <deque>

#include "util/assert.hpp"

namespace tapesim::core {

const char* to_string(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kFixedBatch: return "fixed-batch";
    case ReplacementPolicy::kLeastPopular: return "least-popular";
  }
  return "?";
}

PlacementPlan::PlacementPlan(const tape::SystemSpec& spec,
                             const workload::Workload& workload)
    : spec_(&spec),
      workload_(&workload),
      object_tape_(workload.object_count()),
      layout_(spec.total_tapes()),
      used_(spec.total_tapes()),
      frozen_(spec.total_tapes(), 0),
      object_replicas_(workload.object_count()) {}

void PlacementPlan::assign(ObjectId object, TapeId tape) {
  TAPESIM_ASSERT(object.valid() && object.index() < object_tape_.size());
  TAPESIM_ASSERT_MSG(!object_tape_[object.index()].valid(),
                     "object assigned to two tapes");
  TAPESIM_ASSERT(tape.valid() && tape.index() < layout_.size());
  const Bytes size = workload_->object_size(object);
  TAPESIM_ASSERT_MSG(used_[tape.index()] + size <=
                         spec_->library.tape_capacity,
                     "tape capacity exceeded");
  object_tape_[object.index()] = tape;
  layout_[tape.index()].push_back(PlacedObject{object, Bytes{0}, size});
  used_[tape.index()] += size;
}

void PlacementPlan::assign_replica(ObjectId object, TapeId tape) {
  TAPESIM_ASSERT(object.valid() && object.index() < object_tape_.size());
  TAPESIM_ASSERT_MSG(object_tape_[object.index()].valid(),
                     "replica of an unassigned object");
  TAPESIM_ASSERT(tape.valid() && tape.index() < layout_.size());
  TAPESIM_ASSERT_MSG(object_tape_[object.index()] != tape,
                     "replica on the primary's tape");
  auto& copies = object_replicas_[object.index()];
  TAPESIM_ASSERT_MSG(
      std::find(copies.begin(), copies.end(), tape) == copies.end(),
      "two copies of an object on one tape");
  const Bytes size = workload_->object_size(object);
  TAPESIM_ASSERT_MSG(used_[tape.index()] + size <=
                         spec_->library.tape_capacity,
                     "tape capacity exceeded");
  copies.push_back(tape);
  layout_[tape.index()].push_back(PlacedObject{object, Bytes{0}, size});
  used_[tape.index()] += size;
  ++total_replicas_;
  max_replicas_ = std::max(max_replicas_,
                           static_cast<std::uint32_t>(copies.size()));
}

void PlacementPlan::freeze_layout() {
  TAPESIM_ASSERT_MSG(aligned_, "freeze_layout() requires align_all() first");
  for (std::uint32_t t = 0; t < layout_.size(); ++t) {
    frozen_[t] = layout_[t].size();
  }
}

std::span<const TapeId> PlacementPlan::replicas_of(ObjectId object) const {
  TAPESIM_ASSERT(object.valid() && object.index() < object_replicas_.size());
  return object_replicas_[object.index()];
}

void PlacementPlan::align_all(Alignment alignment) {
  for (std::uint32_t t = 0; t < layout_.size(); ++t) {
    auto& objects = layout_[t];
    const std::size_t frozen = frozen_[t];
    if (objects.size() <= frozen) continue;

    std::vector<ObjectId> order;
    order.reserve(objects.size() - frozen);
    for (std::size_t j = frozen; j < objects.size(); ++j) {
      order.push_back(objects[j].object);
    }

    switch (alignment) {
      case Alignment::kOrganPipe:
        order = organ_pipe_order(order, *workload_);
        break;
      case Alignment::kDescendingProbability:
        std::stable_sort(order.begin(), order.end(),
                         [&](ObjectId a, ObjectId b) {
                           return workload_->object_probability(a) >
                                  workload_->object_probability(b);
                         });
        break;
      case Alignment::kGivenOrder:
        break;
    }

    objects.resize(frozen);
    Bytes offset = frozen == 0
                       ? Bytes{0}
                       : objects.back().offset + objects.back().size;
    for (const ObjectId o : order) {
      const Bytes size = workload_->object_size(o);
      objects.push_back(PlacedObject{o, offset, size});
      offset += size;
    }
  }
  aligned_ = true;
}

void PlacementPlan::adopt_frozen(const PlacementPlan& previous) {
  TAPESIM_ASSERT_MSG(previous.aligned_,
                     "can only adopt an aligned (finalized) plan");
  TAPESIM_ASSERT_MSG(!previous.replicated(),
                     "incremental placement over a replicated plan is "
                     "not supported");
  TAPESIM_ASSERT(previous.layout_.size() == layout_.size());
  TAPESIM_ASSERT_MSG(
      previous.workload().object_count() <= workload_->object_count(),
      "the new workload must extend the previous one");
  for (std::uint32_t t = 0; t < layout_.size(); ++t) {
    TAPESIM_ASSERT_MSG(layout_[t].empty(),
                       "adopt_frozen requires a fresh plan");
    layout_[t] = previous.layout_[t];
    used_[t] = previous.used_[t];
    frozen_[t] = layout_[t].size();
    for (const PlacedObject& p : layout_[t]) {
      TAPESIM_ASSERT_MSG(workload_->object_size(p.object) == p.size,
                         "old object changed size in the new workload");
      object_tape_[p.object.index()] = TapeId{t};
    }
  }
}

Bytes PlacementPlan::remaining_on(TapeId tape, Bytes cap) const {
  const Bytes used = used_[tape.index()];
  return used >= cap ? Bytes{0} : cap - used;
}

std::span<const PlacedObject> PlacementPlan::on_tape(TapeId tape) const {
  TAPESIM_ASSERT(tape.valid() && tape.index() < layout_.size());
  return layout_[tape.index()];
}

Bytes PlacementPlan::used_on(TapeId tape) const {
  TAPESIM_ASSERT(tape.valid() && tape.index() < used_.size());
  return used_[tape.index()];
}

std::uint32_t PlacementPlan::tapes_used() const {
  std::uint32_t count = 0;
  for (const auto& objects : layout_) {
    if (!objects.empty()) ++count;
  }
  return count;
}

void PlacementPlan::compute_tape_popularity() {
  mount_policy.tape_popularity.assign(layout_.size(), 0.0);
  for (std::uint32_t t = 0; t < layout_.size(); ++t) {
    double p = 0.0;
    for (const PlacedObject& obj : layout_[t]) {
      p += workload_->object_probability(obj.object);
    }
    mount_policy.tape_popularity[t] = p;
  }
}

void PlacementPlan::validate() const {
  TAPESIM_ASSERT_MSG(aligned_, "validate() requires align_all() first");
  for (std::size_t i = 0; i < object_tape_.size(); ++i) {
    TAPESIM_ASSERT_MSG(object_tape_[i].valid(),
                       "object missing from the plan");
  }
  std::size_t placed = 0;
  for (std::uint32_t t = 0; t < layout_.size(); ++t) {
    const auto& objects = layout_[t];
    Bytes used{};
    for (std::size_t i = 0; i < objects.size(); ++i) {
      const PlacedObject& p = objects[i];
      const auto& copies = object_replicas_[p.object.index()];
      TAPESIM_ASSERT_MSG(
          object_tape_[p.object.index()] == TapeId{t} ||
              std::find(copies.begin(), copies.end(), TapeId{t}) !=
                  copies.end(),
          "layout entry matches no copy of its object");
      TAPESIM_ASSERT(p.size == workload_->object_size(p.object));
      if (i > 0) {
        TAPESIM_ASSERT_MSG(
            objects[i - 1].offset + objects[i - 1].size == p.offset,
            "alignment left a gap or overlap");
      } else {
        TAPESIM_ASSERT(p.offset == Bytes{0});
      }
      used += p.size;
    }
    TAPESIM_ASSERT(used == used_[t]);
    TAPESIM_ASSERT_MSG(used <= spec_->library.tape_capacity,
                       "tape over capacity");
    placed += objects.size();
  }
  TAPESIM_ASSERT(placed == workload_->object_count() + total_replicas_);

  // Mount policy sanity.
  std::vector<bool> drive_used(spec_->total_drives(), false);
  std::vector<bool> tape_mounted(spec_->total_tapes(), false);
  for (const auto& [drive, tp] : mount_policy.initial_mounts) {
    TAPESIM_ASSERT(drive.valid() && drive.value() < spec_->total_drives());
    TAPESIM_ASSERT(tp.valid() && tp.value() < spec_->total_tapes());
    TAPESIM_ASSERT_MSG(!drive_used[drive.index()],
                       "two tapes mounted on one drive");
    TAPESIM_ASSERT_MSG(!tape_mounted[tp.index()],
                       "tape mounted on two drives");
    drive_used[drive.index()] = true;
    tape_mounted[tp.index()] = true;
    // A tape must be mounted in its own library.
    const auto d = spec_->library.drives_per_library;
    const auto t = spec_->library.tapes_per_library;
    TAPESIM_ASSERT_MSG(drive.value() / d == tp.value() / t,
                       "initial mount crosses libraries");
  }
  if (!mount_policy.drive_pinned.empty()) {
    TAPESIM_ASSERT(mount_policy.drive_pinned.size() == spec_->total_drives());
    for (std::uint32_t d = 0; d < spec_->total_drives(); ++d) {
      if (mount_policy.drive_pinned[d]) {
        TAPESIM_ASSERT_MSG(drive_used[d],
                           "pinned drive has no initial mount");
      }
    }
  }
}

catalog::ObjectCatalog PlacementPlan::to_catalog() const {
  TAPESIM_ASSERT_MSG(aligned_, "catalog requires aligned offsets");
  catalog::ObjectCatalog cat(spec_->total_tapes(), object_tape_.size());
  const auto tapes_per_lib = spec_->library.tapes_per_library;
  // Primaries first (insert_replica requires the primary to exist), then
  // the extra copies.
  for (std::uint32_t t = 0; t < layout_.size(); ++t) {
    for (const PlacedObject& p : layout_[t]) {
      if (object_tape_[p.object.index()] != TapeId{t}) continue;
      const bool ok = cat.insert(catalog::ObjectRecord{
          p.object, p.size, LibraryId{t / tapes_per_lib}, TapeId{t},
          p.offset});
      TAPESIM_ASSERT(ok);
    }
  }
  if (total_replicas_ > 0) {
    for (std::uint32_t t = 0; t < layout_.size(); ++t) {
      for (const PlacedObject& p : layout_[t]) {
        if (object_tape_[p.object.index()] == TapeId{t}) continue;
        const bool ok = cat.insert_replica(catalog::ObjectRecord{
            p.object, p.size, LibraryId{t / tapes_per_lib}, TapeId{t},
            p.offset});
        TAPESIM_ASSERT(ok);
      }
    }
  }
  return cat;
}

void mount_most_popular(PlacementPlan& plan) {
  const tape::SystemSpec& spec = plan.spec();
  const auto& popularity = plan.mount_policy.tape_popularity;
  TAPESIM_ASSERT_MSG(popularity.size() == spec.total_tapes(),
                     "compute_tape_popularity() must run first");
  const std::uint32_t d = spec.library.drives_per_library;
  const std::uint32_t t = spec.library.tapes_per_library;
  for (std::uint32_t lib = 0; lib < spec.num_libraries; ++lib) {
    std::vector<std::uint32_t> slots(t);
    for (std::uint32_t s = 0; s < t; ++s) slots[s] = lib * t + s;
    std::sort(slots.begin(), slots.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (popularity[a] != popularity[b])
                  return popularity[a] > popularity[b];
                return a < b;
              });
    for (std::uint32_t i = 0; i < d; ++i) {
      plan.mount_policy.initial_mounts.emplace_back(DriveId{lib * d + i},
                                                    TapeId{slots[i]});
    }
  }
}

std::vector<ObjectId> organ_pipe_order(std::span<const ObjectId> members,
                                       const workload::Workload& workload) {
  std::vector<ObjectId> by_prob{members.begin(), members.end()};
  std::sort(by_prob.begin(), by_prob.end(), [&](ObjectId a, ObjectId b) {
    const double pa = workload.object_probability(a);
    const double pb = workload.object_probability(b);
    if (pa != pb) return pa > pb;
    return a < b;
  });
  // Most popular first; alternate sides so it ends up in the middle.
  std::deque<ObjectId> arrangement;
  bool to_back = true;
  for (const ObjectId o : by_prob) {
    if (to_back) {
      arrangement.push_back(o);
    } else {
      arrangement.push_front(o);
    }
    to_back = !to_back;
  }
  return {arrangement.begin(), arrangement.end()};
}

}  // namespace tapesim::core
