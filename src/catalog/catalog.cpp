#include "catalog/catalog.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace tapesim::catalog {

const char* to_string(ReplicaHealth h) {
  switch (h) {
    case ReplicaHealth::kGood: return "good";
    case ReplicaHealth::kDegraded: return "degraded";
    case ReplicaHealth::kLost: return "lost";
  }
  return "?";
}

ObjectCatalog::ObjectCatalog(std::uint32_t total_tapes,
                             std::size_t object_slots)
    : primary_(object_slots),
      by_tape_(total_tapes),
      used_(total_tapes),
      health_(total_tapes, ReplicaHealth::kGood),
      retired_(total_tapes, false) {}

bool ObjectCatalog::insert(const ObjectRecord& record) {
  TAPESIM_ASSERT_MSG(record.object.valid(), "object id must be valid");
  TAPESIM_ASSERT_MSG(record.tape.valid() &&
                         record.tape.index() < by_tape_.size(),
                     "tape id out of range");
  const std::size_t slot = record.object.index();
  if (slot >= primary_.size()) primary_.resize(slot + 1);
  if (primary_[slot].object.valid()) return false;
  primary_[slot] = record;
  ++object_count_;
  by_tape_[record.tape.index()].push_back(
      TapeExtent{record.object, record.offset, record.size});
  restore_order(record.tape);
  used_[record.tape.index()] += record.size;
  return true;
}

bool ObjectCatalog::insert_replica(const ObjectRecord& record) {
  TAPESIM_ASSERT_MSG(record.object.valid(), "object id must be valid");
  TAPESIM_ASSERT_MSG(record.tape.valid() &&
                         record.tape.index() < by_tape_.size(),
                     "tape id out of range");
  const ObjectRecord* primary = lookup(record.object);
  if (primary == nullptr) return false;
  if (primary->size != record.size) return false;
  if (primary->tape == record.tape) return false;
  auto it = replicas_.find(record.object.value());
  if (it != replicas_.end()) {
    for (const auto& copy : it->second) {
      if (copy.tape == record.tape) return false;
    }
  }
  replicas_[record.object.value()].push_back(record);
  ++replica_total_;
  by_tape_[record.tape.index()].push_back(
      TapeExtent{record.object, record.offset, record.size});
  restore_order(record.tape);
  used_[record.tape.index()] += record.size;
  return true;
}

std::span<const ObjectRecord> ObjectCatalog::replicas(ObjectId id) const {
  auto it = replicas_.find(id.value());
  if (it == replicas_.end()) return {};
  return it->second;
}

std::size_t ObjectCatalog::copy_count(ObjectId id) const {
  if (!contains(id)) return 0;
  return 1 + replicas(id).size();
}

void ObjectCatalog::set_tape_health(TapeId tape, ReplicaHealth health) {
  TAPESIM_ASSERT(tape.valid() && tape.index() < health_.size());
  auto& slot = health_[tape.index()];
  if (health > slot) slot = health;  // escalate-only
}

ReplicaHealth ObjectCatalog::tape_health(TapeId tape) const {
  TAPESIM_ASSERT(tape.valid() && tape.index() < health_.size());
  return health_[tape.index()];
}

void ObjectCatalog::retire_tape(TapeId tape) {
  TAPESIM_ASSERT(tape.valid() && tape.index() < retired_.size());
  retired_[tape.index()] = true;
}

bool ObjectCatalog::tape_retired(TapeId tape) const {
  TAPESIM_ASSERT(tape.valid() && tape.index() < retired_.size());
  return retired_[tape.index()];
}

const ObjectRecord* ObjectCatalog::best_replica(
    ObjectId id, std::span<const TapeId> exclude,
    std::span<const LibraryId> exclude_libraries) const {
  const ObjectRecord* best = nullptr;
  auto excluded = [&](TapeId t) {
    return std::find(exclude.begin(), exclude.end(), t) != exclude.end();
  };
  auto excluded_library = [&](LibraryId l) {
    return std::find(exclude_libraries.begin(), exclude_libraries.end(), l) !=
           exclude_libraries.end();
  };
  auto consider = [&](const ObjectRecord& copy) {
    if (excluded(copy.tape)) return;
    if (excluded_library(copy.library)) return;
    if (retired_[copy.tape.index()]) return;
    ReplicaHealth h = tape_health(copy.tape);
    if (h == ReplicaHealth::kLost) return;
    // Good beats Degraded; earlier copy (primary first) wins ties.
    if (best == nullptr || h < tape_health(best->tape)) best = &copy;
  };
  if (const ObjectRecord* primary = lookup(id)) consider(*primary);
  for (const auto& copy : replicas(id)) consider(copy);
  return best;
}

void ObjectCatalog::restore_order(TapeId tape) {
  auto& extents = by_tape_[tape.index()];
  // Placements append mostly in offset order; a single insertion-sort step
  // keeps this amortized O(1) for that common case.
  for (std::size_t i = extents.size(); i > 1; --i) {
    if (extents[i - 2].offset <= extents[i - 1].offset) break;
    std::swap(extents[i - 2], extents[i - 1]);
  }
}

std::span<const TapeExtent> ObjectCatalog::extents_on(TapeId tape) const {
  TAPESIM_ASSERT(tape.valid() && tape.index() < by_tape_.size());
  return by_tape_[tape.index()];
}

Bytes ObjectCatalog::used_on(TapeId tape) const {
  TAPESIM_ASSERT(tape.valid() && tape.index() < used_.size());
  return used_[tape.index()];
}

bool ObjectCatalog::equals(const ObjectCatalog& other) const {
  if (object_count_ != other.object_count_) return false;
  if (replica_total_ != other.replica_total_) return false;
  if (used_ != other.used_) return false;
  if (health_ != other.health_) return false;
  if (retired_ != other.retired_) return false;
  if (by_tape_ != other.by_tape_) return false;
  bool equal = true;
  for_each_primary([&](const ObjectRecord& rec) {
    if (!equal) return;
    const ObjectRecord* theirs = other.lookup(rec.object);
    if (theirs == nullptr || !(*theirs == rec)) {
      equal = false;
      return;
    }
    const std::span<const ObjectRecord> mine = replicas(rec.object);
    const std::span<const ObjectRecord> peers = other.replicas(rec.object);
    if (mine.size() != peers.size() ||
        !std::equal(mine.begin(), mine.end(), peers.begin())) {
      equal = false;
    }
  });
  return equal;
}

void ObjectCatalog::validate(Bytes tape_capacity) const {
  std::size_t secondary_total = 0;
  for (std::uint32_t t = 0; t < by_tape_.size(); ++t) {
    const auto& extents = by_tape_[t];
    Bytes used{};
    for (std::size_t i = 0; i < extents.size(); ++i) {
      const auto& e = extents[i];
      TAPESIM_ASSERT_MSG(e.offset + e.size <= tape_capacity,
                         "extent beyond tape capacity");
      if (i > 0) {
        TAPESIM_ASSERT_MSG(
            extents[i - 1].offset + extents[i - 1].size <= e.offset,
            "overlapping extents on one tape");
      }
      const ObjectRecord* rec = lookup(e.object);
      TAPESIM_ASSERT_MSG(rec != nullptr, "secondary entry missing primary");
      bool matched = rec->tape == TapeId{t} && rec->offset == e.offset &&
                     rec->size == e.size;
      if (!matched) {
        for (const auto& copy : replicas(e.object)) {
          if (copy.tape == TapeId{t} && copy.offset == e.offset &&
              copy.size == e.size) {
            matched = true;
            break;
          }
        }
      }
      TAPESIM_ASSERT_MSG(matched, "extent matches no copy of its object");
      used += e.size;
    }
    TAPESIM_ASSERT_MSG(used == used_[t], "per-tape usage bookkeeping drifted");
    secondary_total += extents.size();
  }
  TAPESIM_ASSERT_MSG(secondary_total == object_count_ + replica_total_,
                     "primary/secondary index cardinality mismatch");
  std::size_t present = 0;
  for (std::size_t i = 0; i < primary_.size(); ++i) {
    const ObjectId id = primary_[i].object;
    if (!id.valid()) continue;
    TAPESIM_ASSERT_MSG(id.index() == i, "primary record outside its slot");
    ++present;
  }
  TAPESIM_ASSERT_MSG(present == object_count_,
                     "primary record count drifted");
}

}  // namespace tapesim::catalog
