// The object indexing database.
//
// Maps every object to its physical location (library, tape, byte offset)
// and size. The retrieval scheduler resolves each incoming request through
// this catalog, exactly as the paper's simulator does ("given a request,
// the corresponding tapes are identified based on the object indexing
// database"). Primary index: a table with one slot per object id. Ids are
// dense indices assigned by the workload generator (0 .. N-1), so a table
// built from a placement plan has no holes, and a lookup is one bounds
// check and one load. Secondary index: per-tape extent lists, kept sorted
// by offset for seek-order optimization.
//
// Redundancy: an object may carry additional replica records (each on a
// distinct tape). The catalog also tracks per-tape media health, synced
// from the fault model's cartridge escalations, so the scheduler and the
// background repair process can ask for the best surviving copy.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/ids.hpp"
#include "util/units.hpp"

namespace tapesim::catalog {

/// Media condition of one tape as the catalog tracks it (mirrors
/// tape::CartridgeHealth without depending on the tape module): every copy
/// on the tape shares this health.
enum class ReplicaHealth : std::uint8_t {
  kGood,
  kDegraded,  ///< Elevated error rate; copy at risk but readable.
  kLost,      ///< Data unrecoverable; copies on this tape do not count.
};

[[nodiscard]] const char* to_string(ReplicaHealth h);

/// Full location record for one object.
struct ObjectRecord {
  ObjectId object;
  Bytes size;
  LibraryId library;
  TapeId tape;
  Bytes offset;  ///< Distance of the object's first byte from BOT.

  [[nodiscard]] Bytes end_offset() const { return offset + size; }

  friend bool operator==(const ObjectRecord&, const ObjectRecord&) = default;
};

/// One object's extent on a tape, as stored in the secondary index.
struct TapeExtent {
  ObjectId object;
  Bytes offset;
  Bytes size;

  friend bool operator==(const TapeExtent&, const TapeExtent&) = default;
};

class ObjectCatalog {
 public:
  /// `total_tapes` sizes the secondary index (global tape id space);
  /// `object_slots` sizes the primary table (object id space). Inserting an
  /// id at or past `object_slots` grows the table.
  explicit ObjectCatalog(std::uint32_t total_tapes,
                         std::size_t object_slots = 0);

  /// Registers an object's location. Returns false if the object id is
  /// already present (each object is placed exactly once — no striping).
  /// An insert that grows the primary table invalidates every pointer
  /// returned by lookup() and best_replica() and every record reference
  /// handed out by for_each_primary().
  bool insert(const ObjectRecord& record);

  /// Registers an additional copy of an already-inserted object. The
  /// primary record must exist, the sizes must agree, and the copy must
  /// live on a tape distinct from every existing copy. Returns false when
  /// any precondition fails (nothing is modified).
  bool insert_replica(const ObjectRecord& record);

  /// Primary lookup; nullptr when absent, including ids past the end of
  /// the table (the table does not grow). The pointer stays valid until an
  /// insert() grows the table.
  [[nodiscard]] const ObjectRecord* lookup(ObjectId id) const {
    if (id.index() >= primary_.size()) return nullptr;
    const ObjectRecord& rec = primary_[id.index()];
    return rec.object.valid() ? &rec : nullptr;
  }
  [[nodiscard]] bool contains(ObjectId id) const {
    return lookup(id) != nullptr;
  }

  /// Extra copies of `id` in insertion order (primary excluded); empty when
  /// the object has none. Invalidated by insert_replica().
  [[nodiscard]] std::span<const ObjectRecord> replicas(ObjectId id) const;
  /// Total copies of `id` (primary + replicas); 0 when absent.
  [[nodiscard]] std::size_t copy_count(ObjectId id) const;
  [[nodiscard]] bool has_replicas() const { return replica_total_ > 0; }
  [[nodiscard]] std::size_t replica_count() const { return replica_total_; }

  /// Per-tape media health, synced from fault escalations. Health only
  /// escalates (Good -> Degraded -> Lost); attempts to improve are ignored.
  void set_tape_health(TapeId tape, ReplicaHealth health);
  [[nodiscard]] ReplicaHealth tape_health(TapeId tape) const;

  /// Marks `tape` retired: its objects were evacuated elsewhere, so its
  /// copies no longer count as live and best_replica skips them. One-way,
  /// like health escalation. The extent records stay (the physical bytes
  /// are still on the cartridge); the scheduler just never routes to them.
  void retire_tape(TapeId tape);
  [[nodiscard]] bool tape_retired(TapeId tape) const;

  /// The best surviving copy of `id`: copies on Lost or retired tapes, on
  /// tapes in `exclude`, and in libraries in `exclude_libraries` (downed
  /// fault domains) are skipped; Good health beats Degraded, and the
  /// primary wins ties (then replica insertion order). nullptr when no copy
  /// survives. A pointer to the primary is invalidated by an insert() that
  /// grows the table (as for lookup()); a pointer to a replica by the next
  /// insert_replica() of `id`.
  [[nodiscard]] const ObjectRecord* best_replica(
      ObjectId id, std::span<const TapeId> exclude = {},
      std::span<const LibraryId> exclude_libraries = {}) const;

  /// All extents on `tape`, sorted by offset. Invalidated by insert().
  [[nodiscard]] std::span<const TapeExtent> extents_on(TapeId tape) const;

  /// Bytes occupied on `tape`.
  [[nodiscard]] Bytes used_on(TapeId tape) const;

  [[nodiscard]] std::size_t object_count() const { return object_count_; }
  [[nodiscard]] std::uint32_t tape_count() const {
    return static_cast<std::uint32_t>(by_tape_.size());
  }

  /// Visits every primary record in ascending object-id order (table
  /// order, skipping holes); snapshot capture and state comparison walk
  /// this. The visitor must not insert: an insert that grows the table
  /// invalidates the records being walked.
  template <typename Visitor>
  void for_each_primary(Visitor&& visit) const {
    for (const ObjectRecord& rec : primary_) {
      if (rec.object.valid()) visit(rec);
    }
  }

  /// Field-by-field state equality: primaries, per-object replica lists
  /// (insertion order included — best_replica tie-breaks on it), per-tape
  /// extents and usage, health, and retirements. The crash-recovery
  /// invariant ("replayed catalog exactly equals the never-crashed
  /// catalog") is asserted through this. Compares contents only: a catalog
  /// grown by inserts equals a presized one holding the same records.
  [[nodiscard]] bool equals(const ObjectCatalog& other) const;

  /// Verifies global consistency: extents sorted, non-overlapping, within
  /// `tape_capacity`; primary and secondary agree; every primary record
  /// sits in its own slot and the record count matches. Aborts on
  /// violation.
  void validate(Bytes tape_capacity) const;

 private:
  /// Keeps a tape's extent list sorted after an insertion at the back.
  void restore_order(TapeId tape);

  /// Primary records by object index; an invalid `object` marks a hole.
  std::vector<ObjectRecord> primary_;
  std::size_t object_count_ = 0;
  std::vector<std::vector<TapeExtent>> by_tape_;
  std::vector<Bytes> used_;
  /// Extra copies keyed by object id value; absent for unreplicated objects.
  std::unordered_map<std::uint32_t, std::vector<ObjectRecord>> replicas_;
  std::size_t replica_total_ = 0;
  std::vector<ReplicaHealth> health_;  ///< by tape index
  std::vector<bool> retired_;          ///< by tape index
};

}  // namespace tapesim::catalog
