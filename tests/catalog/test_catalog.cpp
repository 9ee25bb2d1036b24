#include "catalog/catalog.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "util/rng.hpp"

namespace tapesim::catalog {
namespace {

ObjectRecord record(std::uint32_t obj, Bytes size, std::uint32_t tape,
                    Bytes offset) {
  return ObjectRecord{ObjectId{obj}, size, LibraryId{tape / 80},
                      TapeId{tape}, offset};
}

TEST(Catalog, InsertAndLookup) {
  ObjectCatalog cat(240);
  EXPECT_TRUE(cat.insert(record(1, 10_GB, 3, Bytes{0})));
  const ObjectRecord* rec = cat.lookup(ObjectId{1});
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->size, 10_GB);
  EXPECT_EQ(rec->tape, TapeId{3});
  EXPECT_EQ(rec->offset, Bytes{0});
  EXPECT_EQ(rec->end_offset(), 10_GB);
  EXPECT_EQ(cat.lookup(ObjectId{2}), nullptr);
  EXPECT_EQ(cat.object_count(), 1u);
}

TEST(Catalog, RejectsDuplicateObject) {
  ObjectCatalog cat(240);
  EXPECT_TRUE(cat.insert(record(1, 1_GB, 0, Bytes{0})));
  EXPECT_FALSE(cat.insert(record(1, 2_GB, 1, Bytes{0})));
  EXPECT_EQ(cat.object_count(), 1u);
  EXPECT_EQ(cat.lookup(ObjectId{1})->tape, TapeId{0});
}

TEST(Catalog, ExtentsAreSortedByOffset) {
  ObjectCatalog cat(240);
  // Insert out of offset order.
  cat.insert(record(1, 1_GB, 5, 10_GB));
  cat.insert(record(2, 1_GB, 5, Bytes{0}));
  cat.insert(record(3, 1_GB, 5, 5_GB));
  const auto extents = cat.extents_on(TapeId{5});
  ASSERT_EQ(extents.size(), 3u);
  EXPECT_EQ(extents[0].object, ObjectId{2});
  EXPECT_EQ(extents[1].object, ObjectId{3});
  EXPECT_EQ(extents[2].object, ObjectId{1});
}

TEST(Catalog, UsedBytesPerTape) {
  ObjectCatalog cat(240);
  cat.insert(record(1, 3_GB, 7, Bytes{0}));
  cat.insert(record(2, 4_GB, 7, 3_GB));
  cat.insert(record(3, 5_GB, 8, Bytes{0}));
  EXPECT_EQ(cat.used_on(TapeId{7}), 7_GB);
  EXPECT_EQ(cat.used_on(TapeId{8}), 5_GB);
  EXPECT_EQ(cat.used_on(TapeId{9}), 0_B);
}

TEST(Catalog, EmptyTapeHasNoExtents) {
  ObjectCatalog cat(240);
  EXPECT_TRUE(cat.extents_on(TapeId{0}).empty());
}

TEST(Catalog, ValidatePassesOnConsistentData) {
  ObjectCatalog cat(240);
  Bytes offset{0};
  for (std::uint32_t i = 0; i < 100; ++i) {
    cat.insert(record(i, 1_GB, i % 10, offset));
    if (i % 10 == 9) offset += 1_GB;
  }
  cat.validate(400_GB);
}

TEST(CatalogDeath, ValidateCatchesOverlap) {
  ObjectCatalog cat(240);
  cat.insert(record(1, 10_GB, 0, Bytes{0}));
  cat.insert(record(2, 10_GB, 0, 5_GB));  // overlaps object 1
  EXPECT_DEATH(cat.validate(400_GB), "overlap");
}

TEST(CatalogDeath, ValidateCatchesCapacityOverflow) {
  ObjectCatalog cat(240);
  cat.insert(record(1, 399_GB, 0, Bytes{0}));
  cat.insert(record(2, 2_GB, 0, 399_GB));
  EXPECT_DEATH(cat.validate(400_GB), "capacity");
}

TEST(CatalogDeath, InvalidIdsAbort) {
  ObjectCatalog cat(240);
  EXPECT_DEATH(cat.insert(ObjectRecord{ObjectId{}, 1_GB, LibraryId{0},
                                       TapeId{0}, Bytes{0}}),
               "valid");
  EXPECT_DEATH(cat.insert(record(1, 1_GB, 999, Bytes{0})), "range");
}

TEST(Catalog, EqualsComparesFullState) {
  ObjectCatalog a(240);
  ObjectCatalog b(240);
  EXPECT_TRUE(a.equals(b));
  a.insert(record(1, 1_GB, 0, Bytes{0}));
  EXPECT_FALSE(a.equals(b));
  b.insert(record(1, 1_GB, 0, Bytes{0}));
  EXPECT_TRUE(a.equals(b));
  // Replica sets, health, and retirement all participate.
  a.insert_replica(record(1, 1_GB, 5, Bytes{0}));
  EXPECT_FALSE(a.equals(b));
  b.insert_replica(record(1, 1_GB, 5, Bytes{0}));
  EXPECT_TRUE(a.equals(b));
  a.set_tape_health(TapeId{5}, ReplicaHealth::kDegraded);
  EXPECT_FALSE(a.equals(b));
  b.set_tape_health(TapeId{5}, ReplicaHealth::kDegraded);
  EXPECT_TRUE(a.equals(b));
  a.retire_tape(TapeId{5});
  EXPECT_FALSE(a.equals(b));
  b.retire_tape(TapeId{5});
  EXPECT_TRUE(a.equals(b));
}

TEST(Catalog, EqualsSeesFieldLevelDivergence) {
  ObjectCatalog a(240);
  ObjectCatalog b(240);
  a.insert(record(1, 2_GB, 3, Bytes{0}));
  b.insert(record(1, 2_GB, 3, 1_GB));  // same object, different offset
  EXPECT_FALSE(a.equals(b));
}

TEST(Catalog, ForEachPrimaryVisitsInAscendingIdOrder) {
  ObjectCatalog cat(240);
  cat.insert(record(30, 1_GB, 0, Bytes{0}));
  cat.insert(record(10, 1_GB, 1, Bytes{0}));
  cat.insert(record(20, 1_GB, 2, Bytes{0}));
  std::vector<std::uint32_t> seen;
  cat.for_each_primary(
      [&](const ObjectRecord& rec) { seen.push_back(rec.object.value()); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{10, 20, 30}));
}

TEST(Catalog, ManyTapesScale) {
  ObjectCatalog cat(1000);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(cat.insert(ObjectRecord{
        ObjectId{i}, Bytes{1000}, LibraryId{0}, TapeId{i % 1000},
        Bytes{(i / 1000) * 1000}}));
  }
  EXPECT_EQ(cat.object_count(), 5000u);
  cat.validate(Bytes{100000});
  EXPECT_EQ(cat.extents_on(TapeId{0}).size(), 5u);
}

TEST(Catalog, EqualsIgnoresTableSize) {
  // Crash recovery compares a replayed catalog, grown insert by insert,
  // with the live one, presized from the plan: equal contents must compare
  // equal whatever the table lengths.
  auto fill = [](ObjectCatalog& cat, Bytes last_offset) {
    for (std::uint32_t i = 0; i < 40; ++i) {
      const Bytes offset =
          i == 39 ? last_offset : Bytes{i * 1'000'000'000ULL};
      ASSERT_TRUE(cat.insert(record(3 * i, 1_GB, i % 4, offset)));
    }
    ASSERT_TRUE(cat.insert_replica(record(0, 1_GB, 7, Bytes{0})));
    ASSERT_TRUE(cat.insert_replica(record(30, 1_GB, 8, Bytes{0})));
  };
  ObjectCatalog presized(240, 1000);
  fill(presized, 39_GB);
  ObjectCatalog grown(240);
  fill(grown, 39_GB);
  EXPECT_TRUE(presized.equals(grown));
  EXPECT_TRUE(grown.equals(presized));

  ObjectCatalog shifted(240);
  fill(shifted, 40_GB);  // one primary's offset differs
  EXPECT_FALSE(presized.equals(shifted));
  EXPECT_FALSE(shifted.equals(presized));
}

TEST(Catalog, LookupPastTheEndIsAbsent) {
  ObjectCatalog cat(240, 10);
  ASSERT_TRUE(cat.insert(record(3, 1_GB, 0, Bytes{0})));
  EXPECT_EQ(cat.lookup(ObjectId{10}), nullptr);
  EXPECT_FALSE(cat.contains(ObjectId{10}));
  // Growing the table to reach this id would take 2^32 slots.
  EXPECT_EQ(cat.lookup(ObjectId{ObjectId::kInvalid - 1}), nullptr);
  EXPECT_FALSE(cat.contains(ObjectId{ObjectId::kInvalid - 1}));
  EXPECT_EQ(cat.lookup(ObjectId{}), nullptr);
  EXPECT_EQ(cat.object_count(), 1u);
  EXPECT_EQ(cat.copy_count(ObjectId{10}), 0u);
  cat.validate(400_GB);
}

/// Randomized differential test of the primary index and the replica
/// lists against std::map, over presized and unsized tables.
class CatalogOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CatalogOracle, MatchesStdMap) {
  constexpr std::uint32_t kTapes = 16;
  constexpr std::uint64_t kIds = 600;
  Rng rng{GetParam()};
  // Ids past the presized end (and every id of an unsized table) grow it.
  const auto presized = static_cast<std::size_t>(rng.uniform_below(kIds));
  ObjectCatalog cat(kTapes, presized);
  std::map<std::uint32_t, ObjectRecord> primaries;
  std::map<std::uint32_t, std::vector<ObjectRecord>> copies;

  // An object's offset derives from its id, so no two extents on a tape
  // overlap however the draws land.
  auto draw = [&](std::uint32_t id) {
    const auto tape = static_cast<std::uint32_t>(rng.uniform_below(kTapes));
    const Bytes size{rng.uniform() < 0.1 ? 2u : 1u};
    return ObjectRecord{ObjectId{id}, size, LibraryId{tape / 8}, TapeId{tape},
                        Bytes{id * 1'000'000ULL}};
  };
  auto replica_accepted = [&](const ObjectRecord& rec) {
    const auto it = primaries.find(rec.object.value());
    if (it == primaries.end()) return false;
    if (it->second.size != rec.size || it->second.tape == rec.tape) {
      return false;
    }
    for (const ObjectRecord& copy : copies[rec.object.value()]) {
      if (copy.tape == rec.tape) return false;
    }
    return true;
  };

  for (int step = 0; step < 4000; ++step) {
    const double action = rng.uniform();
    // Probes range over twice the id space, so about half miss the table.
    const auto id = static_cast<std::uint32_t>(
        rng.uniform_below(action < 0.55 ? kIds : 2 * kIds));
    if (action < 0.35) {
      const ObjectRecord rec = draw(id);
      EXPECT_EQ(cat.insert(rec), primaries.emplace(id, rec).second);
    } else if (action < 0.55) {
      const ObjectRecord rec = draw(id);
      const bool accepted = replica_accepted(rec);
      EXPECT_EQ(cat.insert_replica(rec), accepted);
      if (accepted) copies[id].push_back(rec);
    } else if (action < 0.8) {
      const ObjectRecord* found = cat.lookup(ObjectId{id});
      const auto it = primaries.find(id);
      if (it == primaries.end()) {
        EXPECT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, it->second);
      }
    } else {
      EXPECT_EQ(cat.contains(ObjectId{id}), primaries.count(id) == 1);
    }
    ASSERT_EQ(cat.object_count(), primaries.size());
  }

  auto it = primaries.begin();
  cat.for_each_primary([&](const ObjectRecord& rec) {
    ASSERT_NE(it, primaries.end());
    EXPECT_EQ(rec, it->second);
    ++it;
  });
  EXPECT_EQ(it, primaries.end());
  std::size_t replica_total = 0;
  for (const auto& [id, list] : copies) {
    const std::span<const ObjectRecord> got = cat.replicas(ObjectId{id});
    EXPECT_TRUE(std::equal(got.begin(), got.end(), list.begin(), list.end()));
    replica_total += list.size();
  }
  EXPECT_EQ(cat.replica_count(), replica_total);
  cat.validate(1_GB);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CatalogOracle,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace tapesim::catalog
