#include "tape/system.hpp"

#include <gtest/gtest.h>

namespace tapesim::tape {
namespace {

struct SystemFixture : ::testing::Test {
  sim::Engine engine;
  SystemSpec spec = SystemSpec::paper_default();
};

TEST_F(SystemFixture, ConstructsAllLibrariesAndDrives) {
  TapeSystem sys(spec, engine);
  EXPECT_EQ(sys.num_libraries(), 3u);
  for (std::uint32_t lib = 0; lib < 3; ++lib) {
    EXPECT_EQ(sys.library(LibraryId{lib}).drive_count(), 8u);
    EXPECT_EQ(sys.library(LibraryId{lib}).tape_count(), 80u);
  }
}

TEST_F(SystemFixture, GlobalIdMappingIsDense) {
  TapeSystem sys(spec, engine);
  // Drive 13 lives in library 1 (13 / 8) at local index 5.
  EXPECT_EQ(sys.library_of_drive(DriveId{13}), LibraryId{1});
  EXPECT_EQ(sys.library(LibraryId{1}).drive_id(5), DriveId{13});
  // Tape 170 lives in library 2 (170 / 80) at slot 10.
  EXPECT_EQ(sys.library_of_tape(TapeId{170}), LibraryId{2});
  EXPECT_EQ(sys.library(LibraryId{2}).tape_id(10), TapeId{170});
}

TEST_F(SystemFixture, OwnershipPredicates) {
  TapeSystem sys(spec, engine);
  const TapeLibrary& lib1 = sys.library(LibraryId{1});
  EXPECT_TRUE(lib1.owns_drive(DriveId{8}));
  EXPECT_TRUE(lib1.owns_drive(DriveId{15}));
  EXPECT_FALSE(lib1.owns_drive(DriveId{7}));
  EXPECT_FALSE(lib1.owns_drive(DriveId{16}));
  EXPECT_TRUE(lib1.owns_tape(TapeId{80}));
  EXPECT_TRUE(lib1.owns_tape(TapeId{159}));
  EXPECT_FALSE(lib1.owns_tape(TapeId{79}));
  EXPECT_FALSE(lib1.owns_tape(TapeId{160}));
}

TEST_F(SystemFixture, DriveAccessorReturnsTheSameObject) {
  TapeSystem sys(spec, engine);
  TapeDrive& d = sys.drive(DriveId{9});
  EXPECT_EQ(d.id(), DriveId{9});
  EXPECT_EQ(&d, &sys.library(LibraryId{1}).drive(DriveId{9}));
}

TEST_F(SystemFixture, MountBookkeeping) {
  TapeSystem sys(spec, engine);
  EXPECT_FALSE(sys.is_mounted(TapeId{5}));
  sys.setup_mount(TapeId{5}, DriveId{2});
  EXPECT_TRUE(sys.is_mounted(TapeId{5}));
  ASSERT_TRUE(sys.drive_holding(TapeId{5}).has_value());
  EXPECT_EQ(*sys.drive_holding(TapeId{5}), DriveId{2});
  EXPECT_EQ(sys.drive(DriveId{2}).mounted(), TapeId{5});
  EXPECT_TRUE(sys.drive(DriveId{2}).idle());

  sys.note_unmounted(TapeId{5});
  EXPECT_FALSE(sys.is_mounted(TapeId{5}));
}

TEST_F(SystemFixture, RobotsAreIndependentResources) {
  TapeSystem sys(spec, engine);
  sim::Resource& r0 = sys.library(LibraryId{0}).robot();
  sim::Resource& r1 = sys.library(LibraryId{1}).robot();
  EXPECT_NE(&r0, &r1);
  EXPECT_EQ(r0.name(), "robot[lib0]");
  EXPECT_EQ(r1.name(), "robot[lib1]");
}

TEST_F(SystemFixture, RobotTimingHelpers) {
  TapeSystem sys(spec, engine);
  const TapeLibrary& lib = sys.library(LibraryId{0});
  EXPECT_DOUBLE_EQ(lib.robot_move_time().count(), 7.6);
  EXPECT_DOUBLE_EQ(lib.robot_exchange_time().count(), 15.2);
}

using SystemDeath = SystemFixture;

TEST_F(SystemDeath, CrossLibraryMountAborts) {
  TapeSystem sys(spec, engine);
  // Tape 0 belongs to library 0; drive 8 belongs to library 1.
  EXPECT_DEATH(sys.setup_mount(TapeId{0}, DriveId{8}), "own library");
}

TEST_F(SystemDeath, DoubleMountAborts) {
  TapeSystem sys(spec, engine);
  sys.setup_mount(TapeId{5}, DriveId{0});
  EXPECT_DEATH(sys.note_mounted(TapeId{5}, DriveId{1}), "already mounted");
  EXPECT_DEATH(sys.setup_mount(TapeId{6}, DriveId{0}), "empty");
}

TEST_F(SystemDeath, UnmountOfUnmountedAborts) {
  TapeSystem sys(spec, engine);
  EXPECT_DEATH(sys.note_unmounted(TapeId{3}), "not mounted");
}

// The id accessors check their argument in every build; an invalid id and
// the first id past the fleet both abort instead of indexing out of range.
TEST_F(SystemDeath, OutOfRangeIdsAbort) {
  TapeSystem sys(spec, engine);
  const TapeSystem& csys = sys;
  const LibraryId past_lib{spec.num_libraries};
  const DriveId past_drive{spec.total_drives()};
  const TapeId past_tape{spec.total_tapes()};
  for (const LibraryId l : {LibraryId{}, past_lib}) {
    EXPECT_DEATH((void)sys.library(l), "invariant violated");
    EXPECT_DEATH((void)csys.library(l), "invariant violated");
  }
  for (const DriveId d : {DriveId{}, past_drive}) {
    EXPECT_DEATH((void)sys.library_of_drive(d), "invariant violated");
    EXPECT_DEATH((void)sys.drive(d), "invariant violated");
    EXPECT_DEATH((void)csys.drive(d), "invariant violated");
  }
  for (const TapeId t : {TapeId{}, past_tape}) {
    EXPECT_DEATH((void)sys.library_of_tape(t), "invariant violated");
    EXPECT_DEATH((void)sys.drive_holding(t), "invariant violated");
  }
  // A library hands out only its own drives: drive 8 is library 1's first.
  TapeLibrary& lib0 = sys.library(LibraryId{0});
  const TapeLibrary& clib0 = lib0;
  EXPECT_DEATH((void)lib0.drive(DriveId{8}), "does not belong");
  EXPECT_DEATH((void)clib0.drive(DriveId{8}), "does not belong");
  EXPECT_DEATH((void)lib0.drive(DriveId{}), "does not belong");
}

TEST_F(SystemFixture, SingleLibrarySystem) {
  spec.num_libraries = 1;
  TapeSystem sys(spec, engine);
  EXPECT_EQ(sys.num_libraries(), 1u);
  EXPECT_EQ(sys.library_of_drive(DriveId{7}), LibraryId{0});
  EXPECT_EQ(sys.library_of_tape(TapeId{79}), LibraryId{0});
}

}  // namespace
}  // namespace tapesim::tape
