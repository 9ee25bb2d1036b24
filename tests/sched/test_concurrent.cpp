// Tests for the concurrent-request simulator: analytic micro-scenarios,
// consistency with the serial simulator at negligible load, and contention
// behavior under overlap.
#include "sched/concurrent.hpp"

#include <gtest/gtest.h>

#include "core/plan.hpp"
#include "exp/experiment.hpp"
#include "workload/model.hpp"

namespace tapesim::sched {
namespace {

using core::Alignment;
using core::PlacementPlan;
using core::ReplacementPolicy;
using workload::ObjectInfo;
using workload::Request;
using workload::Workload;

constexpr double kGBTransfer = 12.5;
constexpr double kGBLocate = 14.4;
constexpr double kLoad = 19.0;
constexpr double kMove = 7.6;

/// Same dollhouse as the serial tests: 1 library, 2 drives, 10 GB tapes.
struct Scenario {
  tape::SystemSpec spec;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<PlacementPlan> plan;

  Scenario() {
    spec.num_libraries = 1;
    spec.library.drives_per_library = 2;
    spec.library.tapes_per_library = 4;
    spec.library.tape_capacity = 10_GB;

    std::vector<ObjectInfo> objects{{ObjectId{0}, 2_GB},
                                    {ObjectId{1}, 3_GB},
                                    {ObjectId{2}, 4_GB},
                                    {ObjectId{3}, 1_GB},
                                    {ObjectId{4}, 2_GB}};
    std::vector<Request> requests;
    requests.push_back(Request{RequestId{0}, 0.2, {ObjectId{0}}});
    requests.push_back(Request{RequestId{1}, 0.2, {ObjectId{1}}});
    requests.push_back(Request{RequestId{2}, 0.2, {ObjectId{2}}});
    requests.push_back(Request{RequestId{3}, 0.2, {ObjectId{3}}});
    requests.push_back(Request{RequestId{4}, 0.2, {ObjectId{4}}});
    workload = std::make_unique<Workload>(std::move(objects),
                                          std::move(requests));

    plan = std::make_unique<PlacementPlan>(spec, *workload);
    plan->assign(ObjectId{0}, TapeId{0});
    plan->assign(ObjectId{1}, TapeId{0});
    plan->assign(ObjectId{2}, TapeId{1});
    plan->assign(ObjectId{3}, TapeId{2});
    plan->assign(ObjectId{4}, TapeId{3});
    plan->align_all(Alignment::kGivenOrder);
    plan->compute_tape_popularity();
    plan->mount_policy.replacement = ReplacementPolicy::kLeastPopular;
  }

  void mount(std::uint32_t drive, std::uint32_t tape) {
    plan->mount_policy.initial_mounts.emplace_back(DriveId{drive},
                                                   TapeId{tape});
  }
};

TEST(Concurrent, SingleArrivalMatchesSerialTiming) {
  Scenario s;
  s.mount(0, 0);
  ConcurrentSimulator sim(*s.plan);
  const Arrival arrivals[] = {{Seconds{5.0}, RequestId{0}}};
  const auto outcomes = sim.run(arrivals);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_DOUBLE_EQ(outcomes[0].arrival.count(), 5.0);
  EXPECT_DOUBLE_EQ(outcomes[0].sojourn().count(), 2 * kGBTransfer);
  EXPECT_EQ(outcomes[0].bytes, 2_GB);
}

TEST(Concurrent, OverlappingDemandOnOneTapeSharesOneDrive) {
  Scenario s;
  s.mount(0, 0);
  ConcurrentSimulator sim(*s.plan);
  // R0 (O0 @ 0, 2 GB) and R1 (O1 @ 2 GB, 3 GB) arrive together: one drive
  // serves both in offset order. R0 completes at 25 s; R1 at 25 + 37.5.
  const Arrival arrivals[] = {{Seconds{0.0}, RequestId{0}},
                              {Seconds{0.0}, RequestId{1}}};
  const auto outcomes = sim.run(arrivals);
  EXPECT_DOUBLE_EQ(outcomes[0].sojourn().count(), 2 * kGBTransfer);
  EXPECT_DOUBLE_EQ(outcomes[1].sojourn().count(), 5 * kGBTransfer);
}

TEST(Concurrent, DuplicateArrivalsShareOneRead) {
  Scenario s;
  s.mount(0, 0);
  ConcurrentSimulator sim(*s.plan);
  // While the drive is busy with R1, the same request R0 arrives twice.
  // Both pending instances merge into one outstanding demand, so a single
  // physical read credits both at the same instant.
  const Arrival arrivals[] = {{Seconds{0.0}, RequestId{1}},
                              {Seconds{1.0}, RequestId{0}},
                              {Seconds{2.0}, RequestId{0}}};
  const auto outcomes = sim.run(arrivals);
  const double r1_done = 2 * kGBLocate + 3 * kGBTransfer;  // 66.3
  const double r0_done = r1_done + 5 * kGBLocate + 2 * kGBTransfer;
  EXPECT_DOUBLE_EQ(outcomes[0].completion.count(), r1_done);
  EXPECT_DOUBLE_EQ(outcomes[1].completion.count(), r0_done);
  EXPECT_DOUBLE_EQ(outcomes[2].completion.count(), r0_done);
}

TEST(Concurrent, LateArrivalForServedObjectRereads) {
  Scenario s;
  s.mount(0, 0);
  ConcurrentSimulator sim(*s.plan);
  // Second R0 arrives after the first completed: the head is at 2 GB, the
  // drive must locate back and re-read.
  const Arrival arrivals[] = {{Seconds{0.0}, RequestId{0}},
                              {Seconds{100.0}, RequestId{0}}};
  const auto outcomes = sim.run(arrivals);
  EXPECT_DOUBLE_EQ(outcomes[0].completion.count(), 25.0);
  EXPECT_DOUBLE_EQ(outcomes[1].sojourn().count(),
                   2 * kGBLocate + 2 * kGBTransfer);
}

TEST(Concurrent, IndependentTapesServeInParallel) {
  Scenario s;
  s.mount(0, 0);
  s.mount(1, 1);
  ConcurrentSimulator sim(*s.plan);
  // R0 on T0/drive0 and R2 on T1/drive1 overlap fully.
  const Arrival arrivals[] = {{Seconds{0.0}, RequestId{0}},
                              {Seconds{0.0}, RequestId{2}}};
  const auto outcomes = sim.run(arrivals);
  EXPECT_DOUBLE_EQ(outcomes[0].sojourn().count(), 2 * kGBTransfer);
  EXPECT_DOUBLE_EQ(outcomes[1].sojourn().count(), 4 * kGBTransfer);
  EXPECT_DOUBLE_EQ(sim.makespan().count(), 4 * kGBTransfer);
}

TEST(Concurrent, OfflineTapeFetchedByFreeDrive) {
  Scenario s;
  s.mount(0, 0);  // drive 1 empty; T2 offline
  ConcurrentSimulator sim(*s.plan);
  const Arrival arrivals[] = {{Seconds{0.0}, RequestId{3}}};
  const auto outcomes = sim.run(arrivals);
  EXPECT_DOUBLE_EQ(outcomes[0].sojourn().count(),
                   kMove + kLoad + 1 * kGBTransfer);
  EXPECT_EQ(sim.total_switches(), 1u);
}

TEST(Concurrent, QueuedRequestWaitsForBusyDrive) {
  Scenario s;
  s.mount(0, 0);
  // Make drive 1 pinned-empty impossible: pin it so only drive 0 works.
  s.plan->mount_policy.replacement = ReplacementPolicy::kFixedBatch;
  s.plan->mount_policy.drive_pinned.assign(2, false);
  s.plan->mount_policy.drive_pinned[1] = true;
  ConcurrentSimulator sim(*s.plan);
  // R1 (3 GB on T0) starts at t=0; R0 (2 GB @ 0 on T0) arrives mid-service
  // at t=10: the drive finishes O1 (ends 2+3=5 GB at t = locate(0->2)=28.8
  // + 37.5 = 66.3), then locates back for O0.
  const Arrival arrivals[] = {{Seconds{0.0}, RequestId{1}},
                              {Seconds{10.0}, RequestId{0}}};
  const auto outcomes = sim.run(arrivals);
  const double r1_done = 2 * kGBLocate + 3 * kGBTransfer;
  EXPECT_DOUBLE_EQ(outcomes[0].completion.count(), r1_done);
  EXPECT_DOUBLE_EQ(outcomes[1].completion.count(),
                   r1_done + 5 * kGBLocate + 2 * kGBTransfer);
}

TEST(Concurrent, PoissonArrivalsAreSortedAndDeterministic) {
  Scenario s;
  const workload::RequestSampler sampler(*s.workload);
  Rng rng1{11};
  Rng rng2{11};
  const auto a = poisson_arrivals(sampler, 0.01, 200, rng1);
  const auto b = poisson_arrivals(sampler, 0.01, 200, rng2);
  ASSERT_EQ(a.size(), 200u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time.count(), b[i].time.count());
    EXPECT_EQ(a[i].request, b[i].request);
    if (i > 0) {
      EXPECT_GE(a[i].time.count(), a[i - 1].time.count());
    }
  }
  // Mean inter-arrival ~ 1/rate.
  EXPECT_NEAR(a.back().time.count() / 200.0, 100.0, 25.0);
}

TEST(Concurrent, LowLoadSojournMatchesSerialResponse) {
  // At vanishing load the concurrent simulator must agree with the serial
  // one on a real placement (same plan, same request, fresh state).
  exp::ExperimentConfig config;
  config.spec.num_libraries = 2;
  config.spec.library.drives_per_library = 4;
  config.spec.library.tapes_per_library = 12;
  config.spec.library.tape_capacity = 40_GB;
  config.workload.num_objects = 1000;
  config.workload.num_requests = 30;
  config.workload.min_objects_per_request = 10;
  config.workload.max_objects_per_request = 20;
  config.workload.object_groups = 20;
  config.workload.min_object_size = Bytes{100ULL * 1000 * 1000};
  config.workload.max_object_size = 1_GB;
  const exp::Experiment experiment(config);
  const auto schemes = exp::make_standard_schemes(2);

  core::PlacementContext context{&experiment.workload(),
                                 &experiment.config().spec,
                                 &experiment.clusters()};
  const core::PlacementPlan plan = schemes.parallel_batch->place(context);

  RetrievalSimulator serial(plan);
  const auto serial_outcome = serial.run_request(RequestId{7});

  ConcurrentSimulator concurrent(plan);
  const Arrival arrivals[] = {{Seconds{0.0}, RequestId{7}}};
  const auto outcomes = concurrent.run(arrivals);
  // Policies differ slightly (per-extent nearest-first vs per-tape sweep),
  // so allow a small tolerance.
  EXPECT_NEAR(outcomes[0].sojourn().count(),
              serial_outcome.response.count(),
              0.15 * serial_outcome.response.count());
}

TEST(Concurrent, OldestDemandPolicyPicksStarvedTape) {
  Scenario s;
  // Only drive 0 usable (pin drive 1 empty). T1 holds 4 GB of demand,
  // T2 only 1 GB but demanded first.
  s.plan->mount_policy.replacement = ReplacementPolicy::kFixedBatch;
  s.plan->mount_policy.drive_pinned.assign(2, false);
  s.plan->mount_policy.drive_pinned[1] = true;
  s.mount(1, 0);  // park T0 on the pinned drive

  SimulatorConfig greedy;
  greedy.tape_pick = SimulatorConfig::TapePick::kMostDemandedBytes;
  SimulatorConfig fair;
  fair.tape_pick = SimulatorConfig::TapePick::kOldestDemand;

  // R3 (T2, 1 GB) arrives slightly before R2 (T1, 4 GB), while the drive
  // is still busy fetching nothing... both arrive before any fetch starts
  // is impossible (first arrival triggers an immediate claim), so stagger:
  // R4 (T3) at t=0 occupies the drive; R3 then R2 queue behind it.
  const Arrival arrivals[] = {{Seconds{0.0}, RequestId{4}},
                              {Seconds{1.0}, RequestId{3}},
                              {Seconds{2.0}, RequestId{2}}};
  ConcurrentSimulator greedy_sim(*s.plan, greedy);
  const auto g = greedy_sim.run(arrivals);
  ConcurrentSimulator fair_sim(*s.plan, fair);
  const auto f = fair_sim.run(arrivals);

  // Greedy serves the 4 GB tape (T1/R2) before the older 1 GB one (T2/R3);
  // oldest-first reverses that.
  EXPECT_GT(g[1].completion.count(), g[2].completion.count());
  EXPECT_LT(f[1].completion.count(), f[2].completion.count());
  // Everything is served either way.
  for (const auto& o : g) EXPECT_GT(o.completion.count(), 0.0);
  for (const auto& o : f) EXPECT_GT(o.completion.count(), 0.0);
}

TEST(ConcurrentDeath, UnsortedScheduleAborts) {
  Scenario s;
  s.mount(0, 0);
  ConcurrentSimulator sim(*s.plan);
  const Arrival arrivals[] = {{Seconds{10.0}, RequestId{0}},
                              {Seconds{5.0}, RequestId{1}}};
  EXPECT_DEATH((void)sim.run(arrivals), "sorted");
}

}  // namespace
}  // namespace tapesim::sched
