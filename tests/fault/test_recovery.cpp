// Degraded-mode scenarios for the retrieval simulator.
//
// These tests drive the fault-injection machinery end to end: drives fail
// mid-activity and fail over, mounts retry with backoff, media errors
// escalate cartridges to Lost, and in every case the request completes
// with reconciling byte accounting — the event loop must never wedge (the
// per-test ctest TIMEOUT turns a wedge into a failure).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/plan.hpp"
#include "fault/model.hpp"
#include "metrics/request_metrics.hpp"
#include "obs/tracer.hpp"
#include "sched/report.hpp"
#include "sched/simulator.hpp"
#include "workload/model.hpp"

namespace tapesim::sched {
namespace {

using core::Alignment;
using core::PlacementPlan;
using core::ReplacementPolicy;
using metrics::RequestStatus;
using workload::ObjectInfo;
using workload::Request;
using workload::Workload;

/// One library, two drives, four 10 GB tapes (same layout as the analytic
/// simulator tests):
///   T0: O0 (2 GB @ 0), O1 (3 GB @ 2 GB)
///   T1: O2 (4 GB @ 0)
///   T2: O3 (1 GB @ 0)
///   T3: O4 (2 GB @ 0)
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
    const double p = 1.0 / 6.0;
    requests.push_back(Request{RequestId{0}, p, {ObjectId{0}}});
    requests.push_back(Request{RequestId{1}, p, {ObjectId{0}, ObjectId{1}}});
    requests.push_back(Request{RequestId{2}, p, {ObjectId{2}}});
    requests.push_back(Request{RequestId{3}, p, {ObjectId{3}}});
    requests.push_back(Request{RequestId{4}, p, {ObjectId{4}}});
    requests.push_back(Request{RequestId{5}, p, {ObjectId{3}, ObjectId{4}}});
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

/// Every outcome must account for each requested byte exactly once.
void expect_reconciled(const metrics::RequestOutcome& o) {
  EXPECT_EQ(o.bytes_served() + o.bytes_unavailable, o.bytes);
  switch (o.status) {
    case RequestStatus::kServed:
      EXPECT_EQ(o.bytes_unavailable.count(), 0u);
      break;
    case RequestStatus::kUnavailable:
      EXPECT_EQ(o.bytes_unavailable, o.bytes);
      break;
    case RequestStatus::kPartial:
      EXPECT_GT(o.bytes_unavailable.count(), 0u);
      EXPECT_LT(o.bytes_unavailable, o.bytes);
      break;
    case RequestStatus::kDeadlineExpired:
    case RequestStatus::kShed:
      // These scenarios set no deadline and run no admission layer.
      ADD_FAILURE() << "fault-only scenario ended as "
                    << metrics::to_string(o.status);
      break;
  }
}

TEST(Recovery, InjectorOnlyBuiltWhenFaultsEnabled) {
  Scenario s;
  s.mount(0, 0);
  RetrievalSimulator plain(*s.plan);
  EXPECT_EQ(plain.fault_injector(), nullptr);

  Scenario s2;
  s2.mount(0, 0);
  SimulatorConfig config;
  config.faults.drive_mtbf = Seconds{1e9};
  RetrievalSimulator faulty(*s2.plan, config);
  EXPECT_NE(faulty.fault_injector(), nullptr);
}

TEST(Recovery, InvalidFaultConfigThrowsInsteadOfAborting) {
  Scenario s;
  SimulatorConfig config;
  config.faults.permanent_fraction = 2.0;
  EXPECT_THROW(RetrievalSimulator(*s.plan, config), std::invalid_argument);
}

TEST(Recovery, MountRetriesEventuallySucceed) {
  Scenario s;
  s.mount(0, 0);
  SimulatorConfig config;
  config.faults.mount_failure_prob = 0.6;
  config.faults.mount_retry = fault::BackoffPolicy{4, Seconds{5.0}, 2.0};
  config.faults.max_mount_attempts_per_tape = 64;
  RetrievalSimulator sim(*s.plan, config);

  std::uint32_t total_retries = 0;
  for (const std::uint32_t r : {2u, 3u, 4u, 5u, 2u, 3u}) {
    const auto o = sim.run_request(RequestId{r});
    expect_reconciled(o);
    EXPECT_EQ(o.status, RequestStatus::kServed);
    total_retries += o.mount_retries;
  }
  // p=0.6 over many load attempts: some retries must have happened, and
  // the injector must have counted the same events.
  EXPECT_GT(total_retries, 0u);
  EXPECT_GT(sim.fault_injector()->counters().mount_failures, 0u);
}

TEST(Recovery, MediaErrorsEscalateToLostAndCompleteUnavailable) {
  Scenario s;
  s.mount(0, 0);
  SimulatorConfig config;
  config.faults.media_error_per_gb = 50.0;  // a 4 GB read always errors
  config.faults.media_retry = fault::BackoffPolicy{0, Seconds{2.0}, 2.0};
  config.faults.degraded_after = 1;
  config.faults.lost_after = 2;
  RetrievalSimulator sim(*s.plan, config);

  // First attempt at O2 (4 GB on T1): the read errors, no retries are
  // allowed, the extent is skipped — all 4 GB unavailable, tape Degraded.
  const auto first = sim.run_request(RequestId{2});
  expect_reconciled(first);
  EXPECT_EQ(first.status, RequestStatus::kUnavailable);
  EXPECT_EQ(first.bytes_unavailable, 4_GB);
  EXPECT_EQ(first.extents_unavailable, 1u);
  EXPECT_EQ(sim.system().cartridge_health(TapeId{1}),
            tape::CartridgeHealth::kDegraded);

  // Second error crosses lost_after: the cartridge is Lost for good.
  const auto second = sim.run_request(RequestId{2});
  expect_reconciled(second);
  EXPECT_EQ(second.status, RequestStatus::kUnavailable);
  EXPECT_TRUE(sim.system().cartridge_lost(TapeId{1}));

  // A lost cartridge resolves instantly at request time: no events run.
  const auto third = sim.run_request(RequestId{2});
  expect_reconciled(third);
  EXPECT_EQ(third.status, RequestStatus::kUnavailable);
  EXPECT_DOUBLE_EQ(third.response.count(), 0.0);
  EXPECT_EQ(third.tape_switches, 0u);

  // Error counts are per cartridge: at 50 errors/GB the read of O0 also
  // errors (its first on T0), but that only *degrades* T0 — T1's lost
  // state never leaked onto other cartridges' escalation counters.
  const auto other = sim.run_request(RequestId{0});
  expect_reconciled(other);
  EXPECT_EQ(sim.system().cartridge_health(TapeId{0}),
            tape::CartridgeHealth::kDegraded);
  EXPECT_FALSE(sim.system().cartridge_lost(TapeId{0}));
}

TEST(Recovery, MediaRetrySucceedsWithoutLosingData) {
  Scenario s;
  s.mount(0, 0);
  SimulatorConfig config;
  config.faults.media_error_per_gb = 0.08;
  config.faults.media_retry = fault::BackoffPolicy{6, Seconds{2.0}, 2.0};
  config.faults.degraded_after = 50;  // plenty of headroom before escalation
  config.faults.lost_after = 100;
  RetrievalSimulator sim(*s.plan, config);

  std::uint32_t retries = 0;
  for (int round = 0; round < 6; ++round) {
    for (const std::uint32_t r : {0u, 1u, 2u, 3u, 4u, 5u}) {
      const auto o = sim.run_request(RequestId{r});
      expect_reconciled(o);
      EXPECT_EQ(o.status, RequestStatus::kServed);
      retries += o.media_retries;
    }
  }
  EXPECT_GT(retries, 0u) << "rate high enough that some read must retry";
  EXPECT_GT(sim.fault_injector()->counters().media_errors, 0u);
}

TEST(Recovery, TransientDriveFailureRepairsAndServes) {
  // Single drive: a mid-activity failure has nowhere to fail over, so the
  // request must ride out the repair (the repair-watch path) and still
  // serve every byte.
  Scenario s;
  s.spec.library.drives_per_library = 1;
  s.plan = std::make_unique<PlacementPlan>(s.spec, *s.workload);
  s.plan->assign(ObjectId{0}, TapeId{0});
  s.plan->assign(ObjectId{1}, TapeId{0});
  s.plan->assign(ObjectId{2}, TapeId{1});
  s.plan->assign(ObjectId{3}, TapeId{2});
  s.plan->assign(ObjectId{4}, TapeId{3});
  s.plan->align_all(Alignment::kGivenOrder);
  s.plan->compute_tape_popularity();

  SimulatorConfig config;
  config.faults.drive_mtbf = Seconds{120.0};  // dies roughly every request
  config.faults.drive_mttr = Seconds{300.0};
  RetrievalSimulator sim(*s.plan, config);

  std::uint64_t failures = 0;
  for (int round = 0; round < 4; ++round) {
    for (const std::uint32_t r : {2u, 3u, 4u, 5u, 0u, 1u}) {
      const auto o = sim.run_request(RequestId{r});
      expect_reconciled(o);
      EXPECT_EQ(o.status, RequestStatus::kServed)
          << "transient faults lose no data";
    }
  }
  failures = sim.fault_injector()->counters().drive_failures;
  EXPECT_GT(failures, 0u) << "MTBF of 2 min must fail within ~40 min of work";

  // The drive's own books agree with the injector's.
  const auto report =
      utilization_report(sim.system(), sim.engine().now());
  ASSERT_EQ(report.drives.size(), 1u);
  EXPECT_EQ(report.drives[0].failures, failures);
  EXPECT_GT(report.drives[0].downtime.count(), 0.0);
}

TEST(Recovery, FailoverToSecondDriveWhenFirstDiesPermanently) {
  Scenario s;
  SimulatorConfig config;
  config.faults.drive_mtbf = Seconds{100.0};
  config.faults.permanent_fraction = 1.0;
  RetrievalSimulator sim(*s.plan, config);

  metrics::ExperimentMetrics agg;
  for (int round = 0; round < 4; ++round) {
    for (const std::uint32_t r : {2u, 5u, 1u, 0u, 3u, 4u}) {
      const auto o = sim.run_request(RequestId{r});
      expect_reconciled(o);
      agg.add(o);
    }
  }
  const auto& counters = sim.fault_injector()->counters();
  EXPECT_GT(counters.drive_failures, 0u);
  EXPECT_EQ(counters.drive_failures, counters.permanent_drive_failures);
  // At most one permanent death per drive.
  EXPECT_LE(counters.drive_failures, 2u);

  const auto report =
      utilization_report(sim.system(), sim.engine().now());
  std::uint64_t reported = 0;
  for (const auto& d : report.drives) reported += d.failures;
  EXPECT_EQ(reported, counters.drive_failures);
  // With both drives eventually dead, later requests complete unavailable
  // rather than wedging; the aggregate fraction stays well-defined.
  const double frac = agg.fraction_unavailable();
  EXPECT_GE(frac, 0.0);
  EXPECT_LE(frac, 1.0);
}

TEST(Recovery, AllDrivesDeadCompletesEverythingUnavailable) {
  Scenario s;
  SimulatorConfig config;
  config.faults.drive_mtbf = Seconds{1.0};  // dies almost immediately
  config.faults.permanent_fraction = 1.0;
  RetrievalSimulator sim(*s.plan, config);

  bool saw_unavailable = false;
  for (const std::uint32_t r : {2u, 5u, 1u, 3u}) {
    const auto o = sim.run_request(RequestId{r});
    expect_reconciled(o);
    saw_unavailable |= o.status == RequestStatus::kUnavailable;
  }
  EXPECT_TRUE(saw_unavailable);
  // Once both drives are gone every request is a pure unavailability.
  const auto late = sim.run_request(RequestId{4});
  EXPECT_EQ(late.status, RequestStatus::kUnavailable);
  EXPECT_EQ(late.bytes_unavailable, 2_GB);
}

TEST(Recovery, RobotJamsDelayButNeverLoseData) {
  Scenario s;
  SimulatorConfig config;
  config.faults.robot_jam_prob = 0.5;
  config.faults.robot_jam_clear = Seconds{60.0};
  RetrievalSimulator jammed(*s.plan, config);

  Scenario clean;
  RetrievalSimulator smooth(*clean.plan);

  double jammed_total = 0.0;
  double smooth_total = 0.0;
  for (const std::uint32_t r : {2u, 5u, 3u, 4u}) {
    const auto oj = jammed.run_request(RequestId{r});
    const auto os = smooth.run_request(RequestId{r});
    expect_reconciled(oj);
    EXPECT_EQ(oj.status, RequestStatus::kServed);
    jammed_total += oj.response.count();
    smooth_total += os.response.count();
  }
  EXPECT_GT(jammed.fault_injector()->counters().robot_jams, 0u);
  EXPECT_GT(jammed_total, smooth_total);
}

TEST(Recovery, FaultRunsAreDeterministic) {
  SimulatorConfig config;
  config.faults.drive_mtbf = Seconds{200.0};
  config.faults.drive_mttr = Seconds{400.0};
  config.faults.mount_failure_prob = 0.3;
  config.faults.media_error_per_gb = 0.05;
  config.faults.robot_jam_prob = 0.2;

  Scenario sa;
  Scenario sb;
  RetrievalSimulator a(*sa.plan, config);
  RetrievalSimulator b(*sb.plan, config);
  for (int round = 0; round < 3; ++round) {
    for (const std::uint32_t r : {2u, 5u, 1u, 0u, 3u, 4u}) {
      const auto oa = a.run_request(RequestId{r});
      const auto ob = b.run_request(RequestId{r});
      EXPECT_EQ(oa.response.count(), ob.response.count());
      EXPECT_EQ(oa.bytes_unavailable, ob.bytes_unavailable);
      EXPECT_EQ(oa.status, ob.status);
      EXPECT_EQ(oa.failovers, ob.failovers);
      EXPECT_EQ(oa.mount_retries, ob.mount_retries);
      EXPECT_EQ(oa.media_retries, ob.media_retries);
    }
  }
}

TEST(Recovery, FaultSpansConserveAgainstUtilizationReport) {
  // The tracer's per-drive span lanes and the drives' own stats are two
  // independent books of the same run; with transient faults in play the
  // partial-time accounting on preempted activities must keep them equal
  // — including the new fault lane vs repair downtime.
  Scenario s;
  s.mount(0, 0);
  SimulatorConfig config;
  config.faults.drive_mtbf = Seconds{300.0};
  config.faults.drive_mttr = Seconds{200.0};
  config.faults.mount_failure_prob = 0.2;
  config.faults.media_error_per_gb = 0.03;
  obs::Tracer tracer;
  config.tracer = &tracer;
  RetrievalSimulator sim(*s.plan, config);
  for (int round = 0; round < 4; ++round) {
    for (const std::uint32_t r : {2u, 5u, 1u, 0u, 3u, 4u}) {
      const auto o = sim.run_request(RequestId{r});
      expect_reconciled(o);
    }
  }
  EXPECT_GT(sim.fault_injector()->counters().drive_failures, 0u);

  const auto report =
      utilization_report(sim.system(), sim.engine().now());
  for (const DriveUtilization& du : report.drives) {
    const std::uint32_t lane = du.drive.value();
    const auto total = [&](obs::Phase p) {
      return tracer.lane_phase_total(obs::Track::kDrive, lane, p).count();
    };
    EXPECT_NEAR(total(obs::Phase::kTransfer), du.transferring.count(), 1e-6)
        << "drive " << lane;
    EXPECT_NEAR(total(obs::Phase::kLocate), du.locating.count(), 1e-6)
        << "drive " << lane;
    EXPECT_NEAR(total(obs::Phase::kRewind), du.rewinding.count(), 1e-6)
        << "drive " << lane;
    EXPECT_NEAR(total(obs::Phase::kLoad), du.loading.count(), 1e-6)
        << "drive " << lane;
    EXPECT_NEAR(total(obs::Phase::kUnload), du.unloading.count(), 1e-6)
        << "drive " << lane;
    EXPECT_NEAR(total(obs::Phase::kFault), du.downtime.count(), 1e-6)
        << "drive " << lane;
  }
}

TEST(Recovery, PermanentDriveAndLostCartridgeStillReconcile) {
  // The acceptance scenario: one run in which a drive dies for good AND a
  // cartridge is lost must complete with every byte accounted for.
  Scenario s;
  SimulatorConfig config;
  config.faults.drive_mtbf = Seconds{150.0};
  config.faults.drive_mttr = Seconds{100.0};
  config.faults.permanent_fraction = 0.5;
  config.faults.mount_failure_prob = 0.2;
  config.faults.media_error_per_gb = 0.3;
  config.faults.media_retry = fault::BackoffPolicy{1, Seconds{2.0}, 2.0};
  config.faults.degraded_after = 2;
  config.faults.lost_after = 4;
  config.faults.robot_jam_prob = 0.1;
  RetrievalSimulator sim(*s.plan, config);

  metrics::ExperimentMetrics agg;
  for (int round = 0; round < 6; ++round) {
    for (const std::uint32_t r : {2u, 5u, 1u, 0u, 3u, 4u}) {
      const auto o = sim.run_request(RequestId{r});
      expect_reconciled(o);
      agg.add(o);
    }
  }
  const auto& counters = sim.fault_injector()->counters();
  const auto report =
      utilization_report(sim.system(), sim.engine().now());
  std::uint64_t reported = 0;
  for (const auto& d : report.drives) reported += d.failures;
  EXPECT_EQ(reported, counters.drive_failures);
  EXPECT_GT(counters.drive_failures + counters.media_errors +
                counters.mount_failures,
            0u);
  EXPECT_GE(agg.fraction_unavailable(), 0.0);
  EXPECT_LE(agg.fraction_unavailable(), 1.0);
}

}  // namespace
}  // namespace tapesim::sched
