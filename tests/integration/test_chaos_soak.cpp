// Chaos soak: randomized fault + scrub + evacuation + overload schedules
// across many seeds, asserting the invariants that must survive arbitrary
// interleavings of foreground serving, background verification passes,
// evacuation drains, deadline cancellations, and injected hardware faults:
//
//   * byte conservation — every requested byte is accounted served,
//     unavailable, or expired, and the total matches the workload's own
//     object sizes;
//   * no double-mounted cartridge — at every request boundary each tape
//     sits in at most one drive and the tape/drive maps agree;
//   * counter reconciliation — the obs registry's fault.*, scrub.*, and
//     evac.* counters match the injector's and the scheduler's own running
//     totals exactly at the end of the run;
//   * a monotone engine clock.
//
// The plan is built once (placement is deterministic and expensive); each
// seed gets its own simulator, fault mix, scrub/evacuation posture, storm
// arrival schedule, deadlines, and overload-pressure toggles.
//
// A second soak runs a 2-way replicated plan under random fail-slow
// episodes with the gray-failure detector, quarantine, and hedged reads
// live, and reconciles the failslow.* ledger exactly. A third drives the
// recovery governor through a fault burst; a fourth keeps background
// repair busy beside scrub, evacuation, outages, and fail-slow drives.
//
// Every posture draws its config, storm, and per-request knobs from one
// seeded stream in a fixed order, so the outcome digest at the end of this
// file replays exactly the runs the soaks check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/replication.hpp"
#include "exp/experiment.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"
#include "sched/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/generator.hpp"
#include "workload/storm.hpp"

namespace tapesim {
namespace {

using metrics::RequestStatus;

/// Every cartridge sits in at most one drive and the tape/drive maps
/// agree (checked at request boundaries by every soak).
void check_mount_exclusivity(const sched::RetrievalSimulator& sim,
                             const tape::SystemSpec& spec) {
  const std::uint32_t drives = spec.total_drives();
  const std::uint32_t tapes = spec.total_tapes();
  std::vector<std::uint32_t> held(drives, 0);
  for (std::uint32_t t = 0; t < tapes; ++t) {
    if (const auto d = sim.system().drive_holding(TapeId{t})) {
      ASSERT_LT(d->value(), drives);
      ++held[d->value()];
      ASSERT_LE(held[d->value()], 1u) << "drive " << d->value()
                                      << " holds two cartridges";
    }
  }
  for (std::uint32_t d = 0; d < drives; ++d) {
    const auto& drive = sim.system().drive(DriveId{d});
    if (!drive.empty() && !drive.failed()) {
      const auto holder = sim.system().drive_holding(drive.mounted());
      ASSERT_TRUE(holder.has_value());
      EXPECT_EQ(holder->value(), d) << "tape/drive maps disagree";
    }
  }
}

/// Shared scenario: a small two-library system and a parallel-batch plan.
/// The replicated variant has extra tapes and a 2-way replicated plan, so
/// every object keeps a cross-library copy for failover, repair, and
/// hedged reads.
struct Fixture {
  exp::ExperimentConfig config;
  exp::Experiment experiment;
  core::PlacementPlan plan;

  explicit Fixture(bool replicated)
      : config(make_config(replicated)),
        experiment(config),
        plan(make_plan(replicated)) {}

  static exp::ExperimentConfig make_config(bool replicated) {
    exp::ExperimentConfig c;
    c.spec.num_libraries = 2;
    c.spec.library.drives_per_library = 3;
    c.spec.library.tape_capacity = 40_GB;
    c.workload.num_objects = 800;
    c.workload.num_requests = 60;
    c.workload.min_objects_per_request = 2;
    c.workload.max_objects_per_request = 8;
    c.workload.object_groups = 20;
    if (replicated) {
      // Replicas land on tapes the primary layout left empty, so the pool
      // is sized at several times the primary footprint.
      c.spec.library.tapes_per_library = 24;
      c.workload.min_object_size = Bytes{100ULL * 1000 * 1000};
      c.workload.max_object_size = Bytes{1500ULL * 1000 * 1000};
      c.seed = 11;
    } else {
      c.spec.library.tapes_per_library = 10;
      c.workload.min_object_size = Bytes{200ULL * 1000 * 1000};
      c.workload.max_object_size = Bytes{2000ULL * 1000 * 1000};
      c.seed = 7;
    }
    return c;
  }

  core::PlacementPlan make_plan(bool replicated) const {
    const auto schemes = exp::make_standard_schemes(2);
    core::PlacementContext context{&experiment.workload(), &config.spec,
                                   &experiment.clusters()};
    if (!replicated) return schemes.parallel_batch->place(context);
    core::ReplicationPolicy::Params rp;
    rp.replicas = 2;
    return core::ReplicationPolicy(*schemes.parallel_batch, rp)
        .place(context);
  }

  static const Fixture& plain() {
    static const Fixture fixture(false);
    return fixture;
  }
  static const Fixture& replicated() {
    static const Fixture fixture(true);
    return fixture;
  }
};

/// One randomized posture: every fault class live at a seed-dependent
/// rate, scrubbing and evacuation each enabled on most seeds.
sched::SimulatorConfig chaos_config(Rng& rng, obs::Tracer* tracer) {
  sched::SimulatorConfig cfg;
  cfg.tracer = tracer;
  cfg.faults.seed = rng();
  cfg.faults.latent_decay_mtbf = Seconds{rng.uniform(1500.0, 12000.0)};
  cfg.faults.mount_failure_prob = rng.uniform(0.0, 0.05);
  cfg.faults.media_error_per_gb = rng.uniform() < 0.5 ? 0.002 : 0.0;
  cfg.faults.robot_jam_prob = rng.uniform(0.0, 0.02);
  if (rng.uniform() < 0.5) {
    cfg.faults.drive_mtbf = Seconds{rng.uniform(5e4, 2e5)};
    cfg.faults.drive_mttr = Seconds{600.0};
    cfg.faults.permanent_fraction = 0.1;
  }
  if (rng.uniform() < 0.75) {
    cfg.scrub.enabled = true;
    cfg.scrub.interval = Seconds{rng.uniform(300.0, 3000.0)};
    cfg.scrub.bandwidth_fraction = rng.uniform(0.3, 1.0);
    cfg.scrub.max_concurrent = 1 + static_cast<std::uint32_t>(
                                       rng.uniform_below(3));
    cfg.scrub.segment = Bytes{(1 + rng.uniform_below(4)) << 30};
  }
  if (rng.uniform() < 0.4) {
    // Library-level fault domains: correlated outages, occasionally a
    // permanent site disaster (the plan is unreplicated, so disasters
    // surface as unavailable bytes rather than DR traffic).
    cfg.faults.outage.library_mtbf = Seconds{rng.uniform(4e4, 2e5)};
    cfg.faults.outage.library_mttr = Seconds{rng.uniform(1000.0, 8000.0)};
    cfg.faults.outage.disaster_fraction = rng.uniform() < 0.3 ? 0.15 : 0.0;
  }
  if (rng.uniform() < 0.5) {
    cfg.evacuation.enabled = true;
    cfg.evacuation.threshold = rng.uniform(0.3, 0.8);
    cfg.evacuation.latent_weight = 0.2;
    cfg.repair.bandwidth_fraction = 1.0;
    cfg.repair.max_concurrent = 2;
  }
  if (rng.uniform() < 0.7) {
    // Durable control plane: the catalog journal is live under a random
    // fsync policy and checkpoint cadence, and on most of those seeds the
    // metadata server crashes mid-run and recovers by snapshot + replay +
    // reconciliation at admission boundaries. The rest soak the journal's
    // passive (crash-free) mode, which must be invisible to the sim.
    cfg.journal.enabled = true;
    const double policy = rng.uniform();
    cfg.journal.fsync = policy < 0.34
                            ? catalog::FsyncPolicy::kSync
                            : policy < 0.67 ? catalog::FsyncPolicy::kGroupCommit
                                            : catalog::FsyncPolicy::kAsync;
    cfg.journal.group_window = Seconds{rng.uniform(0.02, 60.0)};
    cfg.journal.async_flush = Seconds{rng.uniform(5.0, 600.0)};
    cfg.journal.checkpoint_interval =
        rng.uniform() < 0.3 ? Seconds{0.0}  // never: replay from genesis
                            : Seconds{rng.uniform(2000.0, 40000.0)};
    if (rng.uniform() < 0.8) {
      cfg.faults.crash.metadata_mtbf = Seconds{rng.uniform(5e3, 6e4)};
      cfg.faults.crash.torn_tail = rng.uniform() < 0.7;
    }
  }
  EXPECT_TRUE(cfg.try_validate().ok());
  return cfg;
}

/// Fail-slow posture: drive degraded-throughput episodes on every seed,
/// robot slowdowns on most, the gray-failure detector and hedged reads
/// always live, quarantine on most seeds — all interleaved with the
/// ordinary hardware-fault background.
sched::SimulatorConfig failslow_chaos_config(Rng& rng, obs::Tracer* tracer) {
  sched::SimulatorConfig cfg;
  cfg.tracer = tracer;
  cfg.faults.seed = rng();
  cfg.faults.mount_failure_prob = rng.uniform(0.0, 0.04);
  cfg.faults.media_error_per_gb = rng.uniform() < 0.4 ? 0.002 : 0.0;
  if (rng.uniform() < 0.4) {
    cfg.faults.drive_mtbf = Seconds{rng.uniform(8e4, 3e5)};
    cfg.faults.drive_mttr = Seconds{900.0};
    cfg.faults.permanent_fraction = 0.1;
  }
  cfg.faults.failslow.drive_slow_mtbf = Seconds{rng.uniform(5e3, 4e4)};
  cfg.faults.failslow.drive_slow_duration =
      Seconds{rng.uniform(2000.0, 10000.0)};
  cfg.faults.failslow.drive_severity_min = 0.02;
  cfg.faults.failslow.drive_severity_max = rng.uniform(0.1, 0.3);
  cfg.faults.failslow.progressive = rng.uniform() < 0.3;
  if (rng.uniform() < 0.6) {
    cfg.faults.failslow.robot_slow_mtbf = Seconds{rng.uniform(3e4, 1.5e5)};
    cfg.faults.failslow.robot_slow_duration =
        Seconds{rng.uniform(1000.0, 6000.0)};
  }
  cfg.detector.enabled = true;
  cfg.detector.quarantine = rng.uniform() < 0.8;
  cfg.detector.window = Seconds{rng.uniform(600.0, 1500.0)};
  cfg.detector.probation = Seconds{rng.uniform(900.0, 3600.0)};
  cfg.hedge.enabled = true;
  cfg.hedge.min_history = 8;
  cfg.hedge.budget_fraction = rng.uniform(0.1, 0.3);
  EXPECT_TRUE(cfg.try_validate().ok());
  return cfg;
}

/// Recovery-governor posture: a deterministic fault burst mid-stream (the
/// metastable trigger) under random retry-budget ratios, breaker
/// thresholds, and shed-ladder knobs. Some seeds run with the governor
/// configured but disabled — the passive path must hold the same
/// invariants (and an all-zero ledger).
sched::SimulatorConfig governor_chaos_config(Rng& rng, obs::Tracer* tracer) {
  sched::SimulatorConfig cfg;
  cfg.tracer = tracer;
  cfg.faults.seed = rng();
  cfg.faults.mount_failure_prob = rng.uniform(0.0, 0.05);
  cfg.faults.media_error_per_gb = rng.uniform(0.0, 0.01);
  cfg.faults.degraded_after = 2 + static_cast<std::uint32_t>(
                                      rng.uniform_below(8));
  cfg.faults.lost_after = cfg.faults.degraded_after +
                          8 + static_cast<std::uint32_t>(rng.uniform_below(40));
  cfg.faults.degraded_error_multiplier = rng.uniform(1.0, 200.0);
  cfg.faults.media_retry.max_retries =
      static_cast<std::uint32_t>(rng.uniform_below(5));
  cfg.faults.media_retry.initial_delay = Seconds{rng.uniform(1.0, 30.0)};
  cfg.faults.burst.at = Seconds{rng.uniform(500.0, 4000.0)};
  cfg.faults.burst.duration = Seconds{rng.uniform(500.0, 3000.0)};
  cfg.faults.burst.mount_failure_prob = rng.uniform(0.2, 0.8);
  cfg.faults.burst.media_error_per_gb = rng.uniform(0.3, 1.5);
  if (rng.uniform() < 0.4) {
    cfg.scrub.enabled = true;
    cfg.scrub.interval = Seconds{rng.uniform(500.0, 4000.0)};
  }
  if (rng.uniform() < 0.4) {
    cfg.evacuation.enabled = true;
    cfg.evacuation.threshold = rng.uniform(0.3, 0.7);
  }
  if (rng.uniform() < 0.4) {
    // Hedged reads feed the governor's kHedge admission class.
    cfg.detector.enabled = true;
    cfg.detector.quarantine = rng.uniform() < 0.5;
    cfg.hedge.enabled = true;
    cfg.hedge.min_history = 8;
    cfg.hedge.budget_fraction = rng.uniform(0.1, 0.3);
  }

  sched::GovernorConfig& gov = cfg.governor;
  gov.enabled = rng.uniform() < 0.85;
  gov.budgets.enabled = rng.uniform() < 0.8;
  gov.budgets.retry_ratio = rng.uniform(0.05, 1.0);
  gov.budgets.failover_ratio = rng.uniform(0.05, 1.0);
  gov.budgets.hedge_ratio = rng.uniform(0.05, 1.0);
  gov.budgets.burst = rng.uniform(1.0, 16.0);
  gov.breaker.enabled = rng.uniform() < 0.8;
  gov.breaker.failure_threshold = rng.uniform(0.3, 0.9);
  gov.breaker.min_samples = 2 + static_cast<std::uint32_t>(
                                    rng.uniform_below(8));
  gov.breaker.window = Seconds{rng.uniform(200.0, 1500.0)};
  gov.breaker.open_duration = Seconds{rng.uniform(60.0, 600.0)};
  gov.breaker.close_after = 1 + static_cast<std::uint32_t>(
                                    rng.uniform_below(3));
  gov.metastable.enabled = rng.uniform() < 0.8;
  gov.metastable.bin = Seconds{rng.uniform(60.0, 600.0)};
  gov.metastable.ewma_alpha = rng.uniform(0.05, 0.5);
  gov.metastable.collapse_fraction = rng.uniform(0.1, 0.5);
  gov.metastable.recover_fraction =
      gov.metastable.collapse_fraction + rng.uniform(0.1, 0.4);
  gov.metastable.min_queue_depth = 1 + static_cast<std::uint32_t>(
                                           rng.uniform_below(6));
  gov.metastable.trip_bins = 1 + static_cast<std::uint32_t>(
                                     rng.uniform_below(3));
  gov.metastable.release_bins = 1 + static_cast<std::uint32_t>(
                                        rng.uniform_below(3));
  gov.metastable.repair_clamp = rng.uniform(0.1, 1.0);
  gov.metastable.budget_clamp = rng.uniform(0.3, 1.0);
  EXPECT_TRUE(cfg.try_validate().ok());
  return cfg;
}

/// Background-repair posture: re-replication live on every seed under
/// mount failures, media errors, robot jams, and latent decay, with
/// scrubbing on most seeds and a random robot handoff protocol and
/// staging-disk slot limit. Drive failures, outages (disasters included),
/// evacuation, fail-slow drives with quarantine and hedges, and the
/// governor join on some seeds. Background reads here routinely escalate
/// a cartridge that failover demand is waiting on.
sched::SimulatorConfig repair_chaos_config(Rng& rng, obs::Tracer* tracer) {
  sched::SimulatorConfig cfg;
  cfg.tracer = tracer;
  cfg.faults.seed = rng();
  cfg.robot_holds_load = rng.uniform() < 0.5;
  cfg.max_concurrent_streams =
      rng.uniform() < 0.5
          ? 0
          : 1 + static_cast<std::uint32_t>(rng.uniform_below(3));
  cfg.faults.mount_failure_prob = rng.uniform(0.02, 0.12);
  cfg.faults.media_error_per_gb = rng.uniform(0.002, 0.02);
  cfg.faults.robot_jam_prob = rng.uniform(0.0, 0.05);
  cfg.faults.latent_decay_mtbf = Seconds{rng.uniform(1500.0, 12000.0)};
  cfg.repair.enabled = true;
  cfg.repair.bandwidth_fraction = rng.uniform(0.3, 1.0);
  cfg.repair.max_concurrent = 1 + static_cast<std::uint32_t>(
                                      rng.uniform_below(3));
  if (rng.uniform() < 0.7) {
    cfg.scrub.enabled = true;
    cfg.scrub.interval = Seconds{rng.uniform(300.0, 3000.0)};
    cfg.scrub.bandwidth_fraction = rng.uniform(0.3, 1.0);
    cfg.scrub.max_concurrent = 1 + static_cast<std::uint32_t>(
                                       rng.uniform_below(3));
    cfg.scrub.segment = Bytes{(1 + rng.uniform_below(4)) << 30};
  }
  if (rng.uniform() < 0.4) {
    cfg.faults.drive_mtbf = Seconds{rng.uniform(5e4, 2e5)};
    cfg.faults.drive_mttr = Seconds{600.0};
    cfg.faults.permanent_fraction = 0.1;
  }
  if (rng.uniform() < 0.3) {
    // Outages on a replicated plan: failover to the surviving library,
    // and a disaster on some seeds launches the DR surge.
    cfg.faults.outage.library_mtbf = Seconds{rng.uniform(4e4, 2e5)};
    cfg.faults.outage.library_mttr = Seconds{rng.uniform(1000.0, 8000.0)};
    cfg.faults.outage.disaster_fraction = rng.uniform() < 0.5 ? 0.2 : 0.0;
  }
  if (rng.uniform() < 0.4) {
    cfg.evacuation.enabled = true;
    cfg.evacuation.threshold = rng.uniform(0.3, 0.8);
    cfg.evacuation.latent_weight = 0.2;
  }
  if (rng.uniform() < 0.3) {
    cfg.faults.failslow.drive_slow_mtbf = Seconds{rng.uniform(5e3, 4e4)};
    cfg.faults.failslow.drive_slow_duration =
        Seconds{rng.uniform(2000.0, 10000.0)};
    cfg.faults.failslow.drive_severity_min = 0.02;
    cfg.faults.failslow.drive_severity_max = rng.uniform(0.1, 0.3);
    cfg.detector.enabled = true;
    cfg.detector.quarantine = true;
    cfg.detector.window = Seconds{rng.uniform(600.0, 1500.0)};
    cfg.hedge.enabled = true;
    cfg.hedge.min_history = 8;
    cfg.hedge.budget_fraction = rng.uniform(0.1, 0.3);
  }
  if (rng.uniform() < 0.3) {
    sched::GovernorConfig& gov = cfg.governor;
    gov.enabled = true;
    gov.budgets.retry_ratio = rng.uniform(0.05, 1.0);
    gov.budgets.failover_ratio = rng.uniform(0.05, 1.0);
    gov.breaker.min_samples = 2 + static_cast<std::uint32_t>(
                                      rng.uniform_below(8));
    gov.breaker.open_duration = Seconds{rng.uniform(60.0, 600.0)};
  }
  EXPECT_TRUE(cfg.try_validate().ok());
  return cfg;
}

class SoakRun;

/// What distinguishes one soak posture: its scenario, its config builder,
/// how its seed is spread, the per-request draws its storm makes, and its
/// end-of-run checks.
struct Posture {
  const char* name;
  bool replicated;
  std::uint64_t seed_mix;
  sched::SimulatorConfig (*build)(Rng&, obs::Tracer*);
  /// Draw a random overload-pressure toggle before every request.
  bool pressure_toggles;
  double deadline_prob;
  double deadline_min;
  double deadline_max;
  /// Runs after the last request: ledger reconciliation, plus the repair
  /// drain for the posture that checks the copy engine at quiescence.
  void (*finish)(SoakRun&);
};

/// One seed of one posture: config, simulator, and storm, drawn from the
/// seed's stream in a fixed order. serve() then replays the storm with the
/// per-request draws and checks what every posture must keep.
class SoakRun {
 public:
  SoakRun(const Posture& posture, std::uint64_t seed)
      : fixture_(posture.replicated ? Fixture::replicated()
                                    : Fixture::plain()),
        posture_(posture),
        rng_{seed * posture.seed_mix + 1},
        config_(posture.build(rng_, &tracer_)),
        sim_(fixture_.plan, config_),
        arrivals_(make_storm()) {}

  [[nodiscard]] sched::RetrievalSimulator& sim() { return sim_; }
  [[nodiscard]] const sched::SimulatorConfig& config() const {
    return config_;
  }
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }
  [[nodiscard]] std::size_t requests() const { return arrivals_.size(); }
  [[nodiscard]] std::uint64_t parked_extents() const {
    return parked_extents_;
  }
  [[nodiscard]] std::uint64_t parked_requests() const {
    return parked_requests_;
  }

  /// Serves every arrival and hands each outcome to `on_outcome`. After
  /// each request: the clock is monotone, every byte is served,
  /// unavailable, or expired, the status agrees with that split, and no
  /// cartridge is mounted twice.
  template <typename OnOutcome>
  void serve(OnOutcome&& on_outcome) {
    Seconds prev_now{};
    for (const auto& arrival : arrivals_) {
      if (sim_.engine().now() < arrival.time) {
        sim_.engine().schedule_at(arrival.time, [] {});
        sim_.engine().run();
      }
      // Random overload-pressure toggles exercise the repair/scrub pause
      // paths mid-stream.
      if (posture_.pressure_toggles) {
        sim_.set_overload_pressure(rng_.uniform() < 0.3);
      }
      sched::RequestContext ctx;
      ctx.priority = arrival.priority;
      if (rng_.uniform() < posture_.deadline_prob) {
        ctx.deadline = sim_.engine().now() +
                       Seconds{rng_.uniform(posture_.deadline_min,
                                            posture_.deadline_max)};
      }
      const auto o = sim_.run_request(arrival.request, ctx);

      EXPECT_GE(sim_.engine().now().count(), prev_now.count());
      prev_now = sim_.engine().now();

      // Byte conservation: the outcome's total matches the workload, and
      // every byte is served, unavailable, or expired — no leaks, no
      // double counting (hedged objects share one accounting slot).
      Bytes expected{};
      for (const ObjectId obj :
           fixture_.experiment.workload().request(arrival.request).objects) {
        expected += fixture_.experiment.workload().object_size(obj);
      }
      ASSERT_EQ(o.bytes.count(), expected.count());
      ASSERT_LE(o.bytes_unavailable.count() + o.bytes_expired.count(),
                o.bytes.count());
      ASSERT_EQ(o.bytes_served().count() + o.bytes_unavailable.count() +
                    o.bytes_expired.count(),
                o.bytes.count());
      switch (o.status) {
        case RequestStatus::kServed:
          EXPECT_EQ(o.bytes_unavailable.count(), 0u);
          EXPECT_EQ(o.bytes_expired.count(), 0u);
          break;
        case RequestStatus::kPartial:
          EXPECT_GT(o.bytes_served().count(), 0u);
          EXPECT_GT(o.bytes_unavailable.count() + o.bytes_expired.count(),
                    0u);
          break;
        case RequestStatus::kUnavailable:
          EXPECT_EQ(o.bytes_served().count(), 0u);
          break;
        case RequestStatus::kDeadlineExpired:
          EXPECT_LT(o.bytes_served().count(), o.bytes.count());
          break;
        case RequestStatus::kShed:
          FAIL() << "the bare simulator never sheds";
      }
      parked_extents_ += o.extents_parked;
      if (o.extents_parked > 0) ++parked_requests_;

      check_mount_exclusivity(sim_, fixture_.config.spec);
      on_outcome(o);
    }
  }

 private:
  std::vector<workload::TimedRequest> make_storm() {
    workload::StormConfig storm;
    storm.base_rate = 1.0 / 400.0;
    storm.burst_rate = 1.0 / 40.0;
    storm.mean_burst_duration = Seconds{1200.0};
    storm.mean_calm_duration = Seconds{4000.0};
    storm.batch_fraction = 0.4;
    const workload::RequestSampler sampler(fixture_.experiment.workload());
    return workload::storm_arrivals(sampler, storm, 25, rng_);
  }

  const Fixture& fixture_;
  const Posture& posture_;
  obs::Tracer tracer_;
  Rng rng_;
  sched::SimulatorConfig config_;
  sched::RetrievalSimulator sim_;
  std::vector<workload::TimedRequest> arrivals_;
  std::uint64_t parked_extents_ = 0;
  std::uint64_t parked_requests_ = 0;
};

/// End-of-run reconciliation of the fault, scrub, evacuation, outage, and
/// recovery ledgers: the obs registry agrees exactly with the scheduler's
/// and the injector's own running totals. Valid at a request boundary
/// (fault counters reach the registry as per-request deltas).
void check_fault_ledgers(SoakRun& run) {
  sched::RetrievalSimulator& sim = run.sim();
  const sched::SimulatorConfig& cfg = run.config();
  auto& reg = run.tracer().registry();
  EXPECT_EQ(reg.counter("sched.requests").value(), run.requests());

  const fault::FaultInjector* inj = sim.fault_injector();
  ASSERT_NE(inj, nullptr);
  const fault::FaultCounters& fc = inj->counters();
  EXPECT_EQ(reg.counter("fault.mount_failures").value(), fc.mount_failures);
  EXPECT_EQ(reg.counter("fault.media_errors").value(), fc.media_errors);
  EXPECT_EQ(reg.counter("fault.robot_jams").value(), fc.robot_jams);
  EXPECT_EQ(reg.counter("fault.drive_failures").value(), fc.drive_failures);
  EXPECT_EQ(reg.counter("fault.latent_events").value(), fc.latent_events);
  EXPECT_EQ(reg.counter("fault.latent_observed").value(), fc.latent_observed);

  const sched::ScrubStats& scrub = sim.scrub_stats();
  EXPECT_EQ(reg.counter("scrub.passes").value(), scrub.passes);
  EXPECT_EQ(reg.counter("scrub.verified_bytes").value(),
            scrub.bytes_verified);
  EXPECT_EQ(reg.counter("scrub.latent_found").value(), scrub.latent_found);

  const sched::EvacStats& evac = sim.evac_stats();
  EXPECT_EQ(reg.counter("evac.started").value(), evac.started);
  EXPECT_EQ(reg.counter("evac.objects_moved").value(), evac.objects_moved);
  EXPECT_EQ(reg.counter("evac.preempted_unavailables").value(),
            evac.preempted_unavailables);

  // Outage ledger: the registry, the scheduler's stats, and the
  // per-request outcomes all agree exactly — every parked extent was
  // reported to exactly one request, and the counters form a consistent
  // onset/close/disaster triangle.
  const sched::OutageStats& outage = sim.outage_stats();
  EXPECT_EQ(reg.counter("outage.started").value(), outage.started);
  EXPECT_EQ(reg.counter("outage.ended").value(), outage.ended);
  EXPECT_EQ(reg.counter("outage.disasters").value(), outage.disasters);
  EXPECT_EQ(reg.counter("outage.failovers").value(), outage.failovers);
  EXPECT_EQ(reg.counter("outage.requests_parked").value(),
            outage.requests_parked);
  EXPECT_EQ(fc.library_outages, outage.started);
  EXPECT_EQ(fc.library_disasters, outage.disasters);
  EXPECT_EQ(run.parked_extents(), outage.extents_parked);
  EXPECT_EQ(run.parked_requests(), outage.requests_parked);
  EXPECT_LE(outage.ended + outage.disasters, outage.started);
  if (cfg.faults.outage.enabled()) {
    EXPECT_GE(reg.gauge("outage.downtime_s").value(), 0.0);
  } else {
    EXPECT_EQ(outage.started, 0u);
    EXPECT_EQ(outage.extents_parked, 0u);
  }

  // Recovery ledger: the registry's recovery.* lane, the scheduler's
  // RecoveryStats, the journal's own ledger, and the injector's crash
  // counter all agree exactly; the journal conserves every append; and
  // replaying snapshot + surviving log reproduces the live catalog
  // field-for-field after reconciliation.
  const sched::RecoveryStats& rec = sim.recovery_stats();
  EXPECT_EQ(reg.counter("recovery.crashes").value(), rec.crashes);
  EXPECT_EQ(reg.counter("recovery.checkpoints").value(), rec.checkpoints);
  EXPECT_EQ(reg.counter("recovery.records_replayed").value(),
            rec.records_replayed);
  EXPECT_EQ(reg.counter("recovery.lost_mutations").value(),
            rec.lost_mutations);
  EXPECT_EQ(reg.counter("recovery.reconciled_mutations").value(),
            rec.reconciled_mutations);
  EXPECT_EQ(reg.counter("recovery.admissions_parked").value(),
            rec.admissions_parked);
  EXPECT_EQ(fc.metadata_crashes, rec.crashes);
  EXPECT_EQ(rec.rto.count(), rec.crashes);
  EXPECT_EQ(rec.snapshot_age.count(), rec.crashes);
  if (catalog::Journal* journal = sim.journal()) {
    const catalog::JournalStats& js = journal->stats();
    EXPECT_EQ(js.appends,
              js.records_truncated + js.records_lost + journal->live_records());
    EXPECT_EQ(js.records_lost, js.records_reconciled);
    EXPECT_EQ(js.records_lost, rec.lost_mutations);
    EXPECT_EQ(js.records_reconciled, rec.reconciled_mutations);
    EXPECT_EQ(js.checkpoints, rec.checkpoints);
    if (cfg.journal.fsync == catalog::FsyncPolicy::kSync) {
      EXPECT_EQ(js.records_lost, 0u) << "sync fsync must never lose records";
    }
    EXPECT_TRUE(journal->replay().equals(sim.catalog()))
        << "durable state diverged from the live catalog";
  } else {
    EXPECT_FALSE(cfg.journal.enabled);
    EXPECT_EQ(rec.crashes, 0u);
  }
}

/// End-of-run reconciliation of the failslow.* lane: the registry, the
/// scheduler's FailSlowStats, and the injector's episode counters agree
/// exactly, and the hedge ledger balances.
void check_failslow_ledgers(SoakRun& run) {
  sched::RetrievalSimulator& sim = run.sim();
  const sched::SimulatorConfig& cfg = run.config();
  auto& reg = run.tracer().registry();
  const fault::FaultCounters& fc = sim.fault_injector()->counters();
  const sched::FailSlowStats& fs = sim.failslow_stats();
  EXPECT_EQ(reg.counter("failslow.detected").value(), fs.detected);
  EXPECT_EQ(reg.counter("failslow.false_positives").value(),
            fs.false_positives);
  EXPECT_EQ(reg.counter("failslow.quarantines").value(), fs.quarantines);
  EXPECT_EQ(reg.counter("failslow.hedges_issued").value(), fs.hedges_issued);
  EXPECT_EQ(reg.counter("failslow.hedges_won").value(), fs.hedges_won);
  EXPECT_EQ(reg.counter("failslow.hedges_lost").value(), fs.hedges_lost);
  EXPECT_EQ(reg.counter("failslow.hedge_wasted_bytes").value(),
            fs.hedge_bytes_wasted);
  EXPECT_EQ(fs.hedges_issued, fs.hedges_won + fs.hedges_lost);
  if (cfg.detector.quarantine) {
    EXPECT_EQ(fs.quarantines, fs.detected + fs.false_positives);
  } else {
    EXPECT_EQ(fs.quarantines, 0u);
  }

  EXPECT_EQ(reg.counter("failslow.episodes").value(),
            fc.slow_episodes + fc.robot_slow_episodes);
  EXPECT_EQ(reg.gauge("failslow.drive_s").value(), fc.slow_drive_seconds);
  if (cfg.faults.failslow.robot_slow_mtbf.count() == 0.0) {
    EXPECT_EQ(fc.robot_slow_episodes, 0u);
  }
}

/// End-of-run reconciliation of the governor: per-class budget ledgers
/// balance exactly, and every governor.* registry counter equals its
/// GovernorStats field.
void check_governor_ledgers(SoakRun& run) {
  sched::RetrievalSimulator& sim = run.sim();
  const sched::SimulatorConfig& cfg = run.config();
  sim.governor().finish(sim.engine().now());
  const sched::GovernorStats& st = sim.governor_stats();
  auto& reg = run.tracer().registry();
  static constexpr sched::GovernorClass kClasses[] = {
      sched::GovernorClass::kRetry, sched::GovernorClass::kFailover,
      sched::GovernorClass::kHedge};
  for (const sched::GovernorClass cls : kClasses) {
    const sched::BudgetLedger& led = st.ledger(cls);
    EXPECT_EQ(led.attempts, led.admitted + led.fast_failed);
    EXPECT_EQ(led.fast_failed, led.budget_denied + led.breaker_denied);
    const std::string name = sched::to_string(cls);
    EXPECT_EQ(reg.counter("governor." + name + "_attempts").value(),
              led.attempts);
    EXPECT_EQ(reg.counter("governor." + name + "_admitted").value(),
              led.admitted);
    EXPECT_EQ(reg.counter("governor." + name + "_fast_failed").value(),
              led.fast_failed);
    if (!cfg.governor.enabled) {
      EXPECT_EQ(led.attempts, 0u) << "disabled governor must not account";
      EXPECT_EQ(led.demand, 0u);
    }
  }
  EXPECT_EQ(reg.counter("governor.breaker_opened").value(), st.breaker_opened);
  EXPECT_EQ(reg.counter("governor.breaker_reopened").value(),
            st.breaker_reopened);
  EXPECT_EQ(reg.counter("governor.breaker_closed").value(), st.breaker_closed);
  EXPECT_EQ(reg.counter("governor.breaker_probes").value(),
            st.breaker_probes);
  EXPECT_EQ(reg.counter("governor.metastable_trips").value(),
            st.metastable_trips);
  EXPECT_EQ(reg.counter("governor.metastable_releases").value(),
            st.metastable_releases);
  EXPECT_EQ(reg.counter("governor.shed_escalations").value(),
            st.shed_escalations);
  EXPECT_LE(st.metastable_releases, st.metastable_trips);
  EXPECT_LE(st.metastable_trips, st.shed_escalations);
  if (!cfg.governor.enabled || !cfg.governor.breaker.enabled) {
    EXPECT_EQ(st.breaker_opened, 0u);
    EXPECT_EQ(sim.governor().breakers_open(), 0u);
  }
  if (!cfg.governor.enabled || !cfg.governor.metastable.enabled) {
    EXPECT_EQ(st.metastable_trips, 0u);
    EXPECT_EQ(sim.governor().shed_level(), 0u);
  }
}

/// The copy engine's own ledger once it has run to quiescence: every
/// scheduled job completed or was abandoned, nothing is left queued or
/// holding a drive, and the registry's repair.* lane matches.
void check_repair_ledger(SoakRun& run) {
  const sched::RetrievalSimulator& sim = run.sim();
  const sched::RepairStats& rs = sim.repair_stats();
  EXPECT_EQ(rs.jobs_scheduled, rs.jobs_completed + rs.jobs_abandoned);
  EXPECT_EQ(sim.repair_backlog(), 0u);
  auto& reg = run.tracer().registry();
  EXPECT_EQ(reg.counter("repair.completed").value(), rs.jobs_completed);
  EXPECT_EQ(reg.counter("repair.copied_bytes").value(), rs.bytes_copied);
}

void finish_failslow(SoakRun& run) {
  EXPECT_EQ(run.parked_extents(), 0u) << "no outages in this posture";
  auto& reg = run.tracer().registry();
  EXPECT_EQ(reg.counter("sched.requests").value(), run.requests());
  const fault::FaultCounters& fc = run.sim().fault_injector()->counters();
  EXPECT_EQ(reg.counter("fault.mount_failures").value(), fc.mount_failures);
  EXPECT_EQ(reg.counter("fault.media_errors").value(), fc.media_errors);
  EXPECT_EQ(reg.counter("fault.drive_failures").value(), fc.drive_failures);
  check_failslow_ledgers(run);
}

void finish_repair(SoakRun& run) {
  // Request-boundary ledgers first: the fault and fail-slow deltas reach
  // the registry only when a request completes, not during the drain.
  check_fault_ledgers(run);
  check_failslow_ledgers(run);
  run.sim().drain_repairs();
  check_repair_ledger(run);
  check_governor_ledgers(run);
}

constexpr Posture kChaos{"chaos",        false, 0x9E3779B97F4A7C15ULL,
                         &chaos_config,  true,  0.5,
                         1200.0,         9000.0, &check_fault_ledgers};
constexpr Posture kFailSlow{"failslow",  true,  0xD1B54A32D192ED03ULL,
                            &failslow_chaos_config, false, 0.5,
                            1200.0,      9000.0, &finish_failslow};
constexpr Posture kGovernor{"governor",  true,  0xBF58476D1CE4E5B9ULL,
                            &governor_chaos_config, false, 0.6,
                            600.0,       6000.0, &check_governor_ledgers};
constexpr Posture kRepair{"repair",      true,  0x94D049BB133111EBULL,
                          &repair_chaos_config, true, 0.5,
                          1200.0,        9000.0, &finish_repair};

/// Serves one seed of `posture` and runs its end-of-run checks.
void soak(const Posture& posture, std::uint64_t seed) {
  SoakRun run(posture, seed);
  run.serve([](const metrics::RequestOutcome&) {});
  posture.finish(run);
}

class ChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSoak, InvariantsSurviveRandomizedSchedules) {
  soak(kChaos, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak,
                         ::testing::Range<std::uint64_t>(1, 21));

class FailSlowChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailSlowChaosSoak, HedgeAndQuarantineLedgersSurviveRandomSchedules) {
  soak(kFailSlow, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailSlowChaosSoak,
                         ::testing::Range<std::uint64_t>(1, 21));

class GovernorChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GovernorChaosSoak, BudgetLedgersSurviveRandomizedSchedules) {
  // Every run_request returns — a fast-failed retry or an open breaker
  // must never wedge a chain — and a fast-failed extent is accounted
  // unavailable (or expired), never dropped.
  soak(kGovernor, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GovernorChaosSoak,
                         ::testing::Range<std::uint64_t>(1, 21));

class RepairChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RepairChaosSoak, RepairLedgerSurvivesBackgroundEscalations) {
  // A scrub or repair read that escalates a cartridge to Lost must fail
  // over the demand waiting on it, or the released drive would read the
  // lost cartridge.
  soak(kRepair, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairChaosSoak,
                         ::testing::Range<std::uint64_t>(1, 21));
// Seeds on which drain_repairs used to wake again and again at one instant
// and never return: the due transition (a pinned drive's quarantine
// release, drive repairs behind overload pressure) was one no pump
// observes.
INSTANTIATE_TEST_SUITE_P(DrainStallSeeds, RepairChaosSoak,
                         ::testing::Values<std::uint64_t>(53, 103, 143, 305));

// --- outcome digest ---------------------------------------------------------
//
// Pins the modelled behaviour of all four soak postures, seeds 1-20 each:
// every RequestOutcome field (doubles by bit pattern), the engine clock
// after each request, the events dispatched, every stats struct, the
// injector's fault counters, the tracer registry's CSV export, and how
// often each event kind dispatched. A refactor of the scheduler must leave
// every digest unchanged: the digest moves only when modelled behaviour
// does, and a change that updates a pinned value says why in CHANGES.md.

/// FNV-1a over the bytes of every value folded in.
class Digest {
 public:
  void u(std::uint64_t v) { bytes(&v, sizeof v); }
  void f(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u(bits);
  }
  void s(const std::string& text) {
    u(text.size());
    bytes(text.data(), text.size());
  }
  /// Sample sets hash in sorted order: percentile queries sort in place.
  void samples(const SampleSet& set) {
    std::vector<double> sorted = set.samples();
    std::sort(sorted.begin(), sorted.end());
    u(sorted.size());
    for (const double x : sorted) f(x);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

void add_outcome(Digest& h, const metrics::RequestOutcome& o) {
  h.u(o.request.value());
  h.u(o.bytes.count());
  h.f(o.response.count());
  h.f(o.seek.count());
  h.f(o.transfer.count());
  h.f(o.switch_time.count());
  h.f(o.robot_wait.count());
  h.u(o.tape_switches);
  h.u(o.tapes_touched);
  h.u(o.drives_used);
  h.u(static_cast<std::uint64_t>(o.status));
  h.u(o.bytes_unavailable.count());
  h.u(o.extents_unavailable);
  h.u(o.failovers);
  h.u(o.extents_parked);
  h.u(o.mount_retries);
  h.u(o.media_retries);
  h.u(o.served_from_replica);
  h.u(o.repaired);
  h.u(o.latent_hits);
  h.u(static_cast<std::uint64_t>(o.priority));
  h.f(o.deadline.count());
  h.u(o.bytes_expired.count());
  h.u(o.extents_expired);
}

/// Everything a run leaves behind once its posture finished.
void add_final_state(Digest& h, SoakRun& run) {
  sched::RetrievalSimulator& sim = run.sim();
  h.u(sim.engine().events_dispatched());
  h.f(sim.engine().now().count());

  const sched::RepairStats& rs = sim.repair_stats();
  h.u(rs.jobs_scheduled);
  h.u(rs.jobs_completed);
  h.u(rs.jobs_abandoned);
  h.u(rs.bytes_copied);
  const sched::ScrubStats& sc = sim.scrub_stats();
  h.u(sc.passes);
  h.u(sc.passes_aborted);
  h.u(sc.bytes_verified);
  h.u(sc.latent_found);
  const sched::EvacStats& ev = sim.evac_stats();
  h.u(ev.started);
  h.u(ev.completed);
  h.u(ev.objects_moved);
  h.u(ev.preempted_unavailables);
  const sched::OutageStats& os = sim.outage_stats();
  h.u(os.started);
  h.u(os.ended);
  h.u(os.disasters);
  h.u(os.requests_parked);
  h.u(os.extents_parked);
  h.u(os.failovers);
  h.u(os.dr_jobs);
  h.u(os.dr_bytes);
  h.f(os.downtime.count());
  h.samples(os.ttfb);
  h.samples(os.redundancy_recovery);
  const sched::FailSlowStats& fs = sim.failslow_stats();
  h.u(fs.detected);
  h.u(fs.false_positives);
  h.u(fs.quarantines);
  h.u(fs.hedges_issued);
  h.u(fs.hedges_won);
  h.u(fs.hedges_lost);
  h.u(fs.hedge_bytes_wasted);
  h.samples(fs.detection_lag);
  h.samples(fs.hedge_win_margin);
  const sched::RecoveryStats& rc = sim.recovery_stats();
  h.u(rc.crashes);
  h.u(rc.checkpoints);
  h.u(rc.records_replayed);
  h.u(rc.lost_mutations);
  h.u(rc.reconciled_mutations);
  h.u(rc.admissions_parked);
  h.f(rc.downtime.count());
  h.f(rc.parked.count());
  h.samples(rc.rto);
  h.samples(rc.snapshot_age);
  const sched::GovernorStats& gs = sim.governor_stats();
  for (const sched::BudgetLedger& led : gs.ledgers) {
    h.u(led.demand);
    h.u(led.attempts);
    h.u(led.admitted);
    h.u(led.fast_failed);
    h.u(led.budget_denied);
    h.u(led.breaker_denied);
  }
  h.u(gs.breaker_opened);
  h.u(gs.breaker_reopened);
  h.u(gs.breaker_closed);
  h.u(gs.breaker_probes);
  h.u(gs.metastable_trips);
  h.u(gs.metastable_releases);
  h.u(gs.shed_escalations);

  const fault::FaultCounters& fc = sim.fault_injector()->counters();
  h.u(fc.drive_failures);
  h.u(fc.permanent_drive_failures);
  h.u(fc.mount_failures);
  h.u(fc.media_errors);
  h.u(fc.robot_jams);
  h.u(fc.degraded_cartridges);
  h.u(fc.lost_cartridges);
  h.u(fc.latent_events);
  h.u(fc.latent_observed);
  h.u(fc.library_outages);
  h.u(fc.library_disasters);
  h.u(fc.slow_episodes);
  h.u(fc.robot_slow_episodes);
  h.f(fc.slow_drive_seconds);
  h.u(fc.metadata_crashes);

  std::ostringstream csv;
  run.tracer().registry().write_csv(csv);
  h.s(csv.str());
}

TEST(OutcomeDigest, SoakPosturesReproducePinnedOutcomes) {
  struct Pin {
    const Posture* posture;
    std::uint64_t digest;
  };
  static constexpr Pin kPins[] = {
      {&kChaos, 0x34A99AAB09594A51ULL},
      {&kFailSlow, 0x7BE010004381312DULL},
      {&kGovernor, 0x219F5127D54710E1ULL},
      {&kRepair, 0x7F24EAE2F15FCCEEULL},
  };
  std::map<std::string, std::uint64_t> dispatched;
  for (const Pin& pin : kPins) {
    Digest digest;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SoakRun run(*pin.posture, seed);
      obs::Profiler profiler{1};
      profiler.attach(run.sim().engine());
      run.serve([&](const metrics::RequestOutcome& o) {
        add_outcome(digest, o);
        digest.f(run.sim().engine().now().count());
      });
      pin.posture->finish(run);
      profiler.detach();
      add_final_state(digest, run);
      for (const auto& [kind, stats] : profiler.report().by_label) {
        digest.s(kind);
        digest.u(stats.count);
        dispatched[kind] += stats.count;
      }
    }
    EXPECT_EQ(digest.value(), pin.digest)
        << pin.posture->name << " digest is 0x" << std::hex
        << digest.value();
  }
  // Every mount path and every fault-folded activity ran at least once,
  // so the pins above cover them.
  for (const char* kind :
       {"switch.mount_retry", "switch.return", "repair.return", "scrub.return",
        "quarantine.unload", "rescue.exchange", "background.load",
        "serve.media_error", "repair.media_error", "scrub.media_error",
        "drive.fail"}) {
    EXPECT_GT(dispatched[kind], 0u) << kind << " never dispatched";
  }
}

}  // namespace
}  // namespace tapesim
