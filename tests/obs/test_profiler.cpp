// Engine self-profiling: hook plumbing, aggregate math, the bit-identical
// guarantee when attached, exports, and detach semantics.
#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/replication.hpp"
#include "exp/experiment.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sched/simulator.hpp"
#include "sim/engine.hpp"

namespace tapesim::obs {
namespace {

TEST(Profiler, CountsDispatchesAndRuns) {
  sim::Engine engine;
  Profiler profiler;
  profiler.attach(engine);

  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_in(Seconds{static_cast<double>(i)}, [&fired] { ++fired; });
  }
  engine.run();
  engine.schedule_in(Seconds{1.0}, [&fired] { ++fired; });
  engine.run();

  const ProfileReport report = profiler.report();
  EXPECT_EQ(fired, 11);
  EXPECT_EQ(report.dispatches, 11u);
  EXPECT_EQ(report.runs, 2u);
  EXPECT_GE(report.run_wall_s, report.dispatch_wall_s);
  EXPECT_GE(report.dispatch_wall_s, 0.0);
  EXPECT_DOUBLE_EQ(report.sim_advanced_s, 10.0);
  EXPECT_GT(report.events_per_wall_s(), 0.0);
}

TEST(Profiler, LabelsSplitDispatchStats) {
  sim::Engine engine;
  Profiler profiler;
  profiler.attach(engine);

  engine.schedule_in(Seconds{1.0}, [] {}, "alpha");
  engine.schedule_in(Seconds{2.0}, [] {}, "alpha");
  engine.schedule_in(Seconds{3.0}, [] {}, "beta");
  engine.schedule_in(Seconds{4.0}, [] {});
  engine.run();

  const ProfileReport report = profiler.report();
  ASSERT_EQ(report.by_label.count("alpha"), 1u);
  ASSERT_EQ(report.by_label.count("beta"), 1u);
  ASSERT_EQ(report.by_label.count(""), 1u);
  EXPECT_EQ(report.by_label.at("alpha").count, 2u);
  EXPECT_EQ(report.by_label.at("beta").count, 1u);
  EXPECT_EQ(report.by_label.at("").count, 1u);
  EXPECT_GE(report.by_label.at("alpha").max_wall_s,
            report.by_label.at("alpha").mean_wall_s());
}

TEST(Profiler, SampleStrideKeepsTotalsExactButSamplesDetail) {
  sim::Engine engine;
  Profiler profiler{4};
  profiler.attach(engine);

  for (int i = 0; i < 10; ++i) {
    engine.schedule_in(Seconds{static_cast<double>(i + 1)}, [] {}, "tick");
  }
  engine.run();

  const ProfileReport report = profiler.report();
  // Totals come from the run bracket, so sampling cannot lose events.
  EXPECT_EQ(report.dispatches, 10u);
  EXPECT_EQ(report.sample_stride, 4u);
  // The first dispatch after attach is sampled, then every 4th:
  // dispatches 1, 5, and 9.
  EXPECT_EQ(report.sampled_dispatches, 3u);
  ASSERT_EQ(report.by_label.count("tick"), 1u);
  EXPECT_EQ(report.by_label.at("tick").count, 3u);
  // The estimate scales the sampled wall time back to the full run.
  EXPECT_GE(report.estimated_dispatch_wall_s(), report.dispatch_wall_s);
}

TEST(Profiler, ZeroStrideIsClampedToExact) {
  sim::Engine engine;
  Profiler profiler{0};
  profiler.attach(engine);
  for (int i = 0; i < 3; ++i) {
    engine.schedule_in(Seconds{static_cast<double>(i + 1)}, [] {});
  }
  engine.run();
  const ProfileReport report = profiler.report();
  EXPECT_EQ(report.sample_stride, 1u);
  EXPECT_EQ(report.sampled_dispatches, 3u);
  EXPECT_EQ(report.dispatches, 3u);
}

TEST(Profiler, QueueDepthHighWaterTracksBacklog) {
  sim::Engine engine;
  Profiler profiler;
  profiler.attach(engine);

  // 5 events pending; after the first dispatch the queue holds 4.
  for (int i = 0; i < 5; ++i) {
    engine.schedule_in(Seconds{static_cast<double>(i + 1)}, [] {});
  }
  engine.run();

  const ProfileReport report = profiler.report();
  EXPECT_EQ(report.queue_high_water, 4u);
  EXPECT_GT(report.queue_depth_mean, 0.0);
  EXPECT_LE(report.queue_depth_mean,
            static_cast<double>(report.queue_high_water));
}

// The core guarantee: the profiler observes wall clocks only, so a
// profiled run produces bit-identical simulated results. (The end-to-end
// version over a full simulator lives in tests/sim/test_engine.cpp.)
TEST(Profiler, AttachedRunIsBitIdenticalInSimTime) {
  const auto run_scenario = [](Profiler* profiler) {
    sim::Engine engine;
    if (profiler != nullptr) profiler->attach(engine);
    std::vector<double> fire_times;
    for (int i = 0; i < 50; ++i) {
      engine.schedule_in(Seconds{static_cast<double>((i * 37) % 11)},
                         [&fire_times, &engine] {
                           fire_times.push_back(engine.now().count());
                         });
    }
    engine.run();
    // The profiler outlives this engine: unhook it before the engine dies,
    // or ~Profiler would read the dead engine.
    if (profiler != nullptr) profiler->detach();
    return fire_times;
  };

  const std::vector<double> plain = run_scenario(nullptr);
  Profiler profiler;
  const std::vector<double> profiled = run_scenario(&profiler);
  EXPECT_EQ(plain, profiled);  // bitwise: same order, same times
  EXPECT_EQ(profiler.report().dispatches, 50u);
}

TEST(Profiler, DetachStopsRecordingButKeepsData) {
  sim::Engine engine;
  Profiler profiler;
  profiler.attach(engine);
  engine.schedule_in(Seconds{1.0}, [] {});
  engine.run();
  profiler.detach();
  engine.schedule_in(Seconds{1.0}, [] {});
  engine.run();

  const ProfileReport report = profiler.report();
  EXPECT_EQ(report.dispatches, 1u);
  EXPECT_EQ(report.runs, 1u);
}

TEST(Profiler, ResetZeroesAggregatesAndStaysAttached) {
  sim::Engine engine;
  Profiler profiler;
  profiler.attach(engine);
  engine.schedule_in(Seconds{1.0}, [] {}, "x");
  engine.run();
  profiler.reset();
  EXPECT_EQ(profiler.report().dispatches, 0u);
  EXPECT_TRUE(profiler.report().by_label.empty());

  engine.schedule_in(Seconds{1.0}, [] {});
  engine.run();
  EXPECT_EQ(profiler.report().dispatches, 1u);
}

TEST(Profiler, ExportToRegistryPublishesScalars) {
  sim::Engine engine;
  Profiler profiler;
  profiler.attach(engine);
  for (int i = 0; i < 3; ++i) {
    engine.schedule_in(Seconds{static_cast<double>(i)}, [] {});
  }
  engine.run();

  Registry registry;
  profiler.export_to(registry);
  EXPECT_EQ(registry.counter("profiler.dispatches").value(), 3u);
  EXPECT_EQ(registry.counter("profiler.runs").value(), 1u);
  EXPECT_GE(registry.gauge("profiler.run_wall_s").value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.gauge("profiler.sim_advanced_s").value(), 2.0);
  EXPECT_EQ(registry.gauge("profiler.queue_depth.high_water").value(), 2.0);
}

TEST(Profiler, WriteJsonIsParseableAndCarriesLabels) {
  sim::Engine engine;
  Profiler profiler;
  profiler.attach(engine);
  engine.schedule_in(Seconds{1.0}, [] {}, "mount \"a\"");
  engine.schedule_in(Seconds{2.0}, [] {});
  engine.run();

  std::ostringstream os;
  profiler.write_json(os);
  const auto value = parse_json(os.str());
  ASSERT_TRUE(value.has_value());
  ASSERT_TRUE(value->is_object());
  EXPECT_DOUBLE_EQ(value->number_or("dispatches", -1.0), 2.0);
  const JsonValue* by_label = value->find("by_label");
  ASSERT_NE(by_label, nullptr);
  ASSERT_TRUE(by_label->is_object());
  EXPECT_NE(by_label->find("mount \"a\""), nullptr);
  EXPECT_NE(by_label->find("(unlabeled)"), nullptr);
}

TEST(Profiler, ReattachMovesTheHook) {
  sim::Engine first;
  sim::Engine second;
  Profiler profiler;
  profiler.attach(first);
  profiler.attach(second);  // re-attach detaches from `first`

  first.schedule_in(Seconds{1.0}, [] {});
  first.run();
  EXPECT_EQ(profiler.report().dispatches, 0u);

  second.schedule_in(Seconds{1.0}, [] {});
  second.run();
  EXPECT_EQ(profiler.report().dispatches, 1u);
}

// Every event the scheduler books carries a static kind, so a profile of
// a fault-heavy run (hardware and media faults, fail-slow with hedges and
// quarantine, scrub, repair, deadlines) attributes all dispatch time by kind.
TEST(Profiler, FaultOnSimulatorLabelsEveryEvent) {
  exp::ExperimentConfig config;
  config.spec.num_libraries = 2;
  config.spec.library.drives_per_library = 3;
  config.spec.library.tapes_per_library = 24;
  config.spec.library.tape_capacity = 40_GB;
  config.workload.num_objects = 800;
  config.workload.num_requests = 60;
  config.workload.min_objects_per_request = 2;
  config.workload.max_objects_per_request = 8;
  config.workload.object_groups = 20;
  config.workload.min_object_size = Bytes{100ULL * 1000 * 1000};
  config.workload.max_object_size = Bytes{1500ULL * 1000 * 1000};
  config.seed = 11;
  const exp::Experiment experiment(config);
  const auto schemes = exp::make_standard_schemes(2);
  const core::PlacementContext context{&experiment.workload(), &config.spec,
                                       &experiment.clusters()};
  core::ReplicationPolicy::Params replication;
  replication.replicas = 2;
  const core::PlacementPlan plan =
      core::ReplicationPolicy(*schemes.parallel_batch, replication)
          .place(context);

  sched::SimulatorConfig cfg;
  cfg.faults.seed = 5;
  cfg.faults.mount_failure_prob = 0.05;
  cfg.faults.media_error_per_gb = 0.002;
  cfg.faults.drive_mtbf = Seconds{4e4};
  cfg.faults.drive_mttr = Seconds{900.0};
  cfg.faults.latent_decay_mtbf = Seconds{5000.0};
  cfg.faults.failslow.drive_slow_mtbf = Seconds{1e4};
  cfg.faults.failslow.drive_slow_duration = Seconds{5000.0};
  cfg.faults.failslow.drive_severity_min = 0.02;
  cfg.faults.failslow.drive_severity_max = 0.2;
  cfg.detector.enabled = true;
  cfg.detector.quarantine = true;
  cfg.hedge.enabled = true;
  cfg.hedge.min_history = 8;
  cfg.scrub.enabled = true;
  cfg.scrub.interval = Seconds{1000.0};
  cfg.scrub.bandwidth_fraction = 0.5;
  ASSERT_TRUE(cfg.try_validate().ok());
  sched::RetrievalSimulator sim(plan, cfg);

  Profiler profiler{1};
  profiler.attach(sim.engine());
  for (std::uint32_t r = 0; r < 40; ++r) {
    sched::RequestContext ctx;
    if (r % 3 == 0) ctx.deadline = sim.engine().now() + Seconds{5.0};
    (void)sim.run_request(RequestId{r}, ctx);
  }
  const ProfileReport report = profiler.report();
  ASSERT_GT(report.dispatches, 0u);
  EXPECT_EQ(report.sampled_dispatches, report.dispatches);
  std::string kinds;
  for (const auto& [label, stats] : report.by_label) {
    EXPECT_FALSE(label.empty()) << stats.count << " unlabeled dispatches";
    kinds += " " + label;
  }
  for (const char* kind : {"serve.locate", "serve.transfer", "switch.exchange",
                           "switch.load", "scrub.read", "deadline",
                           "resource.grant"}) {
    EXPECT_EQ(report.by_label.count(kind), 1u) << kind << " missing from"
                                               << kinds;
  }
}

}  // namespace
}  // namespace tapesim::obs
