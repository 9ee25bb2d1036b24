// Span tracing: engine sink plumbing, device probes, scheduler spans, the
// sampler, and the export formats. The heavyweight checks reconcile the
// trace against the simulator's own accounting (conservation).
#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "obs/json.hpp"
#include "sched/concurrent.hpp"
#include "sched/report.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace tapesim::obs {
namespace {

// --- sim::TraceSink extension (satellite: on_schedule / on_cancel) ---

struct RecordingSink : sim::TraceSink {
  struct Scheduled {
    Seconds now;
    Seconds at;
    sim::EventId id;
    std::string label;
  };
  std::vector<Scheduled> scheduled;
  std::vector<sim::EventId> dispatched;
  std::vector<sim::EventId> cancelled;

  void on_schedule(Seconds now, Seconds at, sim::EventId id,
                   const char* kind) override {
    scheduled.push_back({now, at, id, kind == nullptr ? "" : kind});
  }
  void on_dispatch(Seconds /*time*/, sim::EventId id,
                   const char* /*kind*/) override {
    dispatched.push_back(id);
  }
  void on_cancel(Seconds /*now*/, sim::EventId id) override {
    cancelled.push_back(id);
  }
};

TEST(TraceSink, OnScheduleReceivesScheduledTimeAndLabel) {
  sim::Engine engine;
  RecordingSink sink;
  engine.set_trace_sink(&sink);
  engine.schedule_in(Seconds{5.0}, [] {}, "five");
  engine.schedule_at(Seconds{2.0}, [] {}, "two");
  ASSERT_EQ(sink.scheduled.size(), 2u);
  EXPECT_DOUBLE_EQ(sink.scheduled[0].now.count(), 0.0);
  EXPECT_DOUBLE_EQ(sink.scheduled[0].at.count(), 5.0);
  EXPECT_EQ(sink.scheduled[0].label, "five");
  EXPECT_DOUBLE_EQ(sink.scheduled[1].at.count(), 2.0);
  engine.run();
  EXPECT_EQ(sink.dispatched.size(), 2u);
}

TEST(TraceSink, OnCancelFiresOnlyForPendingEvents) {
  sim::Engine engine;
  RecordingSink sink;
  engine.set_trace_sink(&sink);
  const sim::EventId id = engine.schedule_in(Seconds{1.0}, [] {});
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));  // already cancelled: no second callback
  ASSERT_EQ(sink.cancelled.size(), 1u);
  EXPECT_EQ(sink.cancelled[0], id);
  engine.run();
  EXPECT_TRUE(sink.dispatched.empty());
}

// A sink that overrides nothing compiles and is safely ignorable — the
// defaulted no-ops are the compatibility guarantee for existing sinks.
struct LegacySink : sim::TraceSink {};

TEST(TraceSink, DefaultedNoOpsKeepLegacySinksWorking) {
  sim::Engine engine;
  LegacySink sink;
  engine.set_trace_sink(&sink);
  const sim::EventId id = engine.schedule_in(Seconds{1.0}, [] {});
  engine.schedule_in(Seconds{2.0}, [] {});
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_DOUBLE_EQ(engine.run().count(), 2.0);
}

// --- Tracer on a bare engine ---

TEST(Tracer, KernelCountersFollowEngineActivity) {
  sim::Engine engine;
  Tracer tracer;
  tracer.bind(engine);
  engine.schedule_in(Seconds{1.0}, [] {});
  engine.schedule_in(Seconds{2.0}, [] {});
  const sim::EventId doomed = engine.schedule_in(Seconds{3.0}, [] {});
  engine.cancel(doomed);
  engine.run();

  const RegistrySnapshot snap = tracer.registry().snapshot();
  EXPECT_EQ(snap.counters.at("engine.events.scheduled"), 3u);
  EXPECT_EQ(snap.counters.at("engine.events.dispatched"), 2u);
  EXPECT_EQ(snap.counters.at("engine.events.cancelled"), 1u);
  const HistogramSnapshot& horizon =
      snap.histograms.at("engine.schedule_horizon_s");
  EXPECT_EQ(horizon.count, 3u);
  EXPECT_DOUBLE_EQ(horizon.min, 1.0);
  EXPECT_DOUBLE_EQ(horizon.max, 3.0);
}

TEST(Tracer, MarkersCarryTimeAndNote) {
  sim::Engine engine;
  Tracer tracer;
  tracer.bind(engine);
  engine.schedule_in(Seconds{4.0}, [&] {
    tracer.marker(Track::kEngine, 0, "midpoint");
  });
  engine.run();
  ASSERT_EQ(tracer.spans().size(), 1u);
  const Span& m = tracer.spans()[0];
  EXPECT_EQ(m.phase, Phase::kMarker);
  EXPECT_DOUBLE_EQ(m.start.count(), 4.0);
  EXPECT_DOUBLE_EQ(m.end.count(), 4.0);
  EXPECT_EQ(m.note, "midpoint");
}

TEST(Tracer, SamplerHonoursCadence) {
  sim::Engine engine;
  Tracer tracer;
  tracer.set_sample_cadence(Seconds{10.0});
  tracer.bind(engine);
  double value = 0.0;
  tracer.add_gauge("test.value", [&value]() { return value; });
  // One event per second for 60 s: samples must land at >= 10 s spacing.
  for (int i = 1; i <= 60; ++i) {
    engine.schedule_at(Seconds{static_cast<double>(i)},
                       [&value] { value += 1.0; });
  }
  engine.run();

  std::ostringstream os;
  tracer.write_jsonl(os);
  std::vector<double> sample_times;
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line)) {
    const auto v = parse_json(line);
    ASSERT_TRUE(v.has_value()) << line;
    if (v->string_or("type", "") == "sample") {
      sample_times.push_back(v->number_or("t_s", -1.0));
    }
  }
  ASSERT_GE(sample_times.size(), 5u);
  ASSERT_LE(sample_times.size(), 7u);  // 60 s / 10 s cadence, first at t=1
  for (std::size_t i = 1; i < sample_times.size(); ++i) {
    EXPECT_GE(sample_times[i] - sample_times[i - 1], 10.0 - 1e-9);
  }
}

TEST(Tracer, DetachKeepsRecordedDataAndStopsObserving) {
  sim::Engine engine;
  Tracer tracer;
  tracer.bind(engine);
  engine.schedule_in(Seconds{1.0}, [] {});
  engine.run();
  tracer.detach();
  // Engine activity after detach is invisible.
  engine.schedule_in(Seconds{1.0}, [] {});
  engine.run();
  EXPECT_EQ(tracer.registry().snapshot().counters.at(
                "engine.events.dispatched"),
            1u);
}

// --- full-pipeline conservation (the tentpole invariant) ---

exp::ExperimentConfig small_config() {
  exp::ExperimentConfig config;
  config.spec.num_libraries = 2;
  config.spec.library.drives_per_library = 3;
  config.spec.library.tapes_per_library = 10;
  config.spec.library.tape_capacity = 40_GB;
  config.workload.num_objects = 800;
  config.workload.num_requests = 25;
  config.workload.min_objects_per_request = 10;
  config.workload.max_objects_per_request = 20;
  config.workload.object_groups = 16;
  config.workload.min_object_size = Bytes{100ULL * 1000 * 1000};
  config.workload.max_object_size = 1_GB;
  config.simulated_requests = 40;
  return config;
}

TEST(TracerConservation, DriveSpansMatchUtilizationReport) {
  const exp::ExperimentConfig config = small_config();
  const exp::Experiment experiment(config);
  const auto schemes = exp::make_standard_schemes(1);

  Tracer tracer;
  const exp::TracedSchemeRun traced =
      experiment.run_traced(*schemes.parallel_batch, tracer);

  ASSERT_EQ(traced.utilization.drives.size(), config.spec.total_drives());
  for (const sched::DriveUtilization& du : traced.utilization.drives) {
    const std::uint32_t lane = du.drive.value();
    const auto total = [&](Phase p) {
      return tracer.lane_phase_total(Track::kDrive, lane, p).count();
    };
    EXPECT_NEAR(total(Phase::kTransfer), du.transferring.count(), 1e-6)
        << "drive " << lane;
    EXPECT_NEAR(total(Phase::kLocate), du.locating.count(), 1e-6)
        << "drive " << lane;
    EXPECT_NEAR(total(Phase::kRewind), du.rewinding.count(), 1e-6)
        << "drive " << lane;
    EXPECT_NEAR(total(Phase::kLoad), du.loading.count(), 1e-6)
        << "drive " << lane;
    EXPECT_NEAR(total(Phase::kUnload), du.unloading.count(), 1e-6)
        << "drive " << lane;
  }
  for (const sched::RobotUtilization& ru : traced.utilization.robots) {
    EXPECT_NEAR(tracer
                    .lane_phase_total(Track::kRobot, ru.library.value(),
                                      Phase::kRobotMove)
                    .count(),
                ru.busy.count(), 1e-6)
        << "robot " << ru.library.value();
  }
}

TEST(TracerConservation, RequestSpansMatchOutcomes) {
  const exp::ExperimentConfig config = small_config();
  const exp::Experiment experiment(config);
  const auto schemes = exp::make_standard_schemes(1);

  Tracer tracer;
  const exp::TracedSchemeRun traced =
      experiment.run_traced(*schemes.object_probability, tracer);

  // One whole-request span per simulated request, total duration equal to
  // the summed response times the metrics aggregated.
  const auto totals = tracer.phase_totals(Track::kRequest);
  const auto it = totals.find(Phase::kRequest);
  ASSERT_NE(it, totals.end());
  EXPECT_EQ(it->second.spans, config.simulated_requests);
  const double mean_from_spans =
      it->second.total.count() / static_cast<double>(it->second.spans);
  EXPECT_NEAR(mean_from_spans,
              traced.run.metrics.mean_response().count(), 1e-6);

  // Drive-side robot-wait spans must sum to the per-request robot wait the
  // scheduler recorded into the registry (the spans skip zero-length
  // waits; those add nothing to either side).
  double span_wait = 0.0;
  for (std::uint32_t d = 0; d < config.spec.total_drives(); ++d) {
    span_wait +=
        tracer.lane_phase_total(Track::kDrive, d, Phase::kRobotWait).count();
  }
  const auto snap = tracer.registry().snapshot();
  EXPECT_NEAR(span_wait,
              snap.histograms.at("sched.request.robot_wait_s").sum, 1e-6);
}

TEST(TracerConservation, SpansAreCausalAndLanesConsistent) {
  const exp::ExperimentConfig config = small_config();
  const exp::Experiment experiment(config);
  const auto schemes = exp::make_standard_schemes(1);
  Tracer tracer;
  (void)experiment.run_traced(*schemes.parallel_batch, tracer);
  ASSERT_FALSE(tracer.spans().empty());
  for (const Span& s : tracer.spans()) {
    EXPECT_GE(s.end.count(), s.start.count());
    if (s.track == Track::kDrive) {
      EXPECT_LT(s.track_id, config.spec.total_drives());
    }
    if (s.track == Track::kRobot) {
      EXPECT_LT(s.track_id, config.spec.num_libraries);
    }
  }
}

TEST(Tracer, ConcurrentSimulatorEmitsOneSpanPerArrival) {
  const exp::ExperimentConfig config = small_config();
  const exp::Experiment experiment(config);
  const auto schemes = exp::make_standard_schemes(1);
  core::PlacementContext context{&experiment.workload(), &config.spec,
                                 &experiment.clusters()};
  const core::PlacementPlan plan = schemes.parallel_batch->place(context);

  Tracer tracer;
  sched::SimulatorConfig sim;
  sim.tracer = &tracer;
  std::vector<sched::SojournOutcome> outcomes;
  {
    sched::ConcurrentSimulator simulator(plan, sim);
    Rng rng{11};
    const workload::RequestSampler sampler(experiment.workload());
    const auto arrivals =
        sched::poisson_arrivals(sampler, 1.0 / 120.0, 30, rng);
    outcomes = simulator.run(arrivals);
  }  // simulator destroyed: tracer must have detached cleanly

  const auto totals = tracer.phase_totals(Track::kRequest);
  const auto it = totals.find(Phase::kRequest);
  ASSERT_NE(it, totals.end());
  EXPECT_EQ(it->second.spans, outcomes.size());
  const auto snap = tracer.registry().snapshot();
  EXPECT_EQ(snap.counters.at("sched.requests"), outcomes.size());
  EXPECT_GT(snap.histograms.at("sched.demand.queue_wait_s").count, 0u);
}

// --- export formats ---

TEST(TracerExport, JsonlEveryLineParsesAndStartsWithMeta) {
  const exp::ExperimentConfig config = small_config();
  const exp::Experiment experiment(config);
  const auto schemes = exp::make_standard_schemes(1);
  Tracer tracer;
  (void)experiment.run_traced(*schemes.parallel_batch, tracer);

  std::ostringstream os;
  tracer.write_jsonl(os);
  std::istringstream lines(os.str());
  std::string line;
  std::size_t n = 0;
  std::size_t spans = 0;
  while (std::getline(lines, line)) {
    const auto v = parse_json(line);
    ASSERT_TRUE(v.has_value()) << "line " << n << ": " << line;
    ASSERT_TRUE(v->is_object());
    if (n == 0) {
      EXPECT_EQ(v->string_or("type", ""), "meta");
      EXPECT_EQ(v->string_or("time_unit", ""), "s");
    }
    if (v->string_or("type", "") == "span") {
      ++spans;
      EXPECT_GE(v->number_or("end_s", -1.0), v->number_or("start_s", 0.0));
    }
    ++n;
  }
  EXPECT_EQ(spans, tracer.spans().size());
}

TEST(TracerExport, ChromeTraceIsValidJsonWithNonNegativeDurations) {
  const exp::ExperimentConfig config = small_config();
  const exp::Experiment experiment(config);
  const auto schemes = exp::make_standard_schemes(1);
  Tracer tracer;
  tracer.set_sample_cadence(Seconds{100.0});
  (void)experiment.run_traced(*schemes.parallel_batch, tracer);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const auto doc = parse_json(os.str());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array().empty());

  std::size_t complete = 0;
  std::size_t counters = 0;
  std::size_t metadata = 0;
  for (const JsonValue& e : events->array()) {
    ASSERT_TRUE(e.is_object());
    const std::string ph = e.string_or("ph", "");
    if (ph == "X") {
      ++complete;
      EXPECT_GE(e.number_or("ts", -1.0), 0.0);
      EXPECT_GE(e.number_or("dur", -1.0), 0.0);
      EXPECT_GE(e.number_or("pid", 0.0), 1.0);
      EXPECT_LE(e.number_or("pid", 0.0), 10.0);
    } else if (ph == "C") {
      ++counters;
    } else if (ph == "M") {
      ++metadata;
    }
  }
  EXPECT_GT(complete, 0u);
  EXPECT_GT(counters, 0u);   // the sampler ran
  EXPECT_EQ(metadata, 10u);  // one process_name per track group
}

}  // namespace
}  // namespace tapesim::obs
