#include "obs/tracer.hpp"

#include <fstream>
#include <optional>
#include <ostream>
#include <utility>

#include "obs/json.hpp"
#include "sim/resource.hpp"
#include "tape/system.hpp"
#include "util/log.hpp"

namespace tapesim::obs {

const char* to_string(Track t) {
  switch (t) {
    case Track::kRequest: return "request";
    case Track::kDrive: return "drive";
    case Track::kRobot: return "robot";
    case Track::kEngine: return "engine";
    case Track::kRepair: return "repair";
    case Track::kOverload: return "overload";
    case Track::kScrub: return "scrub";
    case Track::kOutage: return "outage";
    case Track::kHedge: return "hedge";
    case Track::kQuarantine: return "quarantine";
    case Track::kRecovery: return "recovery";
    case Track::kBreaker: return "breaker";
  }
  return "?";
}

const char* to_string(Phase p) {
  switch (p) {
    case Phase::kQueueWait: return "queue_wait";
    case Phase::kRobotWait: return "robot_wait";
    case Phase::kRobotMove: return "robot_move";
    case Phase::kUnload: return "unload";
    case Phase::kLoad: return "load";
    case Phase::kLocate: return "locate";
    case Phase::kTransfer: return "transfer";
    case Phase::kRewind: return "rewind";
    case Phase::kFault: return "fault";
    case Phase::kRequest: return "request";
    case Phase::kRepair: return "repair";
    case Phase::kShed: return "shed";
    case Phase::kExpired: return "expired";
    case Phase::kScrub: return "scrub";
    case Phase::kOutage: return "outage";
    case Phase::kHedge: return "hedge";
    case Phase::kQuarantine: return "quarantine";
    case Phase::kRecovery: return "recovery";
    case Phase::kBreaker: return "breaker";
    case Phase::kMarker: return "marker";
  }
  return "?";
}

namespace {

/// Maps an activity state to its span phase; nullopt for passive states.
std::optional<Phase> phase_of_state(tape::DriveState s) {
  switch (s) {
    case tape::DriveState::kLoading: return Phase::kLoad;
    case tape::DriveState::kLocating: return Phase::kLocate;
    case tape::DriveState::kTransferring: return Phase::kTransfer;
    case tape::DriveState::kRewinding: return Phase::kRewind;
    case tape::DriveState::kUnloading: return Phase::kUnload;
    case tape::DriveState::kFailed: return Phase::kFault;
    case tape::DriveState::kEmpty:
    case tape::DriveState::kIdle: return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

/// Feeds kernel-event statistics to the registry and drives the samplers.
/// References to the instruments are resolved once here — the per-event
/// path touches no maps and no strings.
class Tracer::EngineSink final : public sim::TraceSink {
 public:
  explicit EngineSink(Tracer& tracer)
      : tracer_(tracer),
        scheduled_(tracer.registry_.counter("engine.events.scheduled")),
        dispatched_(tracer.registry_.counter("engine.events.dispatched")),
        cancelled_(tracer.registry_.counter("engine.events.cancelled")),
        horizon_(tracer.registry_.histogram(
            "engine.schedule_horizon_s",
            BucketLayout::exponential(1e-3, 1e6, 2.0))) {}

  void on_schedule(Seconds now, Seconds at, sim::EventId /*event_id*/,
                   const char* /*kind*/) override {
    scheduled_.inc();
    horizon_.record((at - now).count());
  }

  void on_dispatch(Seconds time, sim::EventId /*event_id*/,
                   const char* /*kind*/) override {
    dispatched_.inc();
    tracer_.take_samples(time);
    if (tracer_.timeseries_ != nullptr) {
      tracer_.timeseries_->advance_to(time);
    }
  }

  void on_cancel(Seconds /*now*/, sim::EventId /*event_id*/) override {
    cancelled_.inc();
  }

 private:
  Tracer& tracer_;
  Counter& scheduled_;
  Counter& dispatched_;
  Counter& cancelled_;
  Histogram& horizon_;
};

/// One probe serves every drive: transitions into an activity state open a
/// span on the drive's lane, transitions out close it.
class Tracer::DriveProbe final : public tape::DriveObserver {
 public:
  explicit DriveProbe(Tracer& tracer) : tracer_(tracer) {}

  void on_transition(const tape::TapeDrive& drive, tape::DriveState from,
                     tape::DriveState to) override {
    const std::size_t lane = drive.id().index();
    if (open_.size() <= lane) open_.resize(lane + 1);
    if (const auto closing = phase_of_state(from)) {
      Span span;
      span.track = Track::kDrive;
      span.track_id = drive.id().value();
      span.phase = *closing;
      span.start = open_[lane].start;
      span.end = tracer_.now();
      span.tape = open_[lane].tape;
      span.request = open_[lane].request;
      tracer_.record(std::move(span));
    }
    if (phase_of_state(to)) {
      open_[lane].start = tracer_.now();
      open_[lane].tape = drive.mounted();
      open_[lane].request = tracer_.current_request();
    }
  }

 private:
  struct OpenSpan {
    Seconds start{};
    TapeId tape{};
    RequestId request{};
  };
  Tracer& tracer_;
  std::vector<OpenSpan> open_;
};

/// One probe per robot: each release closes a busy span on the robot lane,
/// and queueing delays land in the wait-time histogram.
class Tracer::RobotProbe final : public sim::ResourceObserver {
 public:
  RobotProbe(Tracer& tracer, std::uint32_t lane)
      : tracer_(tracer),
        lane_(lane),
        wait_hist_(tracer.registry_.histogram(
            "robot.wait_s", BucketLayout::exponential(1e-3, 1e5, 2.0))),
        grants_(tracer.registry_.counter("robot.grants")) {}

  void on_grant(const sim::Resource& /*resource*/, Seconds waited) override {
    grants_.inc();
    wait_hist_.record(waited.count());
  }

  void on_release(const sim::Resource& /*resource*/, Seconds held) override {
    Span span;
    span.track = Track::kRobot;
    span.track_id = lane_;
    span.phase = Phase::kRobotMove;
    span.start = tracer_.now() - held;
    span.end = tracer_.now();
    span.request = tracer_.current_request();
    tracer_.record(std::move(span));
  }

 private:
  Tracer& tracer_;
  std::uint32_t lane_;
  Histogram& wait_hist_;
  Counter& grants_;
};

Tracer::Tracer() = default;

Tracer::~Tracer() { detach(); }

void Tracer::bind(sim::Engine& engine) {
  unbind();
  engine_ = &engine;
  sink_ = std::make_unique<EngineSink>(*this);
  engine.set_trace_sink(sink_.get());
  next_sample_ = engine.now();
  // The tracer becomes the single source of truth for event narration:
  // log lines gain the simulation timestamp and are captured as markers.
  set_log_time_provider([eng = engine_]() { return eng->now().count(); });
  set_log_hook([this](LogLevel level, double /*sim_time*/,
                      const std::string& message) {
    if (level <= LogLevel::kDebug) marker(Track::kEngine, 0, message);
  });
}

void Tracer::unbind() {
  if (engine_ == nullptr) return;
  engine_->set_trace_sink(nullptr);
  engine_ = nullptr;
  sink_.reset();
  set_log_time_provider({});
  set_log_hook({});
}

void Tracer::observe(tape::TapeSystem& system) {
  detach_system();
  system_ = &system;
  auto drive_probe = std::make_unique<DriveProbe>(*this);
  for (tape::TapeLibrary& library : system.libraries()) {
    for (tape::TapeDrive& drive : library.drives()) {
      drive.set_observer(drive_probe.get());
    }
    auto robot_probe =
        std::make_unique<RobotProbe>(*this, library.id().value());
    library.robot().set_observer(robot_probe.get());
    robot_probes_.push_back(std::move(robot_probe));

    // Fleet gauges for the periodic sampler.
    const std::string prefix =
        "tape.lib" + std::to_string(library.id().value());
    tape::TapeLibrary* lib = &library;
    add_gauge(prefix + ".drives_active", [lib]() {
      double active = 0.0;
      for (const tape::TapeDrive& d : lib->drives()) {
        if (!d.idle() && !d.empty() && !d.failed()) active += 1.0;
      }
      return active;
    });
    add_gauge(prefix + ".robot_queue", [lib]() {
      return static_cast<double>(lib->robot().queue_length()) +
             (lib->robot().busy() ? 1.0 : 0.0);
    });
  }
  drive_probes_.push_back(std::move(drive_probe));
  if (engine_ != nullptr) {
    sim::Engine* eng = engine_;
    add_gauge("engine.queue_depth",
              [eng]() { return static_cast<double>(eng->events_pending()); });
  }
}

void Tracer::detach_system() {
  if (system_ != nullptr) {
    for (tape::TapeLibrary& library : system_->libraries()) {
      for (tape::TapeDrive& drive : library.drives()) {
        drive.set_observer(nullptr);
      }
      library.robot().set_observer(nullptr);
    }
    system_ = nullptr;
  }
  drive_probes_.clear();
  robot_probes_.clear();
}

void Tracer::detach() {
  unbind();
  detach_system();
  // Disarm the callbacks — they reference the detached system and must
  // never fire again — but keep the collected samples for export.
  for (GaugeSeries& g : gauges_) g.fn = nullptr;
}

Seconds Tracer::now() const {
  return engine_ != nullptr ? engine_->now() : Seconds{0.0};
}

void Tracer::record(Span span) { spans_.push_back(std::move(span)); }

void Tracer::marker(Track track, std::uint32_t track_id, std::string note) {
  Span span;
  span.track = track;
  span.track_id = track_id;
  span.phase = Phase::kMarker;
  span.start = now();
  span.end = span.start;
  span.request = current_request_;
  span.note = std::move(note);
  spans_.push_back(std::move(span));
}

void Tracer::add_gauge(std::string name, std::function<double()> fn) {
  gauges_.push_back(GaugeSeries{std::move(name), std::move(fn), {}});
}

void Tracer::take_samples(Seconds now_time) {
  if (cadence_.count() <= 0.0 || gauges_.empty()) return;
  if (now_time < next_sample_) return;
  for (GaugeSeries& g : gauges_) {
    if (g.fn) g.samples.emplace_back(now_time, g.fn());
  }
  next_sample_ = now_time + cadence_;
}

std::map<Phase, PhaseAgg> Tracer::phase_totals(Track track) const {
  std::map<Phase, PhaseAgg> totals;
  for (const Span& s : spans_) {
    if (s.track != track || s.phase == Phase::kMarker) continue;
    PhaseAgg& agg = totals[s.phase];
    ++agg.spans;
    agg.total += s.duration();
  }
  return totals;
}

Seconds Tracer::lane_phase_total(Track track, std::uint32_t lane,
                                 Phase phase) const {
  Seconds total{};
  for (const Span& s : spans_) {
    if (s.track == track && s.track_id == lane && s.phase == phase) {
      total += s.duration();
    }
  }
  return total;
}

void Tracer::write_jsonl(std::ostream& os) const {
  os.precision(15);
  os << R"({"type":"meta","version":1,"time_unit":"s"})" << '\n';
  for (const Span& s : spans_) {
    os << R"({"type":"span","track":")" << to_string(s.track)
       << R"(","lane":)" << s.track_id << R"(,"phase":")"
       << to_string(s.phase) << R"(","start_s":)" << s.start.count()
       << R"(,"end_s":)" << s.end.count();
    if (s.request.valid()) os << R"(,"request":)" << s.request.value();
    if (s.tape.valid()) os << R"(,"tape":)" << s.tape.value();
    if (!s.note.empty()) os << R"(,"note":")" << escape_json(s.note) << '"';
    os << "}\n";
  }
  for (const GaugeSeries& g : gauges_) {
    for (const auto& [t, v] : g.samples) {
      os << R"({"type":"sample","name":")" << escape_json(g.name)
         << R"(","t_s":)" << t.count() << R"(,"value":)" << v << "}\n";
    }
  }
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  os.precision(15);
  // Microseconds: the native unit of the trace_event format.
  const auto us = [](Seconds s) { return s.count() * 1e6; };
  os << "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&]() {
    if (!first) os << ",\n";
    first = false;
  };
  for (const auto& [pid, name] :
       {std::pair<int, const char*>{1, "requests"},
        {2, "drives"},
        {3, "robots"},
        {4, "engine"},
        {5, "repair"},
        {6, "overload"},
        {7, "scrub"},
        {8, "outage"},
        {9, "hedge"},
        {10, "quarantine"}}) {
    sep();
    os << R"({"name":"process_name","ph":"M","pid":)" << pid
       << R"(,"tid":0,"args":{"name":")" << name << R"("}})";
  }
  for (const Span& s : spans_) {
    sep();
    const int pid = static_cast<int>(s.track);
    if (s.phase == Phase::kMarker) {
      os << R"({"name":")" << escape_json(s.note.empty() ? "marker" : s.note)
         << R"(","cat":")" << to_string(s.track)
         << R"(","ph":"i","s":"t","ts":)" << us(s.start) << R"(,"pid":)"
         << pid << R"(,"tid":)" << s.track_id << "}";
      continue;
    }
    os << R"({"name":")" << to_string(s.phase) << R"(","cat":")"
       << to_string(s.track) << R"(","ph":"X","ts":)" << us(s.start)
       << R"(,"dur":)" << us(s.end - s.start) << R"(,"pid":)" << pid
       << R"(,"tid":)" << s.track_id << R"(,"args":{)";
    bool first_arg = true;
    if (s.request.valid()) {
      os << R"("request":)" << s.request.value();
      first_arg = false;
    }
    if (s.tape.valid()) {
      os << (first_arg ? "" : ",") << R"("tape":)" << s.tape.value();
      first_arg = false;
    }
    if (!s.note.empty()) {
      os << (first_arg ? "" : ",") << R"("note":")" << escape_json(s.note)
         << '"';
    }
    os << "}}";
  }
  for (const GaugeSeries& g : gauges_) {
    for (const auto& [t, v] : g.samples) {
      sep();
      os << R"({"name":")" << escape_json(g.name)
         << R"(","ph":"C","ts":)" << us(t)
         << R"(,"pid":4,"tid":0,"args":{"value":)" << v << "}}";
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

namespace {
bool write_file(const std::string& path,
                const std::function<void(std::ostream&)>& writer) {
  std::ofstream out(path);
  if (!out) {
    TAPESIM_LOG(kWarn) << "cannot open trace output file: " << path;
    return false;
  }
  writer(out);
  return static_cast<bool>(out);
}
}  // namespace

bool Tracer::write_jsonl_file(const std::string& path) const {
  return write_file(path, [this](std::ostream& os) { write_jsonl(os); });
}

bool Tracer::write_chrome_trace_file(const std::string& path) const {
  return write_file(path,
                    [this](std::ostream& os) { write_chrome_trace(os); });
}

}  // namespace tapesim::obs
