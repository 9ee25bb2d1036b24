#include "sched/concurrent.hpp"

#include <algorithm>
#include <cmath>

#include "obs/tracer.hpp"
#include "util/assert.hpp"

namespace tapesim::sched {

std::vector<Arrival> poisson_arrivals(const workload::RequestSampler& sampler,
                                      double rate, std::uint32_t count,
                                      Rng& rng) {
  TAPESIM_ASSERT_MSG(rate > 0.0, "arrival rate must be positive");
  std::vector<Arrival> arrivals;
  arrivals.reserve(count);
  double clock = 0.0;
  for (std::uint32_t i = 0; i < count; ++i) {
    // Exponential inter-arrival via inverse CDF.
    clock += -std::log(1.0 - rng.uniform()) / rate;
    arrivals.push_back(Arrival{Seconds{clock}, sampler.sample(rng)});
  }
  return arrivals;
}

ConcurrentSimulator::ConcurrentSimulator(const core::PlacementPlan& plan,
                                         SimulatorConfig config)
    : plan_(&plan),
      system_(plan.spec(), engine_),
      catalog_(plan.to_catalog()),
      config_(config),
      disk_streams_(engine_, "disk", config.max_concurrent_streams) {
  for (const auto& [drive, tp] : plan_->mount_policy.initial_mounts) {
    system_.setup_mount(tp, drive);
  }
  drive_busy_.assign(plan.spec().total_drives(), false);
  if (config_.tracer != nullptr) {
    config_.tracer->bind(engine_);
    config_.tracer->observe(system_);
    demand_wait_ = &config_.tracer->registry().histogram(
        "sched.demand.queue_wait_s",
        obs::BucketLayout::exponential(0.1, 1e5, 1.3));
  }
}

ConcurrentSimulator::~ConcurrentSimulator() {
  if (config_.tracer != nullptr) config_.tracer->detach();
}

bool ConcurrentSimulator::switch_eligible(DriveId d) const {
  return !plan_->mount_policy.pinned(d);
}

void ConcurrentSimulator::credit(const Demand& demand) {
  for (const std::uint32_t instance : demand.instances) {
    TAPESIM_ASSERT(remaining_[instance] > 0);
    if (--remaining_[instance] == 0) {
      outcomes_[instance].completion = engine_.now();
      if (engine_.now() > makespan_) makespan_ = engine_.now();
    }
  }
}

void ConcurrentSimulator::on_arrival(std::uint32_t instance) {
  const workload::Request& request =
      plan_->workload().request(arrivals_[instance].request);
  std::vector<LibraryId> touched;
  Bytes bytes{};
  for (const ObjectId o : request.objects) {
    const catalog::ObjectRecord* rec = catalog_.lookup(o);
    TAPESIM_ASSERT_MSG(rec != nullptr, "request references unplaced object");
    bytes += rec->size;
    auto& tape_demand = demand_[rec->tape.value()];
    // Merge into an existing outstanding demand for the same object (it
    // has not been popped yet, so one read will serve both instances).
    const auto it = std::find_if(
        tape_demand.begin(), tape_demand.end(),
        [&](const Demand& dm) { return dm.object == o; });
    if (it != tape_demand.end()) {
      it->instances.push_back(instance);
    } else {
      tape_demand.push_back(
          Demand{o, rec->offset, rec->size, engine_.now(), {instance}});
    }
    ++remaining_[instance];
    touched.push_back(rec->library);
  }
  outcomes_[instance].bytes = bytes;
  outcomes_[instance].arrival = engine_.now();
  if (remaining_[instance] == 0) {
    outcomes_[instance].completion = engine_.now();
    return;
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const LibraryId lib : touched) wake_library(lib);
}

void ConcurrentSimulator::wake_library(LibraryId lib) {
  // Wake idle drives, cheapest eviction first (empty drives, then the
  // least popular mounted tape) — the same policy as the serial simulator.
  tape::TapeLibrary& library = system_.library(lib);
  std::vector<DriveId> idle;
  for (const tape::TapeDrive& drive : library.drives()) {
    if (!drive_busy_[drive.id().index()]) idle.push_back(drive.id());
  }
  const auto& popularity = plan_->mount_policy.tape_popularity;
  auto cost = [&](DriveId d) {
    const tape::TapeDrive& drive = system_.drive(d);
    if (drive.empty()) return -1.0;
    if (popularity.empty()) return 0.0;
    return popularity[drive.mounted().index()];
  };
  std::sort(idle.begin(), idle.end(), [&](DriveId a, DriveId b) {
    const double ca = cost(a);
    const double cb = cost(b);
    if (ca != cb) return ca < cb;
    return a < b;
  });
  for (const DriveId d : idle) drive_check(d);
}

void ConcurrentSimulator::drive_check(DriveId d) {
  if (drive_busy_[d.index()]) return;
  tape::TapeDrive& drive = system_.drive(d);
  if (!drive.empty()) {
    const auto it = demand_.find(drive.mounted().value());
    if (it != demand_.end() && !it->second.empty()) {
      serve_next(d);
      return;
    }
  }
  maybe_switch(d);
}

void ConcurrentSimulator::serve_next(DriveId d) {
  tape::TapeDrive& drive = system_.drive(d);
  auto& tape_demand = demand_[drive.mounted().value()];
  TAPESIM_ASSERT(!tape_demand.empty());

  // Nearest outstanding extent from the current head position (greedy
  // elevator; with optimization off, strict FIFO of demand arrival).
  std::size_t pick = 0;
  if (config_.optimize_seek_order) {
    Bytes best = Bytes::distance(drive.head(), tape_demand[0].offset);
    for (std::size_t i = 1; i < tape_demand.size(); ++i) {
      const Bytes dist = Bytes::distance(drive.head(), tape_demand[i].offset);
      if (dist < best) {
        best = dist;
        pick = i;
      }
    }
  }
  const Demand demand = tape_demand[pick];
  if (demand_wait_ != nullptr) {
    demand_wait_->record((engine_.now() - demand.since).count());
  }
  tape_demand.erase(tape_demand.begin() +
                    static_cast<std::ptrdiff_t>(pick));
  if (tape_demand.empty()) demand_.erase(drive.mounted().value());

  drive_busy_[d.index()] = true;
  const Seconds locate = drive.start_locate(demand.offset);
  engine_.schedule_in(locate, [this, d, demand]() {
    system_.drive(d).finish_locate();
    disk_streams_.acquire([this, d, demand]() {
      tape::TapeDrive& dr = system_.drive(d);
      const Seconds xfer = dr.start_transfer(demand.size);
      engine_.schedule_in(xfer, [this, d, demand]() {
        disk_streams_.release();
        system_.drive(d).finish_transfer();
        credit(demand);
        drive_busy_[d.index()] = false;
        drive_check(d);
      }, "serve.transfer");
    });
  }, "serve.locate");
}

void ConcurrentSimulator::maybe_switch(DriveId d) {
  if (!switch_eligible(d)) return;
  const LibraryId lib = system_.library_of_drive(d);
  const tape::TapeLibrary& library = system_.library(lib);

  // The unclaimed demanded offline tape of this library, ranked by the
  // configured policy: most outstanding bytes (greedy throughput) or
  // oldest waiting demand (fairness).
  TapeId target{};
  Bytes best_bytes{};
  Seconds best_age{1e300};
  for (const auto& [tape_value, demands] : demand_) {
    const TapeId tp{tape_value};
    if (!library.owns_tape(tp)) continue;
    if (system_.is_mounted(tp)) continue;
    if (claimed_.count(tape_value) != 0) continue;
    if (config_.tape_pick == SimulatorConfig::TapePick::kMostDemandedBytes) {
      Bytes outstanding{};
      for (const Demand& dm : demands) outstanding += dm.size;
      if (!target.valid() || outstanding > best_bytes ||
          (outstanding == best_bytes && tp < target)) {
        target = tp;
        best_bytes = outstanding;
      }
    } else {
      Seconds oldest{1e300};
      for (const Demand& dm : demands) oldest = std::min(oldest, dm.since);
      if (!target.valid() || oldest < best_age ||
          (oldest == best_age && tp < target)) {
        target = tp;
        best_age = oldest;
      }
    }
  }
  if (!target.valid()) return;
  claimed_[target.value()] = d;
  begin_switch(d, target);
}

void ConcurrentSimulator::begin_switch(DriveId d, TapeId target) {
  drive_busy_[d.index()] = true;
  tape::TapeDrive& drive = system_.drive(d);
  tape::TapeLibrary& lib = system_.library(system_.library_of_drive(d));

  auto exchange = [this, d, &lib, target](bool had_tape) {
    lib.robot().acquire([this, d, &lib, target, had_tape]() {
      auto do_moves = [this, d, &lib, target, had_tape]() {
        const Seconds move = had_tape ? lib.robot_exchange_time()
                                      : lib.robot_move_time();
        engine_.schedule_in(move, [this, d, &lib, target]() {
          if (!config_.robot_holds_load) lib.robot().release();
          tape::TapeDrive& dr = system_.drive(d);
          const Seconds load = dr.start_load(target);
          engine_.schedule_in(load, [this, d, &lib, target]() {
            if (config_.robot_holds_load) lib.robot().release();
            system_.drive(d).finish_load();
            system_.note_mounted(target, d);
            claimed_.erase(target.value());
            ++total_switches_;
            drive_busy_[d.index()] = false;
            drive_check(d);
          }, "switch.load");
        }, "switch.exchange");
      };
      if (!had_tape) {
        do_moves();
        return;
      }
      tape::TapeDrive& dr = system_.drive(d);
      const Seconds unload = dr.start_unload();
      engine_.schedule_in(unload, [this, d, do_moves]() {
        const TapeId old = system_.drive(d).finish_unload();
        system_.note_unmounted(old);
        do_moves();
      }, "switch.unload");
    });
  };

  if (drive.empty()) {
    exchange(false);
    return;
  }
  const Seconds rewind = drive.start_rewind();
  engine_.schedule_in(rewind, [this, d, exchange]() {
    system_.drive(d).finish_rewind();
    exchange(true);
  }, "switch.rewind");
}

std::vector<SojournOutcome> ConcurrentSimulator::run(
    std::span<const Arrival> arrivals) {
  arrivals_ = arrivals;
  outcomes_.assign(arrivals.size(), SojournOutcome{});
  remaining_.assign(arrivals.size(), 0);
  demand_.clear();
  claimed_.clear();

  for (std::uint32_t i = 0; i < arrivals.size(); ++i) {
    TAPESIM_ASSERT_MSG(
        i == 0 || arrivals[i].time >= arrivals[i - 1].time,
        "arrival schedule must be sorted by time");
    outcomes_[i].request = arrivals[i].request;
    engine_.schedule_at(
        arrivals[i].time, [this, i]() { on_arrival(i); }, "arrival");
  }
  engine_.run();

  for (std::size_t i = 0; i < remaining_.size(); ++i) {
    TAPESIM_ASSERT_MSG(remaining_[i] == 0, "arrival left unserved");
  }
  if (config_.tracer != nullptr) {
    // One lifetime span per arrival instance. Device spans cannot carry a
    // request id here (a single read may serve several instances), so the
    // request lanes are the only per-request view.
    for (std::uint32_t i = 0; i < outcomes_.size(); ++i) {
      config_.tracer->record(obs::Span{
          obs::Track::kRequest, i, obs::Phase::kRequest,
          outcomes_[i].arrival, outcomes_[i].completion,
          outcomes_[i].request, TapeId{}, {}});
    }
    config_.tracer->registry().counter("sched.requests")
        .inc(outcomes_.size());
  }
  return outcomes_;
}

}  // namespace tapesim::sched
