#include "sched/simulator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/tracer.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace tapesim::sched {

namespace {
constexpr Seconds kNever{std::numeric_limits<double>::infinity()};
/// A repair job that keeps failing (drive deaths, mount failures, media
/// errors on its sources) is abandoned after this many restarts.
constexpr std::uint32_t kMaxRepairAttempts = 3;

/// Event kinds of an exchange's stages, indexed by its purpose (request,
/// background, eviction). An eviction's carry is its trip home; it loads
/// nothing.
struct ExchangeKinds {
  const char* rewind;
  const char* unload;
  const char* carry;
  const char* load;
};
constexpr ExchangeKinds kExchangeKinds[] = {
    {"switch.rewind", "switch.unload", "switch.exchange", "switch.load"},
    {"background.rewind", "background.unload", "background.exchange",
     "background.load"},
    {"quarantine.rewind", "quarantine.unload", "quarantine.return", nullptr},
};

catalog::ReplicaHealth to_replica_health(tape::CartridgeHealth h) {
  switch (h) {
    case tape::CartridgeHealth::kGood: return catalog::ReplicaHealth::kGood;
    case tape::CartridgeHealth::kDegraded:
      return catalog::ReplicaHealth::kDegraded;
    case tape::CartridgeHealth::kLost: return catalog::ReplicaHealth::kLost;
  }
  return catalog::ReplicaHealth::kGood;
}
}  // namespace

Status SimulatorConfig::try_validate() const {
  StatusBuilder check("SimulatorConfig");
  check.merge(faults.try_validate());
  check.merge(repair.try_validate());
  check.merge(scrub.try_validate());
  check.merge(evacuation.try_validate());
  check.merge(detector.try_validate());
  check.merge(hedge.try_validate());
  check.merge(journal.try_validate());
  check.merge(governor.try_validate());
  check.require(!faults.crash.enabled() || journal.enabled,
                "metadata crashes require the catalog journal (a crash "
                "without a log would lose the whole catalog)");
  return check.take();
}

RetrievalSimulator::RetrievalSimulator(const core::PlacementPlan& plan,
                                       SimulatorConfig config)
    : plan_(&plan),
      system_(plan.spec(), engine_),
      catalog_(plan.to_catalog()),
      config_(config),
      disk_streams_(engine_, "disk", config.max_concurrent_streams) {
  if (const Status s = config_.try_validate(); !s.ok()) {
    throw std::invalid_argument(s.message());
  }
  catalog_.validate(plan.spec().library.tape_capacity);
  for (const auto& [drive, tp] : plan_->mount_policy.initial_mounts) {
    system_.setup_mount(tp, drive);
  }
  drive_req_.resize(plan.spec().total_drives());
  chain_.resize(plan.spec().total_drives());
  ctx_.resize(plan.spec().total_drives());
  lib_queue_.resize(plan.spec().num_libraries);
  watch_pending_.assign(plan.spec().num_libraries, false);
  outage_watch_.resize(plan.spec().num_libraries);
  last_scrub_.assign(plan.spec().total_tapes(), Seconds{});
  detector_.resize(plan.spec().total_drives());
  for (DetectorState& st : detector_) st.below_since = kNever;
  replicated_ = catalog_.has_replicas();
  target_copies_ = plan.replication_factor();
  if (config_.faults.enabled()) {
    fault_ = std::make_unique<fault::FaultInjector>(config_.faults,
                                                    plan.spec());
  }
  if (config_.tracer != nullptr) {
    config_.tracer->bind(engine_);
    config_.tracer->observe(system_);
  }
  if (config_.journal.enabled) {
    journal_ = std::make_unique<catalog::Journal>(
        config_.journal, plan.spec().total_tapes());
    // The initial checkpoint covers the plan's placement (materialised
    // above, before the journal existed); every later mutation is logged.
    take_checkpoint();
  }
  governor_.configure(config_.governor, plan.spec().total_drives(),
                      plan.spec().num_libraries, config_.tracer);
}

RetrievalSimulator::~RetrievalSimulator() {
  // The tracer outlives us; make sure it stops referencing our engine and
  // drives. Spans and metrics stay available for export.
  if (config_.tracer != nullptr) config_.tracer->detach();
}

bool RetrievalSimulator::switch_eligible(DriveId d) const {
  return !plan_->mount_policy.pinned(d);
}

std::vector<catalog::TapeExtent> RetrievalSimulator::plan_extent_order(
    DriveId d, std::vector<catalog::TapeExtent> extents) const {
  if (!config_.optimize_seek_order || extents.size() < 2) return extents;
  const tape::TapeDrive& drive = system_.drive(d);

  std::sort(extents.begin(), extents.end(),
            [](const catalog::TapeExtent& a, const catalog::TapeExtent& b) {
              return a.offset < b.offset;
            });
  // Reads always move forward over an object, so compare the exact head
  // travel of an ascending sweep against a descending one and take the
  // cheaper. Ascending: reach the first extent, then cross the gaps.
  // Descending: reach the last extent, then jump backward over each
  // just-read extent to the start of the previous one.
  const Bytes head = drive.head();
  auto dist = [](Bytes a, Bytes b) { return Bytes::distance(a, b).count(); };
  std::uint64_t asc = dist(head, extents.front().offset);
  for (std::size_t i = 1; i < extents.size(); ++i) {
    asc += dist(extents[i - 1].offset + extents[i - 1].size,
                extents[i].offset);
  }
  std::uint64_t desc = dist(head, extents.back().offset);
  for (std::size_t i = extents.size(); i-- > 1;) {
    desc += dist(extents[i].offset + extents[i].size,
                 extents[i - 1].offset);
  }
  if (desc < asc) std::reverse(extents.begin(), extents.end());
  return extents;
}

template <typename OnDone, typename OnMedia>
sim::EventId RetrievalSimulator::schedule_activity(
    DriveId d, Seconds duration, OnDone&& on_done, const char* kind,
    std::optional<Seconds> media_at, OnMedia&& on_media,
    const char* media_kind) {
  ctx_[d.index()].activity_start = engine_.now();
  if (fault_ != nullptr) {
    // Hardware beats media: only a failure striking before the read error
    // (if any) preempts the activity.
    const Seconds horizon = media_at.value_or(duration);
    if (const auto fail_after =
            fault_->failure_within(d, engine_.now(), horizon)) {
      // The completion is already booked when the fault strikes, exactly
      // as a real controller would have it; the failure event retracts it
      // and runs the recovery path instead.
      const sim::EventId done =
          engine_.schedule_in(duration, std::forward<OnDone>(on_done), kind);
      engine_.schedule_in(*fail_after, [this, d, done]() {
        engine_.cancel(done);
        on_drive_failure(d);
      }, "drive.fail");
      return sim::kNoEvent;
    }
    if (media_at.has_value()) {
      engine_.schedule_in(*media_at, std::forward<OnMedia>(on_media),
                          media_kind);
      return sim::kNoEvent;
    }
  }
  return engine_.schedule_in(duration, std::forward<OnDone>(on_done), kind);
}

bool RetrievalSimulator::drive_available(DriveId d) {
  if (fault_ == nullptr) return true;
  if (outage_active() &&
      !library_operational(system_.library_of_drive(d))) {
    // The whole library is down; every non-busy drive in it was failed
    // when the onset was registered, and busy drives preempt through
    // their own folded failure interrupts.
    return false;
  }
  tape::TapeDrive& drive = system_.drive(d);
  const Seconds now = engine_.now();
  if (drive.failed()) {
    const auto back = fault_->next_online_at(d, now);
    if (back.has_value() && *back <= now) {
      repair_drive(d);
      return true;
    }
    return false;
  }
  if (fault_->drive_online(d, now)) return true;
  // The timeline says the drive is down but nothing observed it yet: only
  // inactive drives can be in this state (activities are preempted at the
  // exact failure time), so register the failure now.
  on_drive_failure(d);
  return false;
}

void RetrievalSimulator::repair_drive(DriveId d) {
  tape::TapeDrive& drive = system_.drive(d);
  DriveCtx& ctx = ctx_[d.index()];
  drive.repair(engine_.now() - ctx.failed_at);
  if (config_.tracer != nullptr) {
    config_.tracer->marker(obs::Track::kDrive, d.value(), "repaired");
  }
  // Give the drive work once the current dispatch settles. The event
  // no-ops if some other path (a kick, a queue pull) got there first.
  engine_.schedule_in(Seconds{0.0}, [this, d]() {
    DriveCtx& c = ctx_[d.index()];
    if (c.busy) return;
    const tape::TapeDrive& dr = system_.drive(d);
    if (dr.failed()) return;  // failed again before the event ran
    if (!dr.empty() && needed_.count(dr.mounted().value()) != 0) {
      serve_mounted(d);
    } else {
      next_action(d);
    }
  }, "drive.repaired");
}

void RetrievalSimulator::on_drive_failure(DriveId d) {
  TAPESIM_ASSERT(fault_ != nullptr);
  if (outage_active()) {
    // An interrupt fired by a library onset registers the whole outage
    // first (atomically downing the library's idle drives and rerouting
    // its demand); this busy drive then tears itself down below.
    library_operational(system_.library_of_drive(d));
  }
  tape::TapeDrive& drive = system_.drive(d);
  TAPESIM_ASSERT_MSG(!drive.failed(), "drive failure registered twice");
  DriveCtx& ctx = ctx_[d.index()];
  ServeChain& chain = chain_[d.index()];
  const Seconds now = engine_.now();
  const bool mid_activity = !(drive.idle() || drive.empty());
  const Seconds elapsed = mid_activity ? now - ctx.activity_start : Seconds{};
  const bool permanent = !fault_->next_online_at(d, now).has_value() ||
                         fault_->outage_is_permanent(d, now);
  // A drive downed only by its library's outage is not a drive failure:
  // the hardware is fine, the building is dark.
  if (!outage_active() || !fault_->drive_timeline_online(d, now)) {
    fault_->note_drive_failure(permanent);
  }

  const bool had_work = chain.active || ctx.switch_target.valid();
  if (had_work) ++failovers_this_request_;

  const bool mid_load = drive.state() == tape::DriveState::kLoading;
  drive.fail(elapsed);
  ctx.failed_at = now;
  if (mid_load) {
    // The cartridge was half threaded and is stuck in the drive now: the
    // tape system must list it here, or another drive could fetch it and
    // the repaired drive would hold a cartridge nobody knows about.
    system_.note_mounted(drive.mounted(), d);
  }
  // The interrupt retracted the pending completion.
  ctx.transfer_event = sim::kNoEvent;
  if (config_.tracer != nullptr) {
    config_.tracer->marker(obs::Track::kDrive, d.value(),
                           permanent ? "drive failed (permanent)"
                                     : "drive failed");
  }

  const LibraryId lib_id = system_.library_of_drive(d);
  tape::TapeLibrary& lib = system_.library(lib_id);
  if (ctx.disk_held) {
    disk_streams_.release();
    ctx.disk_held = false;
  }
  if (ctx.robot_held) {
    lib.robot().release();
    ctx.robot_held = false;
  }

  // Requeue the unserved tail of the serve chain: those extents go back
  // into the demand map so another drive can take them over once the
  // cartridge has been rescued. An expired chain's tail was already
  // written off at the deadline — nothing to hand over. When the whole
  // library is down (its robot included, so no rescue is coming soon),
  // each tail extent instead fails over to a surviving library or parks
  // until the restore.
  const TapeId stuck = drive.mounted();
  const bool lib_down = outage_active() && !system_.library_up(lib_id);
  if (chain.active) {
    TAPESIM_ASSERT(stuck.valid());
    if (!expired_) {
      for (std::size_t i = chain.index; i < chain.extents.size(); ++i) {
        const catalog::TapeExtent& e = chain.extents[i];
        // Hedge legs never requeue: a cancelled loser is already settled
        // and an absorbed leg hands the object to its racing twin.
        if (hedge_tombstoned(e) || hedge_absorb_failure(stuck, e)) continue;
        if (lib_down) {
          outage_divert(stuck, e);
        } else {
          needed_[stuck.value()].push_back(e);
        }
      }
    }
    chain = ServeChain{};
  }
  // A switch that had not yet inserted the cartridge: the target goes back
  // to the head of its library queue (failover priority) — unless the
  // request expired, in which case nobody wants the cartridge anymore.
  // Under a registered library outage the target's extents were already
  // rerouted or parked by register_outage, so it only requeues if some
  // demand for it survived.
  if (ctx.switch_target.valid() && ctx.switch_target != stuck && !expired_ &&
      (!lib_down || needed_.count(ctx.switch_target.value()) != 0)) {
    lib_queue_[system_.library_of_tape(ctx.switch_target).index()].push_front(
        ctx.switch_target);
  }
  ctx.switch_target = TapeId{};
  ctx.robot_ticket = sim::Resource::kInvalidTicket;
  ctx.mount_retries = 0;
  ctx.busy = false;

  // A repair job loses its drive: requeue it (staged data survives on
  // disk) or abandon it if it keeps drawing failures.
  if (ctx.repair.has_value()) {
    RepairJob job = std::move(*ctx.repair);
    ctx.repair.reset();
    --active_repairs_;
    const TapeId claimed = job.read_done ? job.target : job.source;
    if (job.target.valid()) {
      repair_writing_.erase(job.target.value());
      job.target = TapeId{};
    }
    if (!job.read_done) job.source = TapeId{};
    ++job.attempts;
    if (job.attempts >= kMaxRepairAttempts) {
      abandon_repair(std::move(job));
    } else {
      repair_queue_.push_back(std::move(job));
      engine_.schedule_in(
          Seconds{0.0}, [this]() { pump_repairs(); }, "repair.pump");
    }
    // The claimed tape may be foreground demand that skipped the queue
    // while the repair held it (unless it is stuck in this very drive —
    // recover_cartridge requeues it after extraction).
    requeue_if_needed(claimed);
  }

  // A scrub pass loses its drive: the pass aborts (findings were already
  // applied at segment boundaries) and the tape becomes due again later.
  if (ctx.scrub.has_value()) {
    const ScrubJob job = *ctx.scrub;
    ctx.scrub.reset();
    --active_scrubs_;
    ++scrub_stats_.passes_aborted;
    scrub_stats_.bytes_verified += job.verified;
    scrub_stats_.latent_found += job.found;
    if (config_.tracer != nullptr) {
      config_.tracer->record(obs::Span{
          obs::Track::kScrub, job.tape.value(), obs::Phase::kScrub,
          job.started, now, RequestId{}, job.tape, "aborted: drive failed"});
      config_.tracer->registry().counter("scrub.verified_bytes")
          .inc(job.verified);
      config_.tracer->registry().counter("scrub.latent_found").inc(job.found);
    }
    requeue_if_needed(job.tape);
  }

  // A needed cartridge stuck in the failed drive must be extracted by the
  // robot before anyone else can serve it (once the library, and thus its
  // robot, is powered; register_restore retries the rescue otherwise).
  if (stuck.valid() && needed_.count(stuck.value()) != 0 && !lib_down) {
    recover_cartridge(d);
  }
  engine_.schedule_in(
      Seconds{0.0}, [this, lib_id]() { ensure_progress(lib_id); },
      "library.progress");
}

void RetrievalSimulator::recover_cartridge(DriveId d) {
  DriveCtx& ctx = ctx_[d.index()];
  if (ctx.recovery_pending) return;
  ctx.recovery_pending = true;
  const LibraryId lib_id = system_.library_of_drive(d);
  tape::TapeLibrary& lib = system_.library(lib_id);
  lib.robot().acquire([this, d, lib_id, &lib]() {
    // Travel to the failed drive, pull the cartridge, return it to its
    // cell: one exchange-length errand.
    const Seconds move = robot_move_delay(lib, lib.robot_exchange_time());
    engine_.schedule_in(move, [this, d, lib_id, &lib]() {
      DriveCtx& c = ctx_[d.index()];
      c.recovery_pending = false;
      tape::TapeDrive& dr = system_.drive(d);
      if (!dr.failed() || !dr.mounted().valid()) {
        // The drive repaired (or ejected) while the robot was en route;
        // nothing to extract.
        lib.robot().release();
        return;
      }
      const TapeId tp = dr.eject_failed();
      if (const auto holder = system_.drive_holding(tp);
          holder.has_value() && *holder == d) {
        system_.note_unmounted(tp);
      }
      lib.robot().release();
      if (config_.tracer != nullptr) {
        config_.tracer->marker(obs::Track::kRobot, lib_id.value(),
                               "recovered cartridge from failed drive");
      }
      if (needed_.count(tp.value()) != 0) {
        lib_queue_[system_.library_of_tape(tp).index()].push_front(tp);
      }
      ensure_progress(lib_id);
    }, "rescue.exchange");
  });
}

void RetrievalSimulator::extent_unavailable(
    const catalog::TapeExtent& extent) {
  TAPESIM_ASSERT(remaining_extents_ > 0);
  --remaining_extents_;
  bytes_unavailable_this_request_ += extent.size;
  ++extents_unavailable_this_request_;
  if (remaining_extents_ == 0) cancel_deadline_event();
}

// --- deadline enforcement -----------------------------------------------

void RetrievalSimulator::cancel_deadline_event() {
  if (deadline_event_ == sim::kNoEvent) return;
  engine_.cancel(deadline_event_);
  deadline_event_ = sim::kNoEvent;
}

void RetrievalSimulator::extent_expired(const catalog::TapeExtent& extent) {
  TAPESIM_ASSERT(remaining_extents_ > 0);
  --remaining_extents_;
  bytes_expired_this_request_ += extent.size;
  ++extents_expired_this_request_;
}

void RetrievalSimulator::on_deadline() {
  deadline_event_ = sim::kNoEvent;
  TAPESIM_ASSERT_MSG(remaining_extents_ > 0,
                     "deadline event outlived its request");
  expired_ = true;

  // Account and drop every extent that will now never be served: those
  // still waiting in the demand map, and the unserved tails of active
  // chains (including the extent whose transfer is in flight — its
  // completion is expired-guarded). Together these are exactly the
  // remaining extents. A hedged object has two physical extents in
  // flight but only one accounting slot: the leg named by its record
  // carries it, and cancelled losers carry nothing.
  const auto expire_counts = [this](TapeId on,
                                    const catalog::TapeExtent& e) {
    if (!hedge_active()) return true;
    if (hedge_tombstoned(e)) return false;
    const auto it = hedges_.find(e.object.value());
    if (it == hedges_.end()) return true;
    const Hedge& h = it->second;
    return h.primary_dead ? on == h.alt : on == h.primary;
  };
  for (const auto& [tape_value, extents] : needed_) {
    for (const catalog::TapeExtent& e : extents) {
      if (expire_counts(TapeId{tape_value}, e)) extent_expired(e);
    }
  }
  needed_.clear();
  for (auto& q : lib_queue_) q.clear();
  for (std::uint32_t dv = 0; dv < ctx_.size(); ++dv) {
    const ServeChain& chain = chain_[dv];
    if (!chain.active) continue;
    const TapeId on = system_.drive(DriveId{dv}).mounted();
    for (std::size_t i = chain.index; i < chain.extents.size(); ++i) {
      if (expire_counts(on, chain.extents[i])) {
        extent_expired(chain.extents[i]);
      }
    }
  }
  TAPESIM_ASSERT_MSG(remaining_extents_ == 0,
                     "expired accounting missed an extent");
  // Outstanding hedges expire with the request: the ledger books them as
  // lost (nobody won) and the in-flight legs unwind via the expired
  // guard at their next boundary.
  for (const auto& [obj, h] : hedges_) {
    ++failslow_stats_.hedges_lost;
    record_hedge_settled("expired", h.issued_at);
  }
  hedges_.clear();

  // Withdraw switches still queued for the robot: the waiter is removed
  // without disturbing FIFO order and the drive goes back to idle (its
  // cartridge, if any, is rewound and still mounted — a legal resting
  // state). Switches past the robot grant drain as doomed mounts.
  for (std::uint32_t dv = 0; dv < ctx_.size(); ++dv) {
    DriveCtx& c = ctx_[dv];
    if (c.robot_ticket == sim::Resource::kInvalidTicket) continue;
    tape::TapeLibrary& lib =
        system_.library(system_.library_of_drive(DriveId{dv}));
    if (lib.robot().cancel(c.robot_ticket)) {
      c.robot_ticket = sim::Resource::kInvalidTicket;
      c.switch_target = TapeId{};
      c.mount_retries = 0;
      c.busy = false;
    }
  }
  if (config_.tracer != nullptr) {
    config_.tracer->marker(obs::Track::kOverload,
                           config_.tracer->current_request().value(),
                           "deadline expired");
  }
}

void RetrievalSimulator::complete_tape_unavailable(TapeId tp) {
  if (const auto it = needed_.find(tp.value()); it != needed_.end()) {
    const std::vector<catalog::TapeExtent> extents = std::move(it->second);
    needed_.erase(it);
    for (const catalog::TapeExtent& e : extents) fail_extent(tp, e);
  }
  auto& queue = lib_queue_[system_.library_of_tape(tp).index()];
  const auto pos = std::find(queue.begin(), queue.end(), tp);
  if (pos != queue.end()) queue.erase(pos);
  if (config_.tracer != nullptr) {
    config_.tracer->marker(obs::Track::kEngine, 0,
                           "tape unavailable: " + std::to_string(tp.value()));
  }
}

void RetrievalSimulator::kick_idle_drives(LibraryId lib_id) {
  auto& queue = lib_queue_[lib_id.index()];
  const std::uint32_t per_lib = plan_->spec().library.drives_per_library;
  for (std::uint32_t i = 0; i < per_lib && !queue.empty(); ++i) {
    const DriveId d{lib_id.value() * per_lib + i};
    if (!switch_eligible(d)) continue;
    if (ctx_[d.index()].busy) continue;
    if (!drive_available(d)) continue;
    const tape::TapeDrive& drive = system_.drive(d);
    if (!(drive.idle() || drive.empty())) continue;
    if (!drive.empty() && needed_.count(drive.mounted().value()) != 0) {
      continue;  // holds demanded data; a serve event owns this drive
    }
    next_action(d);
  }
}

void RetrievalSimulator::ensure_progress(LibraryId lib_id) {
  if (fault_ == nullptr) return;
  if (outage_active()) library_operational(lib_id);
  kick_idle_drives(lib_id);
  auto& queue = lib_queue_[lib_id.index()];
  if (queue.empty()) {
    // Extents can be parked behind this library without a queue entry —
    // their cartridge is stuck in a downed drive. The restore watch below
    // must still be armed or the run would wedge on them.
    if (!outage_active() || system_.library_up(lib_id)) return;
    bool parked_here = false;
    for (const auto& [tape_value, extents] : needed_) {
      if (system_.library_of_tape(TapeId{tape_value}) == lib_id) {
        parked_here = true;
        break;
      }
    }
    if (!parked_here) return;
  }
  // The queue still holds demand. If any eligible drive is working (or
  // holds needed data), it will pull from the queue when it frees up.
  const std::uint32_t per_lib = plan_->spec().library.drives_per_library;
  const Seconds now = engine_.now();
  Seconds earliest = kNever;
  for (std::uint32_t i = 0; i < per_lib; ++i) {
    const DriveId d{lib_id.value() * per_lib + i};
    if (!switch_eligible(d)) continue;
    const tape::TapeDrive& drive = system_.drive(d);
    if (!drive.failed()) return;  // busy or pending-serve: progress is coming
    if (const auto back = fault_->next_online_at(d, now)) {
      earliest = std::min(earliest, *back);
    }
  }
  if (outage_active() && !system_.library_up(lib_id)) {
    // Watch for the library restore even when every drive's own hardware
    // is permanently dead: the restore powers the robot back up, and
    // register_restore rescues cartridges stuck in dead drives.
    const Seconds restore = outage_watch_[lib_id.index()].restore_at;
    earliest = std::min(earliest, restore);  // kNever for a disaster
  }
  if (earliest < kNever) {
    // Every eligible drive is down, at least one transiently: watch for
    // the first repair so the event loop cannot go idle with work queued.
    if (!watch_pending_[lib_id.index()]) {
      watch_pending_[lib_id.index()] = true;
      engine_.schedule_at(std::max(earliest, now), [this, lib_id]() {
        watch_pending_[lib_id.index()] = false;
        ensure_progress(lib_id);
      }, "library.watch");
    }
    return;
  }
  // Every eligible drive is permanently dead: the queued data cannot be
  // retrieved, ever. Complete it as unavailable instead of wedging.
  while (!queue.empty()) {
    const TapeId tp = queue.front();
    complete_tape_unavailable(tp);  // also erases it from the queue
  }
  // Parked extents without a queue entry (their cartridge is stuck in a
  // dead drive) are just as unreachable; sweep them too.
  std::vector<TapeId> stuck;
  for (const auto& [tape_value, extents] : needed_) {
    if (system_.library_of_tape(TapeId{tape_value}) == lib_id) {
      stuck.push_back(TapeId{tape_value});
    }
  }
  for (const TapeId tp : stuck) complete_tape_unavailable(tp);
}

Seconds RetrievalSimulator::robot_move_delay(tape::TapeLibrary& lib,
                                             Seconds base) {
  if (fault_ == nullptr) return base;
  // A fail-slow accessor stretches every move before jams are added; the
  // multiplier is 1.0 (and the division exact) outside slow episodes.
  const double slow = fault_->robot_rate_multiplier(lib.id(), engine_.now());
  if (slow < 1.0) base = Seconds{base.count() / slow};
  const Seconds jam = fault_->robot_jam_delay(lib.id());
  if (jam.count() > 0.0 && config_.tracer != nullptr) {
    config_.tracer->marker(obs::Track::kRobot, lib.id().value(),
                           "robot jam");
  }
  if (governor_.enabled() && fault_->config().robot_jam_prob > 0.0) {
    // Every accessor move with jams enabled is a breaker observation: a
    // jam-free move counts for the robot, a jam against it.
    governor_.note_outcome(BreakerScope::kRobot,
                           static_cast<std::uint32_t>(lib.id().index()),
                           jam.count() == 0.0, engine_.now());
  }
  return base + jam;
}

// --- library outages ----------------------------------------------------

bool RetrievalSimulator::library_operational(LibraryId lib) {
  if (!outage_active()) return true;
  const Seconds now = engine_.now();
  switch (system_.library_state(lib)) {
    case tape::LibraryState::kDestroyed:
      return false;
    case tape::LibraryState::kDown: {
      if (outage_watch_[lib.index()].restore_at > now) return false;
      register_restore(lib);
      // Nested reconciles (register_restore wakes drives, whose queries
      // reconcile again) may already have observed the next onset.
      if (!system_.library_up(lib)) return false;
      if (!fault_->library_up(lib, now)) {
        register_outage(lib);
        return false;
      }
      return true;
    }
    case tape::LibraryState::kUp:
      if (fault_->library_up(lib, now)) return true;
      register_outage(lib);
      return false;
  }
  return true;  // unreachable; switch is exhaustive
}

void RetrievalSimulator::register_outage(LibraryId lib) {
  const Seconds now = engine_.now();
  const bool disaster = fault_->outage_is_disaster(lib, now);
  const Seconds began = fault_->outage_started_at(lib, now);
  const auto restore = fault_->library_up_at(lib, now);
  TAPESIM_ASSERT_MSG(disaster == !restore.has_value(),
                     "disaster flag and restore time disagree");
  fault_->note_library_outage(disaster);
  OutageWatch& w = outage_watch_[lib.index()];
  w.began = began;
  w.restore_at = restore.value_or(kNever);
  w.awaiting_first_byte = false;
  // State flips before any drive is touched so nested reconciles see the
  // outage as already registered.
  system_.fail_library(lib,
                       disaster ? tape::LibraryState::kDestroyed
                                : tape::LibraryState::kDown,
                       began);
  ++outage_stats_.started;
  if (disaster) ++outage_stats_.disasters;
  if (config_.tracer != nullptr) {
    config_.tracer->marker(obs::Track::kOutage, lib.value(),
                           disaster ? "site disaster" : "library outage");
    config_.tracer->registry().counter("outage.started").inc();
    if (disaster) {
      config_.tracer->registry().counter("outage.disasters").inc();
    }
  }

  // One onset downs every drive in the library atomically. Busy drives
  // preempt through their own folded failure interrupts (booked at this
  // exact instant); the idle ones are failed here.
  const std::uint32_t per_lib = plan_->spec().library.drives_per_library;
  for (std::uint32_t i = 0; i < per_lib; ++i) {
    const DriveId d{lib.value() * per_lib + i};
    if (ctx_[d.index()].busy) continue;
    if (system_.drive(d).failed()) continue;
    on_drive_failure(d);
  }

  if (disaster) {
    // Every resident cartridge is lost with the site. Scheduling the
    // replacement copies under the DR tag routes them through the two-
    // phase repair path at the DR bandwidth cap and arms the
    // time-to-full-redundancy clock.
    dr_tag_ = lib;
    dr_began_[lib.value()] = now;
    const std::uint32_t per_lib_tapes =
        plan_->spec().library.tapes_per_library;
    for (std::uint32_t i = 0; i < per_lib_tapes; ++i) {
      const TapeId t{lib.value() * per_lib_tapes + i};
      if (system_.cartridge_lost(t)) continue;
      system_.set_cartridge_health(t, tape::CartridgeHealth::kLost);
      on_cartridge_health_change(t, tape::CartridgeHealth::kLost);
    }
    dr_tag_ = LibraryId{};
    if (dr_outstanding_.count(lib.value()) == 0) {
      dr_began_.erase(lib.value());  // nothing to re-replicate
    }
    // Pending foreground demand on the lost cartridges fails over to
    // surviving replicas or completes as unavailable.
    std::vector<TapeId> pending;
    for (const auto& [tape_value, extents] : needed_) {
      if (system_.library_of_tape(TapeId{tape_value}) == lib) {
        pending.push_back(TapeId{tape_value});
      }
    }
    for (const TapeId tp : pending) complete_tape_unavailable(tp);
  } else {
    // Transient: the library's pending demand fails over to surviving
    // replicas, or parks until the restore.
    std::vector<TapeId> pending;
    for (const auto& [tape_value, extents] : needed_) {
      if (system_.library_of_tape(TapeId{tape_value}) == lib) {
        pending.push_back(TapeId{tape_value});
      }
    }
    for (const TapeId tp : pending) outage_reroute(tp);
  }
  engine_.schedule_in(
      Seconds{0.0}, [this, lib]() { ensure_progress(lib); },
      "outage.progress");
}

void RetrievalSimulator::register_restore(LibraryId lib) {
  OutageWatch& w = outage_watch_[lib.index()];
  // The window closes at its exact timeline restore time (observation may
  // lag); downtime conservation across spans and counters depends on it.
  const Seconds window = system_.restore_library(lib, w.restore_at);
  outage_stats_.downtime += window;
  ++outage_stats_.ended;
  w.awaiting_first_byte = true;
  w.restored_at = w.restore_at;
  if (config_.tracer != nullptr) {
    config_.tracer->record(obs::Span{obs::Track::kOutage, lib.value(),
                                     obs::Phase::kOutage, w.began,
                                     w.restore_at, RequestId{}, TapeId{},
                                     {}});
    config_.tracer->registry().counter("outage.ended").inc();
    config_.tracer->registry().gauge("outage.downtime_s")
        .set(outage_stats_.downtime.count());
  }
  // Wake the fleet: repair drives the outage downed, and rescue needed
  // cartridges stuck in drives whose own hardware is still dead.
  const std::uint32_t per_lib = plan_->spec().library.drives_per_library;
  for (std::uint32_t i = 0; i < per_lib; ++i) {
    const DriveId d{lib.value() * per_lib + i};
    if (ctx_[d.index()].busy) continue;
    tape::TapeDrive& drive = system_.drive(d);
    if (!drive.failed()) continue;
    if (drive_available(d)) continue;  // repaired; 0-delay dispatch booked
    if (drive.mounted().valid() &&
        needed_.count(drive.mounted().value()) != 0) {
      recover_cartridge(d);
    }
  }
  engine_.schedule_in(Seconds{0.0}, [this, lib]() {
    kick_idle_drives(lib);
    ensure_progress(lib);
    pump_repairs();
  }, "outage.restore");
}

void RetrievalSimulator::outage_reroute(TapeId tp) {
  const auto it = needed_.find(tp.value());
  if (it == needed_.end()) return;
  const std::vector<catalog::TapeExtent> extents = std::move(it->second);
  needed_.erase(it);
  // The cartridge cannot be mounted while its library is down; drop its
  // queue entry (parked survivors re-add it below).
  auto& queue = lib_queue_[system_.library_of_tape(tp).index()];
  if (const auto pos = std::find(queue.begin(), queue.end(), tp);
      pos != queue.end()) {
    queue.erase(pos);
  }
  for (const catalog::TapeExtent& e : extents) outage_divert(tp, e);
  if (needed_.count(tp.value()) != 0) requeue_if_needed(tp);
}

void RetrievalSimulator::outage_divert(TapeId tp,
                                       const catalog::TapeExtent& extent) {
  // Hedged legs never divert: a cancelled loser is already settled, and
  // an absorbed leg leaves the object with its racing twin.
  if (hedge_tombstoned(extent) || hedge_absorb_failure(tp, extent)) return;
  if (catalog_.has_replicas()) {
    // The copy on `tp` stays live (the library will return), so it is not
    // marked tried — the read just routes around its library for now.
    const std::vector<LibraryId> down = down_libraries();
    if (const catalog::ObjectRecord* alt = catalog_.best_replica(
            extent.object, tried_[extent.object.value()], down)) {
      ++outage_stats_.failovers;
      if (config_.tracer != nullptr) {
        config_.tracer->registry().counter("outage.failovers").inc();
      }
      route_extent(*alt);
      return;
    }
  }
  if (system_.cartridge_lost(tp) ||
      system_.library_state(system_.library_of_tape(tp)) ==
          tape::LibraryState::kDestroyed) {
    // The copy this extent was riding is gone (a disaster struck while it
    // was in flight); parking would wait for a restore that never comes.
    // fail_extent retries the surviving copies, parks behind a transient
    // outage if that is all that is left, or completes unavailable.
    fail_extent(tp, extent);
    return;
  }
  needed_[tp.value()].push_back(extent);
  ++outage_stats_.extents_parked;
  ++extents_parked_this_request_;
}

std::vector<LibraryId> RetrievalSimulator::down_libraries() const {
  std::vector<LibraryId> down;
  if (!outage_active()) return down;
  for (std::uint32_t l = 0; l < plan_->spec().num_libraries; ++l) {
    if (!system_.library_up(LibraryId{l})) down.push_back(LibraryId{l});
  }
  return down;
}

void RetrievalSimulator::note_dr_job_done(LibraryId lib) {
  const auto it = dr_outstanding_.find(lib.value());
  TAPESIM_ASSERT(it != dr_outstanding_.end() && it->second > 0);
  if (--it->second > 0) return;
  dr_outstanding_.erase(it);
  const auto began = dr_began_.find(lib.value());
  TAPESIM_ASSERT(began != dr_began_.end());
  const Seconds took = engine_.now() - began->second;
  dr_began_.erase(began);
  outage_stats_.redundancy_recovery.add(took.count());
  if (config_.tracer != nullptr) {
    const auto layout = obs::BucketLayout::exponential(0.1, 1e5, 1.3);
    config_.tracer->registry()
        .histogram("outage.redundancy_recovery_s", layout)
        .record(took.count());
    config_.tracer->marker(obs::Track::kOutage, lib.value(),
                           "disaster recovery drained");
  }
}

void RetrievalSimulator::serve_mounted(DriveId d) {
  if (ctx_[d.index()].repair.has_value() ||
      ctx_[d.index()].scrub.has_value()) {
    // Mid-repair drives are active between requests; the foreground gets
    // the drive back (and this tape served) when the job releases it. A
    // scrub pass yields at its next segment boundary.
    return;
  }
  if (fault_ != nullptr && !drive_available(d)) {
    // The holder is down; rescue its cartridge so another drive can take
    // over (no-op if the robot is already on its way). No rescue while the
    // whole library is dark — register_restore retries it.
    const tape::TapeDrive& drive = system_.drive(d);
    if (drive.mounted().valid() &&
        needed_.count(drive.mounted().value()) != 0 &&
        (!outage_active() ||
         system_.library_up(system_.library_of_drive(d)))) {
      recover_cartridge(d);
    }
    return;
  }
  if (detector_active() && drive_quarantined(d) &&
      !quarantine_fallback(system_.library_of_drive(d))) {
    // A flagged drive takes no new chains: hand the demanded cartridge
    // back to its cell so a healthy drive can fetch it. If every live
    // peer is quarantined too, the fallback serves here instead.
    DriveCtx& ctx = ctx_[d.index()];
    if (!ctx.busy && system_.drive(d).idle()) quarantine_unmount(d);
    return;
  }
  if (breaker_skip_drive(d)) {
    // Same eviction for an open drive breaker: a healthy peer exists, so
    // the demanded cartridge goes back to its cell instead of being served
    // through the tripped drive.
    DriveCtx& ctx = ctx_[d.index()];
    if (!ctx.busy && system_.drive(d).idle()) quarantine_unmount(d);
    return;
  }
  tape::TapeDrive& drive = system_.drive(d);
  const TapeId tp = drive.mounted();
  TAPESIM_ASSERT(tp.valid());
  const auto it = needed_.find(tp.value());
  if (it == needed_.end()) {
    next_action(d);
    return;
  }
  auto extents = plan_extent_order(d, std::move(it->second));
  needed_.erase(it);
  drive_req_[d.index()].used = true;
  ctx_[d.index()].busy = true;
  ServeChain& chain = chain_[d.index()];
  TAPESIM_ASSERT(!chain.active);
  chain.extents = std::move(extents);
  chain.index = 0;
  chain.retries = 0;
  chain.active = true;
  serve_step(d);
}

void RetrievalSimulator::serve_step(DriveId d) {
  ServeChain& chain = chain_[d.index()];
  TAPESIM_ASSERT(chain.active);
  if (expired_) {
    // The request's deadline passed: the chain tail was already accounted
    // as expired by on_deadline(); abandon it and free the drive.
    chain = ServeChain{};
    ctx_[d.index()].busy = false;
    next_action(d);
    return;
  }
  if (hedge_active()) {
    // Cancelled hedge losers left mid-chain are skipped, not served.
    while (chain.index < chain.extents.size() &&
           hedge_tombstoned(chain.extents[chain.index])) {
      ++chain.index;
      chain.retries = 0;
    }
  }
  if (chain.index >= chain.extents.size()) {
    chain = ServeChain{};
    ctx_[d.index()].busy = false;
    if (catalog_.has_replicas()) {
      // A failover may have routed more extents onto this drive's mounted
      // tape while the chain was running; serve them before switching.
      const tape::TapeDrive& drive = system_.drive(d);
      if (!drive.empty() && needed_.count(drive.mounted().value()) != 0) {
        serve_mounted(d);
        return;
      }
    }
    next_action(d);
    return;
  }
  if (fault_ != nullptr && !fault_->drive_online(d, engine_.now())) {
    // Failure landed exactly on an activity boundary (or during a retry
    // backoff); requeues the rest of the chain.
    on_drive_failure(d);
    return;
  }
  const catalog::TapeExtent extent = chain.extents[chain.index];
  tape::TapeDrive& drive = system_.drive(d);
  const Seconds locate = drive.start_locate(extent.offset);
  schedule_activity(d, locate, [this, d, extent, locate]() {
    system_.drive(d).finish_locate();
    drive_req_[d.index()].seek += locate;
    if (expired_) {
      serve_step(d);  // unwinds via the expired guard
      return;
    }
    // A finite disk array may make the drive wait for a streaming slot;
    // that wait lands in the switch-side component of the decomposition.
    disk_streams_.acquire([this, d, extent]() {
      ctx_[d.index()].disk_held = true;
      if (expired_) {
        disk_streams_.release();
        ctx_[d.index()].disk_held = false;
        serve_step(d);
        return;
      }
      if (fault_ != nullptr && !fault_->drive_online(d, engine_.now())) {
        disk_streams_.release();
        ctx_[d.index()].disk_held = false;
        on_drive_failure(d);
        return;
      }
      begin_transfer(d, extent);
    });
  }, "serve.locate");
}

void RetrievalSimulator::begin_transfer(DriveId d,
                                        catalog::TapeExtent extent) {
  if (hedge_active() && hedge_tombstoned(extent)) {
    // The loser tombstone landed between the locate and the disk slot;
    // the winner already settled this object.
    disk_streams_.release();
    ctx_[d.index()].disk_held = false;
    ServeChain& chain = chain_[d.index()];
    ++chain.index;
    chain.retries = 0;
    serve_step(d);
    return;
  }
  tape::TapeDrive& drive = system_.drive(d);
  // Fail-slow episodes stretch the stream: the effective rate is sampled
  // once at transfer start (1.0, with no timeline walk, when fail-slow
  // injection is off).
  const double mult =
      fault_ != nullptr
          ? fault_->drive_rate_multiplier(d, engine_.now())
          : 1.0;
  const Seconds xfer = drive.start_transfer(extent.size, mult);
  auto complete = [this, d, extent, xfer]() {
    ctx_[d.index()].transfer_event = sim::kNoEvent;
    disk_streams_.release();
    ctx_[d.index()].disk_held = false;
    system_.drive(d).finish_transfer();
    drive_req_[d.index()].transfer += xfer;
    note_transfer_rate(d, extent.size, xfer);
    // A transfer that outlived the deadline delivered bytes nobody waits
    // for: the extent was accounted as expired when the deadline fired, so
    // it must not be credited again.
    if (!expired_) {
      if (hedge_active() && hedge_tombstoned(extent)) {
        // A cancelled loser that outran its cancellation: the bytes it
        // streamed were pure speculation overhead.
        failslow_stats_.hedge_bytes_wasted += extent.size.count();
        if (config_.tracer != nullptr) {
          config_.tracer->registry().counter("failslow.hedge_wasted_bytes")
              .inc(extent.size.count());
        }
      } else {
        if (hedge_active()) served_bytes_ += extent.size.count();
        extent_done(d);
        settle_hedge_winner(d, extent);
      }
    }
    ServeChain& chain = chain_[d.index()];
    ++chain.index;
    chain.retries = 0;
    serve_step(d);
  };
  if (governor_.enabled() && chain_[d.index()].retries == 0) {
    // First attempt at this extent: first-attempt demand earns the retry
    // budget its tokens.
    governor_.note_demand(GovernorClass::kRetry);
  }
  std::optional<Seconds> media_at;
  bool latent = false;
  if (fault_ != nullptr) {
    const TapeId tp = drive.mounted();
    if (const auto frac = fault_->media_error(
            tp, extent.size, system_.cartridge_health(tp), engine_.now())) {
      media_at = xfer * *frac;
    }
    if (fault_->undetected_damage(tp, engine_.now()) > 0) {
      // Silent decay damage has accrued since the cartridge was last
      // verified; this read runs into it. The earlier of the two media
      // events wins (the position draw only happens with decay enabled, so
      // decay-off runs consume the same random stream as before).
      const Seconds latent_at = xfer * fault_->latent_hit_position(tp);
      if (!media_at.has_value() || latent_at < *media_at) {
        media_at = latent_at;
        latent = true;
      }
    }
  }
  // A clean stream's completion is safely cancellable — the hedge
  // machinery may retract it if this transfer turns out to be a losing
  // leg. An interrupted one unwinds through its interrupt instead.
  const sim::EventId done = schedule_activity(
      d, xfer, std::move(complete), "serve.transfer", media_at,
      [this, d, latent]() { on_media_failure(d, latent); },
      "serve.media_error");
  ctx_[d.index()].transfer_event = done;
  if (done != sim::kNoEvent) maybe_arm_hedge(d, extent, xfer);
}

void RetrievalSimulator::on_media_failure(DriveId d, bool latent) {
  TAPESIM_ASSERT(fault_ != nullptr);
  DriveCtx& ctx = ctx_[d.index()];
  ServeChain& chain = chain_[d.index()];
  tape::TapeDrive& drive = system_.drive(d);
  const TapeId tp = drive.mounted();
  drive.abort_transfer(engine_.now() - ctx.activity_start);
  disk_streams_.release();
  ctx.disk_held = false;

  // A latent hit surfaces every decay event accrued on the cartridge (the
  // read found the damage); an active error is a fresh single event.
  tape::CartridgeHealth health;
  if (latent) {
    ++latent_hits_this_request_;
    health = fault_->observe_damage(tp, engine_.now());
  } else {
    health = fault_->record_media_error(tp);
  }
  if (health != system_.cartridge_health(tp)) {
    system_.set_cartridge_health(tp, health);
    on_cartridge_health_change(tp, health);
  }
  if (config_.tracer != nullptr) {
    config_.tracer->marker(obs::Track::kDrive, d.value(),
                           (latent ? "latent damage hit on tape "
                                   : "media error on tape ") +
                               std::to_string(tp.value()));
  }
  if (governor_.enabled()) {
    governor_.note_outcome(
        BreakerScope::kLibrary,
        static_cast<std::uint32_t>(system_.library_of_drive(d).index()), false,
        engine_.now());
  }
  maybe_evacuate(tp);
  if (expired_) {
    // No one is waiting for this chain anymore; skip the retry ladder.
    chain = ServeChain{};
    ctx.busy = false;
    next_action(d);
    return;
  }
  if (health == tape::CartridgeHealth::kLost) {
    // The cartridge is gone: everything still expected from it — the
    // interrupted extent, the chain tail, any requeued leftovers — fails
    // over to surviving replicas, or completes as unavailable.
    const std::vector<catalog::TapeExtent> tail(
        chain.extents.begin() + static_cast<std::ptrdiff_t>(chain.index),
        chain.extents.end());
    chain = ServeChain{};
    ctx.busy = false;
    for (const catalog::TapeExtent& e : tail) fail_extent(tp, e);
    complete_tape_unavailable(tp);
    next_action(d);
    return;
  }
  if (hedge_active() && hedge_tombstoned(chain.extents[chain.index])) {
    // The interrupted stream was a cancelled hedge loser; nobody wants a
    // retry. Its partial bytes are speculation overhead.
    ++chain.index;
    chain.retries = 0;
    serve_step(d);
    return;
  }
  if (chain.retries >= config_.faults.media_retry.max_retries) {
    // This extent keeps failing on this copy; fail it over (or complete it
    // as unavailable) and keep serving the rest of the chain.
    const catalog::TapeExtent failed = chain.extents[chain.index];
    ++chain.index;
    chain.retries = 0;
    fail_extent(tp, failed);
    serve_step(d);
    return;
  }
  const Seconds delay = config_.faults.media_retry.delay(chain.retries);
  // A retry landing past the request's deadline is wasted motion; so is one
  // the governor refuses to fund. Either way the extent takes the fail-fast
  // ladder (failover or unavailable) instead of burning drive time.
  const bool past_slo =
      deadline_abs_.count() < metrics::RequestOutcome::kNoDeadline &&
      (engine_.now() + delay).count() >= deadline_abs_.count();
  const bool admitted =
      !governor_.enabled() ||
      governor_.admit(
          GovernorClass::kRetry, BreakerScope::kLibrary,
          static_cast<std::uint32_t>(system_.library_of_drive(d).index()),
          engine_.now());
  if (past_slo || !admitted) {
    const catalog::TapeExtent failed = chain.extents[chain.index];
    ++chain.index;
    chain.retries = 0;
    fail_extent(tp, failed);
    serve_step(d);
    return;
  }
  ++chain.retries;
  ++media_retries_this_request_;
  engine_.schedule_in(delay, [this, d]() { serve_step(d); }, "serve.retry");
}

void RetrievalSimulator::extent_done(DriveId d) {
  TAPESIM_ASSERT(remaining_extents_ > 0);
  --remaining_extents_;
  if (remaining_extents_ == 0) cancel_deadline_event();
  if (governor_.enabled()) {
    // A completed extent is first-attempt demand for the amplification
    // classes it could spawn, and a success observation for its library.
    governor_.note_demand(GovernorClass::kFailover);
    governor_.note_demand(GovernorClass::kHedge);
    governor_.note_outcome(
        BreakerScope::kLibrary,
        static_cast<std::uint32_t>(system_.library_of_drive(d).index()), true,
        engine_.now());
  }
  if (catalog_.has_replicas()) {
    const ServeChain& chain = chain_[d.index()];
    const catalog::TapeExtent& e = chain.extents[chain.index];
    const catalog::ObjectRecord* rec = catalog_.lookup(e.object);
    if (rec->tape != system_.drive(d).mounted()) {
      ++served_from_replica_this_request_;
    }
  }
  drive_req_[d.index()].finish = engine_.now();
  drive_req_[d.index()].seek_done = drive_req_[d.index()].seek;
  drive_req_[d.index()].transfer_done = drive_req_[d.index()].transfer;
  if (engine_.now() > last_transfer_end_ ||
      (engine_.now() == last_transfer_end_ && !last_finisher_.valid())) {
    last_transfer_end_ = engine_.now();
    last_finisher_ = d;
  }
  if (outage_active()) {
    // First byte served from a restored library closes its RTO clock.
    OutageWatch& w = outage_watch_[system_.library_of_drive(d).index()];
    if (w.awaiting_first_byte) {
      w.awaiting_first_byte = false;
      const Seconds ttfb = engine_.now() - w.restored_at;
      outage_stats_.ttfb.add(ttfb.count());
      if (config_.tracer != nullptr) {
        const auto layout = obs::BucketLayout::exponential(0.1, 1e5, 1.3);
        config_.tracer->registry().histogram("outage.ttfb_s", layout)
            .record(ttfb.count());
      }
    }
  }
}

void RetrievalSimulator::next_action(DriveId d) {
  if (!switch_eligible(d)) return;
  if (fault_ != nullptr) {
    if (ctx_[d.index()].busy) return;
    if (!drive_available(d)) return;
  }
  const LibraryId lib = system_.library_of_drive(d);
  if (detector_active() && drive_quarantined(d) &&
      !quarantine_fallback(lib)) {
    // Quarantined drives take no new work (foreground or background);
    // an idle drive still holding a cartridge hands it back to its cell
    // so the rest of the fleet can reach it.
    tape::TapeDrive& drive = system_.drive(d);
    if (!drive.empty() && drive.idle()) quarantine_unmount(d);
    return;
  }
  if (breaker_skip_drive(d)) {
    // An open drive breaker sits out new chains while a healthy peer
    // exists. A held cartridge that still carries demand is handed back to
    // its cell (same choreography as quarantine) so the fleet can reach it.
    tape::TapeDrive& drive = system_.drive(d);
    if (!drive.empty() && drive.idle() &&
        needed_.count(drive.mounted().value()) != 0) {
      quarantine_unmount(d);
    }
    return;
  }
  auto& queue = lib_queue_[lib.index()];
  if (queue.empty()) {
    // No foreground demand for this library: the drive may lend itself to
    // background repair, then scrubbing (each a no-op unless active and
    // with work; maybe_start_scrub re-checks busy after a repair start).
    maybe_start_repair(d);
    maybe_start_scrub(d);
    return;
  }
  const TapeId target = queue.front();
  queue.pop_front();
  if (config_.tracer != nullptr) {
    // The tape has been demanded since the request started; a drive just
    // picked it up, ending its time in the library queue.
    config_.tracer->record(obs::Span{
        obs::Track::kRequest, config_.tracer->current_request().value(),
        obs::Phase::kQueueWait, t0_, engine_.now(),
        config_.tracer->current_request(), target, {}});
  }
  begin_switch(d, target);
}

void RetrievalSimulator::begin_switch(DriveId d, TapeId target) {
  drive_req_[d.index()].used = true;
  DriveCtx& ctx = ctx_[d.index()];
  ctx.busy = true;
  ctx.switch_target = target;
  ctx.mount_retries = 0;
  exchange(d, target, MountFor::kRequest);
}

// --- cartridge exchange -------------------------------------------------
//
// The robot must be at the drive for the whole cartridge handoff: it
// receives the ejecting cartridge, returns it to its cell, fetches the new
// one, and inserts it. Only then does the drive-side load/thread run
// (robot already free unless it holds the load). Rewind needs no robot and
// happens beforehand. Request switches, background mounts, and evictions
// all take this one path; an eviction stops after the unload and carries
// the cartridge home.

void RetrievalSimulator::exchange(DriveId d, TapeId target, MountFor why) {
  tape::TapeDrive& drive = system_.drive(d);
  if (drive.empty()) {
    ask_robot(d, target, why, /*had_tape=*/false);
    return;
  }
  const Seconds rewind = drive.start_rewind();
  schedule_activity(d, rewind, [this, d, target, why]() {
    system_.drive(d).finish_rewind();
    ask_robot(d, target, why, /*had_tape=*/true);
  }, kExchangeKinds[static_cast<std::size_t>(why)].rewind);
}

void RetrievalSimulator::ask_robot(DriveId d, TapeId target, MountFor why,
                                   bool had_tape) {
  DriveCtx& ctx = ctx_[d.index()];
  if (why == MountFor::kRequest && expired_) {
    // Deadline passed during the rewind: stop before asking for the
    // robot. The cartridge stays mounted (rewound) — a legal idle state.
    ctx.switch_target = TapeId{};
    ctx.busy = false;
    return;
  }
  const Seconds asked_at = engine_.now();
  const sim::Resource::Ticket ticket =
      system_.library(system_.library_of_drive(d))
          .robot()
          .acquire([this, d, target, why, had_tape, asked_at]() {
            robot_granted(d, target, why, had_tape, asked_at);
          });
  // Remember the waiter so a deadline or a hedge cancel can withdraw it;
  // the grant (which fires as a separate event, never inside acquire)
  // clears it again. Background mounts are never withdrawn.
  if (why != MountFor::kBackground) ctx.robot_ticket = ticket;
}

void RetrievalSimulator::robot_granted(DriveId d, TapeId target,
                                       MountFor why, bool had_tape,
                                       Seconds asked_at) {
  DriveCtx& ctx = ctx_[d.index()];
  ctx.robot_ticket = sim::Resource::kInvalidTicket;
  ctx.robot_held = true;
  if (why == MountFor::kRequest) {
    robot_wait_this_request_ += engine_.now() - asked_at;
    if (config_.tracer != nullptr && engine_.now() > asked_at) {
      config_.tracer->record(obs::Span{
          obs::Track::kDrive, d.value(), obs::Phase::kRobotWait, asked_at,
          engine_.now(), config_.tracer->current_request(), target, {}});
    }
    if (expired_) {
      // Granted after the deadline (cancel() came too late or lost the
      // race): give the arm straight back and stand down.
      system_.library(system_.library_of_drive(d)).robot().release();
      ctx.robot_held = false;
      ctx.switch_target = TapeId{};
      ctx.busy = false;
      return;
    }
  }
  if (fault_ != nullptr && !fault_->drive_online(d, engine_.now())) {
    // The drive died while queued for the robot; the failure path hands
    // the arm on (and recovers the cartridge).
    on_drive_failure(d);
    return;
  }
  if (!had_tape) {
    carry_cartridges(d, target, why, /*had_tape=*/false);
    return;
  }
  // Eject under robot supervision, then carry.
  const Seconds unload = system_.drive(d).start_unload();
  schedule_activity(d, unload, [this, d, target, why]() {
    const TapeId old = system_.drive(d).finish_unload();
    system_.note_unmounted(old);
    if (why == MountFor::kEvict) {
      // The evicted cartridge may carry demand (that is usually why the
      // eviction fired); hand it to a healthy drive once it is home.
      carry_home(d, kExchangeKinds[static_cast<std::size_t>(why)].carry,
                 [this, d, old]() {
                   requeue_if_needed(old);
                   ensure_progress(system_.library_of_drive(d));
                 });
      return;
    }
    // A failover may have demanded the evicted tape after this exchange
    // committed; hand it back to the queue now that it is out of the
    // drive (no-op unless it is needed and unclaimed).
    requeue_if_needed(old);
    carry_cartridges(d, target, why, /*had_tape=*/true);
  }, kExchangeKinds[static_cast<std::size_t>(why)].unload);
}

void RetrievalSimulator::carry_cartridges(DriveId d, TapeId target,
                                          MountFor why, bool had_tape) {
  tape::TapeLibrary& lib = system_.library(system_.library_of_drive(d));
  const Seconds move = robot_move_delay(
      lib, had_tape ? lib.robot_exchange_time() : lib.robot_move_time());
  engine_.schedule_in(move, [this, d, target, why]() {
    if (fault_ != nullptr && !fault_->drive_online(d, engine_.now())) {
      // Died while the robot was carrying cartridges; the target goes
      // back to its cell via the failure path.
      on_drive_failure(d);
      return;
    }
    if (!config_.robot_holds_load) {
      system_.library(system_.library_of_drive(d)).robot().release();
      ctx_[d.index()].robot_held = false;
    }
    load_cartridge(d, target, why);
  }, kExchangeKinds[static_cast<std::size_t>(why)].carry);
}

void RetrievalSimulator::load_cartridge(DriveId d, TapeId target,
                                        MountFor why) {
  if (why == MountFor::kRequest && governor_.enabled() &&
      ctx_[d.index()].mount_retries == 0) {
    // First attempt of this mount chain: useful work that earns the retry
    // budget its tokens.
    governor_.note_demand(GovernorClass::kRetry);
  }
  const Seconds load = system_.drive(d).start_load(target);
  schedule_activity(d, load, [this, d, target, why]() {
    const bool failed =
        fault_ != nullptr && fault_->mount_attempt_fails(d, engine_.now());
    if (why == MountFor::kRequest && governor_.enabled()) {
      // Every request load is an observation for the drive's breaker.
      governor_.note_outcome(BreakerScope::kDrive,
                             static_cast<std::uint32_t>(d.index()), !failed,
                             engine_.now());
    }
    if (failed) {
      on_mount_failure(d, target, why);
      return;
    }
    finish_mount(d, target, why);
  }, kExchangeKinds[static_cast<std::size_t>(why)].load);
}

void RetrievalSimulator::finish_mount(DriveId d, TapeId target,
                                      MountFor why) {
  DriveCtx& ctx = ctx_[d.index()];
  if (config_.robot_holds_load) {
    system_.library(system_.library_of_drive(d)).robot().release();
    ctx.robot_held = false;
  }
  system_.drive(d).finish_load();
  system_.note_mounted(target, d);
  if (why == MountFor::kBackground) {
    // Background traffic is no tape switch of any request.
    resume_background(d);
    return;
  }
  ++switches_this_request_;
  ++total_switches_;
  ctx.switch_target = TapeId{};
  ctx.mount_retries = 0;
  maybe_evacuate(target);  // mount-cycle wear may tip the health score
  serve_mounted(d);
}

template <typename Then>
void RetrievalSimulator::carry_home(DriveId d, const char* kind, Then then) {
  auto carry = [this, d, kind, then = std::move(then)]() mutable {
    ctx_[d.index()].robot_held = true;
    tape::TapeLibrary& lib = system_.library(system_.library_of_drive(d));
    const Seconds move = robot_move_delay(lib, lib.robot_move_time());
    engine_.schedule_in(move, [this, d, then = std::move(then)]() mutable {
      system_.library(system_.library_of_drive(d)).robot().release();
      DriveCtx& ctx = ctx_[d.index()];
      ctx.robot_held = false;
      ctx.busy = false;
      then();
    }, kind);
  };
  if (ctx_[d.index()].robot_held) {
    carry();
  } else {
    system_.library(system_.library_of_drive(d))
        .robot()
        .acquire(std::move(carry));
  }
}

void RetrievalSimulator::on_mount_failure(DriveId d, TapeId target,
                                          MountFor why) {
  TAPESIM_ASSERT(fault_ != nullptr);
  DriveCtx& ctx = ctx_[d.index()];
  tape::TapeDrive& drive = system_.drive(d);
  drive.fail_load();  // the load window was spent; cartridge never threaded
  if (why == MountFor::kBackground) {
    // A background job gets no retry ladder: the robot returns the
    // unthreadable cartridge to its cell and the job gives the drive up.
    if (ctx.scrub.has_value()) {
      if (config_.tracer != nullptr) {
        config_.tracer->marker(obs::Track::kDrive, d.value(),
                               "mount failure during scrub");
      }
      // The pass aborts and the tape stays due (no last_scrub_ update),
      // so a later drive retries it.
      carry_home(d, "scrub.return",
                 [this, d]() { end_scrub_pass(d, /*completed=*/false); });
      return;
    }
    if (config_.tracer != nullptr) {
      config_.tracer->marker(obs::Track::kDrive, d.value(),
                             "mount failure during repair");
    }
    // The job's tape claims drop now; the job itself goes to the back of
    // the queue (or is abandoned) once the cartridge is home.
    RepairJob job = std::move(*ctx.repair);
    ctx.repair.reset();
    --active_repairs_;
    if (job.target.valid()) {
      repair_writing_.erase(job.target.value());
      job.target = TapeId{};
    }
    if (!job.read_done) job.source = TapeId{};
    ++job.attempts;
    carry_home(d, "repair.return",
               [this, d, target, job = std::move(job)]() mutable {
                 if (job.attempts < kMaxRepairAttempts) {
                   repair_queue_.push_back(std::move(job));
                 } else {
                   abandon_repair(std::move(job));
                 }
                 requeue_if_needed(target);
                 release_repair_drive(d);
               });
    return;
  }
  const std::uint32_t attempts = ++mount_attempts_[target.value()];
  if (config_.tracer != nullptr) {
    config_.tracer->marker(obs::Track::kDrive, d.value(),
                           "mount failure on tape " +
                               std::to_string(target.value()));
  }
  const bool tape_exhausted =
      attempts >= config_.faults.max_mount_attempts_per_tape;
  if (!expired_ && !tape_exhausted &&
      ctx.mount_retries < config_.faults.mount_retry.max_retries) {
    const Seconds delay = config_.faults.mount_retry.delay(ctx.mount_retries);
    // A retry that can only land past the request's deadline is wasted
    // motion: the deadline event would expire the request before the retry
    // fires. Short-circuit straight into the give-up ladder.
    const bool past_slo =
        deadline_abs_.count() < metrics::RequestOutcome::kNoDeadline &&
        (engine_.now() + delay).count() >= deadline_abs_.count();
    const bool admitted =
        !governor_.enabled() ||
        governor_.admit(GovernorClass::kRetry, BreakerScope::kDrive,
                        static_cast<std::uint32_t>(d.index()), engine_.now());
    if (!past_slo && admitted) {
      ++ctx.mount_retries;
      ++mount_retries_this_request_;
      engine_.schedule_in(delay, [this, d, target]() {
        if (!fault_->drive_online(d, engine_.now())) {
          on_drive_failure(d);  // also requeues the target
          return;
        }
        load_cartridge(d, target, MountFor::kRequest);
      }, "switch.mount_retry");
      return;
    }
  }

  // This drive gives up on the cartridge: the robot returns it to its
  // cell, then either another drive gets a shot (failover) or — if the
  // cartridge has burned through its attempt budget everywhere — its data
  // completes as unavailable.
  ctx.switch_target = TapeId{};
  ctx.mount_retries = 0;
  carry_home(d, "switch.return", [this, d, target, tape_exhausted]() {
    if (expired_) {
      // The request gave up on this cartridge at its deadline; it goes
      // back to its cell and stays there.
    } else if (tape_exhausted) {
      complete_tape_unavailable(target);
    } else {
      lib_queue_[system_.library_of_tape(target).index()].push_front(target);
    }
    ensure_progress(system_.library_of_drive(d));
  });
}

// --- gray-failure mitigation --------------------------------------------

bool RetrievalSimulator::hedge_tombstoned(
    const catalog::TapeExtent& extent) const {
  return !hedge_cancelled_.empty() &&
         hedge_cancelled_.count(extent.object.value()) != 0;
}

void RetrievalSimulator::note_transfer_rate(DriveId d, Bytes amount,
                                            Seconds xfer) {
  if (xfer.count() <= 0.0 || amount.count() == 0) return;
  if (hedge_active()) {
    const Seconds native =
        duration_for(amount, system_.drive(d).spec().transfer_rate);
    const double ratio = xfer.count() / native.count();
    if (hedge_ratio_.size() < config_.hedge.history) {
      hedge_ratio_.push_back(ratio);
    } else {
      hedge_ratio_[hedge_ratio_next_] = ratio;
      hedge_ratio_next_ = (hedge_ratio_next_ + 1) % config_.hedge.history;
    }
  }
  if (detector_active()) {
    DetectorState& st = detector_[d.index()];
    const double rate = static_cast<double>(amount.count()) / xfer.count();
    st.tput_ewma = st.samples == 0
                       ? rate
                       : config_.detector.ewma_alpha * rate +
                             (1.0 - config_.detector.ewma_alpha) * st.tput_ewma;
    ++st.samples;
    evaluate_detector(d);
  }
}

void RetrievalSimulator::evaluate_detector(DriveId d) {
  DetectorState& st = detector_[d.index()];
  if (st.quarantined) return;
  if (st.samples < config_.detector.min_samples) return;
  std::vector<double> peers;
  peers.reserve(detector_.size());
  for (std::size_t i = 0; i < detector_.size(); ++i) {
    if (i == d.index()) continue;
    if (detector_[i].samples < config_.detector.min_samples) continue;
    peers.push_back(detector_[i].tput_ewma);
  }
  if (peers.empty()) return;
  std::sort(peers.begin(), peers.end());
  const double median = peers[peers.size() / 2];
  if (st.tput_ewma < config_.detector.fraction * median) {
    if (!(st.below_since < kNever)) st.below_since = engine_.now();
    if (!st.flagged &&
        engine_.now() - st.below_since >= config_.detector.window) {
      flag_drive(d);
    }
    return;
  }
  st.below_since = kNever;
  st.flagged = false;
}

void RetrievalSimulator::flag_drive(DriveId d) {
  DetectorState& st = detector_[d.index()];
  st.flagged = true;
  st.flagged_at = engine_.now();
  const bool truly_slow = fault_->drive_is_slow(d, engine_.now());
  if (truly_slow) {
    ++failslow_stats_.detected;
    const Seconds onset = fault_->drive_slow_since(d, engine_.now());
    const double lag = (engine_.now() - onset).count();
    failslow_stats_.detection_lag.add(lag);
    if (config_.tracer != nullptr) {
      config_.tracer->registry().counter("failslow.detected").inc();
      const auto layout = obs::BucketLayout::exponential(0.1, 1e5, 1.3);
      config_.tracer->registry()
          .histogram("failslow.detection_lag_s", layout)
          .record(lag);
      config_.tracer->marker(obs::Track::kQuarantine, d.value(),
                             "gray failure detected");
    }
  } else {
    ++failslow_stats_.false_positives;
    if (config_.tracer != nullptr) {
      config_.tracer->registry().counter("failslow.false_positives").inc();
      config_.tracer->marker(obs::Track::kQuarantine, d.value(),
                             "gray-failure false positive");
    }
  }
  if (!config_.detector.quarantine) return;
  st.quarantined = true;
  // The release target is the episode's end when the injector confirms one
  // (plus probation); a false positive sits out probation alone.
  const Seconds base =
      truly_slow ? fault_->drive_slow_until(d, engine_.now()) : engine_.now();
  st.release_at = base + config_.detector.probation;
  ++failslow_stats_.quarantines;
  if (config_.tracer != nullptr) {
    config_.tracer->registry().counter("failslow.quarantines").inc();
  }
}

bool RetrievalSimulator::drive_quarantined(DriveId d) {
  DetectorState& st = detector_[d.index()];
  if (!st.quarantined) return false;
  if (engine_.now() < st.release_at) return true;
  if (fault_->drive_is_slow(d, engine_.now())) {
    // Still inside a slow episode at the planned exit (a fresh one, or the
    // flagged one ran long): extend rather than re-admit a sick drive.
    st.release_at =
        fault_->drive_slow_until(d, engine_.now()) + config_.detector.probation;
    return true;
  }
  if (config_.tracer != nullptr) {
    config_.tracer->record(obs::Span{
        obs::Track::kQuarantine, d.value(), obs::Phase::kQuarantine,
        st.flagged_at, engine_.now(), config_.tracer->current_request(),
        TapeId{}, "released"});
  }
  st.quarantined = false;
  st.flagged = false;
  st.below_since = kNever;
  return false;
}

bool RetrievalSimulator::breaker_skip_drive(DriveId d) {
  if (!governor_.enabled()) return false;
  const Seconds now = engine_.now();
  if (!governor_.breaker_blocked(BreakerScope::kDrive,
                                 static_cast<std::uint32_t>(d.index()), now)) {
    return false;
  }
  // Step aside only when a live peer with a closed (or probing) breaker can
  // pick up the work; if the whole library is tripped, serving through the
  // open breaker beats wedging the queue.
  const LibraryId lib = system_.library_of_drive(d);
  const std::uint32_t per_lib = plan_->spec().library.drives_per_library;
  for (std::uint32_t i = 0; i < per_lib; ++i) {
    const DriveId peer{lib.value() * per_lib + i};
    if (!switch_eligible(peer)) continue;
    if (system_.drive(peer).failed()) continue;
    if (!governor_.breaker_blocked(BreakerScope::kDrive,
                                   static_cast<std::uint32_t>(peer.index()),
                                   now)) {
      return true;
    }
  }
  return false;
}

std::vector<LibraryId> RetrievalSimulator::breaker_down_libraries() {
  std::vector<LibraryId> blocked;
  if (!governor_.enabled() || governor_.breakers_open() == 0) return blocked;
  const Seconds now = engine_.now();
  for (std::uint32_t l = 0; l < plan_->spec().num_libraries; ++l) {
    if (governor_.breaker_blocked(BreakerScope::kLibrary, l, now) ||
        governor_.breaker_blocked(BreakerScope::kRobot, l, now)) {
      blocked.push_back(LibraryId{l});
    }
  }
  return blocked;
}

bool RetrievalSimulator::quarantine_fallback(LibraryId lib) {
  const std::uint32_t per_lib = plan_->spec().library.drives_per_library;
  for (std::uint32_t i = 0; i < per_lib; ++i) {
    const DriveId peer{lib.value() * per_lib + i};
    if (!switch_eligible(peer)) continue;
    if (system_.drive(peer).failed()) continue;
    // Raw state (not drive_quarantined) avoids release side effects while
    // scanning; a peer past its release time counts as healthy.
    const DetectorState& st = detector_[peer.index()];
    if (!st.quarantined || engine_.now() >= st.release_at) return false;
  }
  return true;
}

void RetrievalSimulator::quarantine_unmount(DriveId d) {
  TAPESIM_ASSERT(!system_.drive(d).empty() && system_.drive(d).idle());
  DriveCtx& ctx = ctx_[d.index()];
  TAPESIM_ASSERT(!ctx.busy);
  ctx.busy = true;
  exchange(d, TapeId{}, MountFor::kEvict);
}

double RetrievalSimulator::hedge_threshold_ratio() const {
  std::vector<double> sorted(hedge_ratio_);
  std::sort(sorted.begin(), sorted.end());
  const double rank = (config_.hedge.percentile / 100.0) *
                      static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

void RetrievalSimulator::maybe_arm_hedge(DriveId d,
                                         const catalog::TapeExtent& extent,
                                         Seconds xfer) {
  if (!hedge_active() || expired_) return;
  if (hedge_ratio_.size() < config_.hedge.min_history) return;
  const std::uint32_t obj = extent.object.value();
  if (hedges_.count(obj) != 0 || hedge_cancelled_.count(obj) != 0) return;
  const Seconds native =
      duration_for(extent.size, system_.drive(d).spec().transfer_rate);
  const double threshold =
      std::max(hedge_threshold_ratio(), config_.hedge.min_overrun);
  const Seconds trigger{native.count() * threshold};
  if (xfer <= trigger) return;
  // The stream is already known to overrun the trigger: the alarm fires at
  // the moment a fast drive would have finished, and launches the race if
  // the transfer is still the chain's live head then.
  const Seconds eta = engine_.now() + xfer;
  engine_.schedule_in(trigger, [this, d, extent, eta]() {
    maybe_launch_hedge(d, extent, eta);
  }, "hedge.alarm");
}

void RetrievalSimulator::maybe_launch_hedge(DriveId d,
                                            catalog::TapeExtent extent,
                                            Seconds eta) {
  if (!hedge_active() || expired_) return;
  const std::uint32_t obj = extent.object.value();
  if (hedges_.count(obj) != 0 || hedge_cancelled_.count(obj) != 0) return;
  const ServeChain& chain = chain_[d.index()];
  if (!chain.active || chain.index >= chain.extents.size()) return;
  if (chain.extents[chain.index].object != extent.object) return;
  tape::TapeDrive& drive = system_.drive(d);
  if (drive.state() != tape::DriveState::kTransferring) return;
  // Budget gate: speculation may not burn more than the configured
  // fraction of the bandwidth spent on foreground bytes so far. Under
  // metastable shedding the governor tightens that fraction further.
  if (static_cast<double>(hedge_bytes_ + extent.size.count()) >
      config_.hedge.budget_fraction * governor_.budget_clamp() *
          static_cast<double>(served_bytes_)) {
    return;
  }
  const TapeId primary = drive.mounted();
  std::vector<TapeId> exclude;
  if (const auto it = tried_.find(obj); it != tried_.end()) {
    exclude = it->second;
  }
  if (std::find(exclude.begin(), exclude.end(), primary) == exclude.end()) {
    exclude.push_back(primary);
  }
  const catalog::ObjectRecord* alt = nullptr;
  std::vector<LibraryId> down;
  if (outage_active()) down = down_libraries();
  if (governor_.enabled()) {
    // Libraries behind an open breaker are as good as down for speculation.
    for (const LibraryId blib : breaker_down_libraries()) {
      if (std::find(down.begin(), down.end(), blib) == down.end()) {
        down.push_back(blib);
      }
    }
  }
  if (outage_active() || !down.empty()) {
    alt = catalog_.best_replica(extent.object, exclude, down);
  } else {
    alt = catalog_.best_replica(extent.object, exclude);
  }
  if (alt == nullptr) return;
  // Only cross-library hedges: a same-library replica would contend for
  // the very robot and drives the slow leg is clogging.
  if (system_.library_of_tape(alt->tape) == system_.library_of_drive(d)) {
    return;
  }
  if (governor_.enabled() &&
      !governor_.admit(GovernorClass::kHedge, BreakerScope::kLibrary,
                       static_cast<std::uint32_t>(
                           system_.library_of_tape(alt->tape).index()),
                       engine_.now())) {
    return;
  }
  Hedge h;
  h.primary = primary;
  h.alt = alt->tape;
  h.primary_eta = eta;
  h.issued_at = engine_.now();
  hedges_.emplace(obj, h);
  hedge_bytes_ += extent.size.count();
  ++failslow_stats_.hedges_issued;
  if (config_.tracer != nullptr) {
    config_.tracer->registry().counter("failslow.hedges_issued").inc();
    config_.tracer->marker(
        obs::Track::kHedge, config_.tracer->current_request().value(),
        "hedge issued for object " + std::to_string(obj));
  }
  route_extent(*alt);
}

void RetrievalSimulator::settle_hedge_winner(
    DriveId d, const catalog::TapeExtent& extent) {
  if (!hedge_active()) return;
  const auto it = hedges_.find(extent.object.value());
  if (it == hedges_.end()) return;
  const Hedge h = it->second;
  hedges_.erase(it);
  const TapeId on = system_.drive(d).mounted();
  const bool won = on == h.alt;
  if (won) {
    ++failslow_stats_.hedges_won;
    if (!h.primary_dead) {
      const double margin = (h.primary_eta - engine_.now()).count();
      failslow_stats_.hedge_win_margin.add(margin);
      if (config_.tracer != nullptr) {
        const auto layout = obs::BucketLayout::exponential(0.1, 1e5, 1.3);
        config_.tracer->registry()
            .histogram("failslow.hedge_win_margin_s", layout)
            .record(margin);
      }
    }
  } else {
    ++failslow_stats_.hedges_lost;
  }
  record_hedge_settled(won ? "hedge won" : "hedge lost", h.issued_at);
  hedge_cancelled_.insert(extent.object.value());
  if (won && h.primary_dead) return;  // the loser already died; no cancel
  cancel_hedge_loser(extent.object, won ? h.primary : h.alt);
}

void RetrievalSimulator::cancel_hedge_loser(ObjectId obj, TapeId loser) {
  // Withdraw queued work first: the loser's tape may still be waiting for
  // a drive, or a switch may be en route to fetch it.
  if (const auto it = needed_.find(loser.value()); it != needed_.end()) {
    auto& vec = it->second;
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [obj](const catalog::TapeExtent& e) {
                               return e.object == obj;
                             }),
              vec.end());
    if (vec.empty()) {
      needed_.erase(it);
      const LibraryId lib_id = system_.library_of_tape(loser);
      auto& queue = lib_queue_[lib_id.index()];
      const auto q = std::find(queue.begin(), queue.end(), loser);
      if (q != queue.end()) queue.erase(q);
      for (DriveCtx& c : ctx_) {
        if (c.switch_target != loser) continue;
        if (c.robot_ticket == sim::Resource::kInvalidTicket) continue;
        // Still in the robot's queue: withdraw the switch outright. Once
        // the grant fired the exchange completes and the mounted cartridge
        // simply finds no demand.
        if (system_.library(lib_id).robot().cancel(c.robot_ticket)) {
          c.robot_ticket = sim::Resource::kInvalidTicket;
          c.switch_target = TapeId{};
          c.busy = false;
        }
      }
    }
  }
  // An active chain on the loser: splice out the object's future extents;
  // a clean in-flight transfer of it is retracted mid-stream through the
  // engine's cancel machinery.
  for (std::uint32_t i = 0; i < ctx_.size(); ++i) {
    const DriveId d{i};
    tape::TapeDrive& drive = system_.drive(d);
    ServeChain& chain = chain_[i];
    if (!chain.active || drive.empty() || drive.mounted() != loser) continue;
    for (std::size_t k = chain.extents.size(); k-- > chain.index + 1;) {
      if (chain.extents[k].object == obj) {
        chain.extents.erase(chain.extents.begin() +
                            static_cast<std::ptrdiff_t>(k));
      }
    }
    if (chain.index < chain.extents.size() &&
        chain.extents[chain.index].object == obj &&
        drive.state() == tape::DriveState::kTransferring &&
        ctx_[i].transfer_event != sim::kNoEvent) {
      engine_.cancel(ctx_[i].transfer_event);
      ctx_[i].transfer_event = sim::kNoEvent;
      const Bytes before = drive.head();
      drive.abort_transfer(engine_.now() - ctx_[i].activity_start);
      const std::uint64_t wasted =
          Bytes::distance(before, drive.head()).count();
      failslow_stats_.hedge_bytes_wasted += wasted;
      if (config_.tracer != nullptr) {
        config_.tracer->registry()
            .counter("failslow.hedge_wasted_bytes")
            .inc(wasted);
      }
      if (ctx_[i].disk_held) {
        disk_streams_.release();
        ctx_[i].disk_held = false;
      }
      ++chain.index;
      chain.retries = 0;
      serve_step(d);
    }
    // Anything else (locating, waiting for a disk slot, retry backoff, or
    // a transfer with a fault interrupt booked) unwinds via the tombstone
    // at its next activity boundary.
  }
}

bool RetrievalSimulator::hedge_absorb_failure(
    TapeId on, const catalog::TapeExtent& extent) {
  if (!hedge_active()) return false;
  const auto it = hedges_.find(extent.object.value());
  if (it == hedges_.end()) return false;
  Hedge& h = it->second;
  if (on == h.alt) {
    const bool primary_dead = h.primary_dead;
    const Seconds issued = h.issued_at;
    hedges_.erase(it);
    ++failslow_stats_.hedges_lost;
    record_hedge_settled(
        primary_dead ? "both hedge legs failed" : "hedge leg failed", issued);
    // With the primary still streaming the object stays covered (no
    // tombstone: the primary's completion must count normally); with both
    // legs dead the caller runs the ordinary failover ladder.
    return !primary_dead;
  }
  if (on == h.primary && !h.primary_dead) {
    // The primary died mid-race: the speculative leg silently becomes the
    // real one and carries the object's accounting from here.
    h.primary_dead = true;
    return true;
  }
  return false;
}

void RetrievalSimulator::record_hedge_settled(const char* verdict,
                                              Seconds issued_at) {
  if (config_.tracer == nullptr) return;
  const bool won = std::string(verdict) == "hedge won";
  config_.tracer->registry()
      .counter(won ? "failslow.hedges_won" : "failslow.hedges_lost")
      .inc();
  config_.tracer->record(obs::Span{
      obs::Track::kHedge, config_.tracer->current_request().value(),
      obs::Phase::kHedge, issued_at, engine_.now(),
      config_.tracer->current_request(), TapeId{}, verdict});
}

// --- replica failover ---------------------------------------------------

void RetrievalSimulator::fail_extent(TapeId on,
                                     const catalog::TapeExtent& extent) {
  // Cancelled hedge losers were settled by the winner; a failing hedged
  // leg hands the object to its racing twin instead of failing over.
  if (hedge_tombstoned(extent) || hedge_absorb_failure(on, extent)) return;
  if (catalog_.has_replicas()) {
    auto& tried = tried_[extent.object.value()];
    if (std::find(tried.begin(), tried.end(), on) == tried.end()) {
      tried.push_back(on);
    }
    // Failover work is governed: a replica behind an open breaker is
    // deprioritised (used only when no healthy copy exists), and the
    // attempt itself must clear the failover budget — over budget, the
    // extent fails fast into the unavailable ladder.
    const std::vector<LibraryId> blocked =
        governor_.enabled() ? breaker_down_libraries()
                            : std::vector<LibraryId>{};
    if (!outage_active()) {
      const catalog::ObjectRecord* alt = nullptr;
      if (!blocked.empty()) {
        alt = catalog_.best_replica(extent.object, tried, blocked);
      }
      if (alt == nullptr) alt = catalog_.best_replica(extent.object, tried);
      if (alt != nullptr) {
        if (governor_.enabled() &&
            !governor_.admit(GovernorClass::kFailover)) {
          extent_unavailable(extent);
          return;
        }
        route_extent(*alt);
        return;
      }
    } else {
      const std::vector<LibraryId> down = down_libraries();
      const catalog::ObjectRecord* alt = nullptr;
      if (!blocked.empty()) {
        std::vector<LibraryId> avoid = down;
        for (const LibraryId blib : blocked) {
          if (std::find(avoid.begin(), avoid.end(), blib) == avoid.end()) {
            avoid.push_back(blib);
          }
        }
        alt = catalog_.best_replica(extent.object, tried, avoid);
      }
      if (alt == nullptr) {
        alt = catalog_.best_replica(extent.object, tried, down);
      }
      if (alt != nullptr) {
        if (governor_.enabled() &&
            !governor_.admit(GovernorClass::kFailover)) {
          extent_unavailable(extent);
          return;
        }
        route_extent(*alt);
        return;
      }
      // Every remaining live copy sits behind a transiently downed library
      // (destroyed libraries' cartridges are Lost in the catalog and were
      // skipped above): park the extent on the best of them and serve it
      // when the library returns. Parking is not governed — it spends no
      // drive time now and is the last road to availability.
      if (const catalog::ObjectRecord* parked =
              catalog_.best_replica(extent.object, tried)) {
        park_extent(*parked);
        return;
      }
    }
  }
  extent_unavailable(extent);
}

void RetrievalSimulator::park_extent(const catalog::ObjectRecord& copy) {
  needed_[copy.tape.value()].push_back(
      catalog::TapeExtent{copy.object, copy.offset, copy.size});
  ++outage_stats_.extents_parked;
  ++extents_parked_this_request_;
  // Arms the restore watch via ensure_progress. A cartridge stuck in a
  // downed drive gets no queue entry from requeue_if_needed, so its
  // library's watch is armed here unless one is already pending (the
  // parked-work scan in ensure_progress finds the extent).
  const LibraryId lib = system_.library_of_tape(copy.tape);
  if (system_.drive_holding(copy.tape).has_value()) {
    if (!watch_pending_[lib.index()]) {
      engine_.schedule_in(
          Seconds{0.0}, [this, lib]() { ensure_progress(lib); },
          "library.progress");
    }
    return;
  }
  requeue_if_needed(copy.tape);
}

void RetrievalSimulator::route_extent(const catalog::ObjectRecord& alt) {
  const TapeId tp = alt.tape;
  const bool was_needed = needed_.count(tp.value()) != 0;
  needed_[tp.value()].push_back(
      catalog::TapeExtent{alt.object, alt.offset, alt.size});
  if (was_needed) return;  // a drive already owns (or is queued for) it
  if (const auto holder = system_.drive_holding(tp)) {
    const DriveId d = *holder;
    if (system_.drive(d).failed()) {
      recover_cartridge(d);
      return;
    }
    if (!ctx_[d.index()].busy) {
      engine_.schedule_in(Seconds{0.0}, [this, d]() {
        if (ctx_[d.index()].busy) return;
        const tape::TapeDrive& dr = system_.drive(d);
        if (dr.failed() || dr.empty()) return;
        if (needed_.count(dr.mounted().value()) != 0) serve_mounted(d);
      }, "failover.kick");
    }
    // Busy holder: serve_step's chain-end check picks the extent up.
    return;
  }
  // A mount of this tape may already be en route (complete_tape_unavailable
  // drops demand, not in-flight switches); queueing it again would mount
  // the cartridge twice.
  for (const DriveCtx& c : ctx_) {
    if (c.switch_target == tp) return;
  }
  if (repair_claimed(tp) || scrub_claimed(tp)) {
    return;  // served when the background claim releases it
  }
  const LibraryId lib = system_.library_of_tape(tp);
  lib_queue_[lib.index()].push_front(tp);  // failover priority
  engine_.schedule_in(Seconds{0.0}, [this, lib]() {
    kick_idle_drives(lib);
    ensure_progress(lib);
  }, "failover.progress");
}

void RetrievalSimulator::on_cartridge_health_change(
    TapeId tp, tape::CartridgeHealth health) {
  catalog_.set_tape_health(tp, to_replica_health(health));
  if (journal_ != nullptr) {
    journal_->log_set_tape_health(tp, to_replica_health(health),
                                  engine_.now());
  }
  if (config_.repair.enabled) schedule_repairs_for(tp);
}

// --- background repair --------------------------------------------------

void RetrievalSimulator::schedule_repairs_for(TapeId tp) {
  if (!repair_active()) return;
  // Every object with a copy on the degraded/lost tape may now be below
  // the target replication factor.
  for (const catalog::TapeExtent& e : catalog_.extents_on(tp)) {
    std::uint32_t good = 0;
    auto count = [&](const catalog::ObjectRecord& copy) {
      if (catalog_.tape_retired(copy.tape)) return;
      if (catalog_.tape_health(copy.tape) == catalog::ReplicaHealth::kGood) {
        ++good;
      }
    };
    if (const catalog::ObjectRecord* primary = catalog_.lookup(e.object)) {
      count(*primary);
    }
    for (const catalog::ObjectRecord& copy : catalog_.replicas(e.object)) {
      count(copy);
    }
    std::uint32_t pending = 0;
    if (const auto it = repair_pending_.find(e.object.value());
        it != repair_pending_.end()) {
      pending = it->second;
    }
    if (good + pending >= target_copies_) continue;
    const std::uint32_t deficit = target_copies_ - good - pending;
    for (std::uint32_t i = 0; i < deficit; ++i) {
      RepairJob job;
      job.object = e.object;
      job.size = e.size;
      if (dr_tag_.valid()) {
        // Scheduled from inside register_outage's disaster loss loop: this
        // copy replaces data destroyed with the site.
        job.dr_from = dr_tag_;
        ++outage_stats_.dr_jobs;
        ++dr_outstanding_[dr_tag_.value()];
        if (config_.tracer != nullptr) {
          config_.tracer->registry().counter("outage.dr_jobs").inc();
        }
      }
      repair_queue_.push_back(job);
      ++repair_pending_[e.object.value()];
      ++repair_stats_.jobs_scheduled;
    }
  }
  engine_.schedule_in(
      Seconds{0.0}, [this]() { pump_repairs(); }, "repair.pump");
}

void RetrievalSimulator::pump_repairs() {
  if (!copy_engine_active() || repair_queue_.empty()) return;
  const std::uint32_t total = plan_->spec().total_drives();
  for (std::uint32_t dv = 0; dv < total; ++dv) {
    if (repair_queue_.empty() || active_repairs_ >= repair_concurrency_cap()) {
      return;
    }
    maybe_start_repair(DriveId{dv});
  }
}

std::uint32_t RetrievalSimulator::repair_concurrency_cap() const {
  // While disaster-recovery jobs are outstanding the surge cap applies; it
  // falls back to the steady-state cap once the last DR job settles.
  if (dr_outstanding_.empty()) return config_.repair.max_concurrent;
  return std::max(config_.repair.max_concurrent,
                  config_.faults.outage.dr_max_concurrent);
}

bool RetrievalSimulator::repair_claimed(TapeId tp) const {
  // active_repairs_ counts the drives holding a job (check_job_counts).
  if (active_repairs_ == 0) return false;
  for (const DriveCtx& c : ctx_) {
    if (!c.repair.has_value()) continue;
    // Only the tape of the job's active phase is claimed; the read source
    // of a write-phase job is free again.
    const TapeId using_tp = c.repair->read_done ? c.repair->target
                                                : c.repair->source;
    if (using_tp == tp) return true;
  }
  return false;
}

void RetrievalSimulator::check_job_counts() const {
  std::uint32_t repairing = 0;
  std::uint32_t scrubbing = 0;
  for (const DriveCtx& c : ctx_) {
    if (c.repair.has_value()) ++repairing;
    if (c.scrub.has_value()) ++scrubbing;
  }
  TAPESIM_ASSERT_MSG(repairing == active_repairs_,
                     "active_repairs_ differs from the drives holding a "
                     "repair job");
  TAPESIM_ASSERT_MSG(scrubbing == active_scrubs_,
                     "active_scrubs_ differs from the drives holding a "
                     "scrub pass");
}

void RetrievalSimulator::requeue_if_needed(TapeId tp) {
  if (!tp.valid() || needed_.count(tp.value()) == 0) return;
  if (system_.drive_holding(tp).has_value()) return;
  for (const DriveCtx& c : ctx_) {
    if (c.switch_target == tp) return;
  }
  if (repair_claimed(tp) || scrub_claimed(tp)) return;
  const LibraryId lib = system_.library_of_tape(tp);
  auto& queue = lib_queue_[lib.index()];
  if (std::find(queue.begin(), queue.end(), tp) != queue.end()) return;
  queue.push_front(tp);
  engine_.schedule_in(Seconds{0.0}, [this, lib]() {
    kick_idle_drives(lib);
    ensure_progress(lib);
  }, "requeue.progress");
}

bool RetrievalSimulator::tape_claimed(TapeId tp, DriveId self) const {
  for (std::uint32_t i = 0; i < ctx_.size(); ++i) {
    if (DriveId{i} == self) continue;
    const DriveCtx& c = ctx_[i];
    if (c.switch_target == tp) return true;
    if (c.repair.has_value() &&
        (c.repair->source == tp || c.repair->target == tp)) {
      return true;
    }
    if (c.scrub.has_value() && c.scrub->tape == tp) return true;
  }
  return false;
}

const catalog::ObjectRecord* RetrievalSimulator::pick_repair_source(
    DriveId d, const RepairJob& job) const {
  const LibraryId lib = system_.library_of_drive(d);
  const catalog::ObjectRecord* best = nullptr;
  int best_rank = 100;
  auto consider = [&](const catalog::ObjectRecord& copy) {
    if (system_.library_of_tape(copy.tape) != lib) return;
    if (catalog_.tape_retired(copy.tape)) {
      // An evacuated copy still exists physically, but the point of the
      // evacuation was to stop touching that cartridge; the drained copy
      // serves as the source instead. (A still-evacuating tape is not yet
      // retired, so the evacuation's own reads pass this check.)
      return;
    }
    const catalog::ReplicaHealth h = catalog_.tape_health(copy.tape);
    if (h == catalog::ReplicaHealth::kLost) return;
    const auto holder = system_.drive_holding(copy.tape);
    if (holder.has_value() && *holder != d) return;  // mounted elsewhere
    if (tape_claimed(copy.tape, d)) return;
    if (needed_.count(copy.tape.value()) != 0) return;  // foreground owns it
    // Good media beats degraded; already mounted on this drive beats a
    // switch.
    int rank = h == catalog::ReplicaHealth::kGood ? 0 : 2;
    if (!(holder.has_value() && *holder == d)) rank += 1;
    if (rank < best_rank) {
      best_rank = rank;
      best = &copy;
    }
  };
  if (const catalog::ObjectRecord* primary = catalog_.lookup(job.object)) {
    consider(*primary);
  }
  for (const catalog::ObjectRecord& copy : catalog_.replicas(job.object)) {
    consider(copy);
  }
  return best;
}

TapeId RetrievalSimulator::pick_repair_target(DriveId d,
                                              const RepairJob& job) const {
  const LibraryId lib = system_.library_of_drive(d);
  const std::uint32_t num_libs = plan_->spec().num_libraries;
  // Library anti-affinity: prefer a library holding no live copy; writing
  // into a copy-holding library is allowed only once every library holds
  // one (r > #libraries).
  std::vector<bool> lib_has_copy(num_libs, false);
  auto mark = [&](const catalog::ObjectRecord& copy) {
    if (catalog_.tape_health(copy.tape) == catalog::ReplicaHealth::kLost ||
        catalog_.tape_retired(copy.tape)) {
      return;
    }
    lib_has_copy[system_.library_of_tape(copy.tape).index()] = true;
  };
  if (const catalog::ObjectRecord* primary = catalog_.lookup(job.object)) {
    mark(*primary);
  }
  for (const catalog::ObjectRecord& copy : catalog_.replicas(job.object)) {
    mark(copy);
  }
  if (outage_active()) {
    // A destroyed library can never host a copy again; counting it as
    // covered keeps anti-affinity from wedging disaster-recovery repairs
    // waiting on a placement that cannot exist.
    for (std::uint32_t l = 0; l < num_libs; ++l) {
      if (system_.library_state(LibraryId{l}) ==
          tape::LibraryState::kDestroyed) {
        lib_has_copy[l] = true;
      }
    }
  }
  const bool all_covered =
      std::all_of(lib_has_copy.begin(), lib_has_copy.end(),
                  [](bool b) { return b; });
  if (lib_has_copy[lib.index()] && !all_covered) return TapeId{};

  auto holds_copy = [&](TapeId t) {
    if (const catalog::ObjectRecord* primary = catalog_.lookup(job.object);
        primary != nullptr && primary->tape == t) {
      return true;
    }
    for (const catalog::ObjectRecord& copy : catalog_.replicas(job.object)) {
      if (copy.tape == t) return true;
    }
    return false;
  };
  auto eligible = [&](TapeId t) {
    if (catalog_.tape_health(t) != catalog::ReplicaHealth::kGood) {
      return false;
    }
    // Never write fresh copies onto media on its way out of service.
    if (catalog_.tape_retired(t) || evacuating_.count(t.value()) != 0) {
      return false;
    }
    if (repair_writing_.count(t.value()) != 0) return false;
    if (needed_.count(t.value()) != 0) return false;  // foreground demand
    if (holds_copy(t)) return false;
    if (catalog_.used_on(t) + job.size >
        plan_->spec().library.tape_capacity) {
      return false;
    }
    const auto holder = system_.drive_holding(t);
    if (holder.has_value() && *holder != d) return false;
    if (tape_claimed(t, d)) return false;
    return true;
  };
  // The tape already in the drive avoids a whole switch.
  const tape::TapeDrive& drive = system_.drive(d);
  if (!drive.empty() && system_.library_of_tape(drive.mounted()) == lib &&
      eligible(drive.mounted())) {
    return drive.mounted();
  }
  const std::uint32_t per_lib = plan_->spec().library.tapes_per_library;
  for (std::uint32_t i = 0; i < per_lib; ++i) {
    const TapeId t{lib.value() * per_lib + i};
    if (eligible(t)) return t;
  }
  return TapeId{};
}

void RetrievalSimulator::maybe_start_repair(DriveId d) {
  if (!copy_engine_active() || repair_queue_.empty()) return;
  // Under overload pressure every idle drive belongs to the foreground;
  // repair jobs keep their queue slots and resume when pressure clears.
  if (overload_pressure_) return;
  if (active_repairs_ >= repair_concurrency_cap()) return;
  if (!switch_eligible(d)) return;
  DriveCtx& ctx = ctx_[d.index()];
  if (ctx.busy || ctx.recovery_pending) return;
  if (!drive_available(d)) return;
  // Quarantined drives take no background copies either; next_repair_wake
  // covers their release so drain_repairs keeps waiting instead of
  // abandoning jobs. An open drive breaker likewise rules out volunteering.
  if (detector_active() && drive_quarantined(d)) return;
  if (governor_.enabled() &&
      governor_.breaker_blocked(BreakerScope::kDrive,
                                static_cast<std::uint32_t>(d.index()),
                                engine_.now())) {
    return;
  }
  const tape::TapeDrive& drive = system_.drive(d);
  if (!(drive.idle() || drive.empty())) return;
  if (!drive.empty() && needed_.count(drive.mounted().value()) != 0) return;
  if (!lib_queue_[system_.library_of_drive(d).index()].empty()) return;
  for (auto it = repair_queue_.begin(); it != repair_queue_.end();) {
    if (!it->read_done && catalog_.best_replica(it->object) == nullptr) {
      // Every copy is lost; the object cannot be re-replicated.
      RepairJob dead = std::move(*it);
      it = repair_queue_.erase(it);
      abandon_repair(std::move(dead));
      continue;
    }
    if (it->read_done) {
      const TapeId target = pick_repair_target(d, *it);
      if (target.valid()) {
        RepairJob job = std::move(*it);
        repair_queue_.erase(it);
        job.target = target;
        job.write_offset = catalog_.used_on(target);
        repair_writing_.insert(target.value());
        start_repair(d, std::move(job));
        return;
      }
    } else {
      if (const catalog::ObjectRecord* src = pick_repair_source(d, *it)) {
        RepairJob job = std::move(*it);
        repair_queue_.erase(it);
        job.source = src->tape;
        job.source_offset = src->offset;
        start_repair(d, std::move(job));
        return;
      }
    }
    ++it;
  }
}

void RetrievalSimulator::start_repair(DriveId d, RepairJob job) {
  DriveCtx& ctx = ctx_[d.index()];
  ctx.busy = true;
  if (!job.has_started) {
    job.has_started = true;
    job.started = engine_.now();
  }
  const bool writing = job.read_done;
  const TapeId tp = writing ? job.target : job.source;
  ctx.repair = std::move(job);
  ++active_repairs_;
  const tape::TapeDrive& drive = system_.drive(d);
  if (!drive.empty() && drive.mounted() == tp) {
    resume_background(d);
    return;
  }
  exchange(d, tp, MountFor::kBackground);
}

void RetrievalSimulator::resume_background(DriveId d) {
  if (ctx_[d.index()].scrub.has_value()) {
    scrub_segment(d);
  } else {
    repair_locate(d);
  }
}

void RetrievalSimulator::repair_locate(DriveId d) {
  DriveCtx& ctx = ctx_[d.index()];
  TAPESIM_ASSERT(ctx.repair.has_value());
  const RepairJob& job = *ctx.repair;
  const Seconds locate = system_.drive(d).start_locate(
      job.read_done ? job.write_offset : job.source_offset);
  schedule_activity(d, locate, [this, d]() {
    system_.drive(d).finish_locate();
    disk_streams_.acquire([this, d]() {
      ctx_[d.index()].disk_held = true;
      if (fault_ != nullptr && !fault_->drive_online(d, engine_.now())) {
        disk_streams_.release();
        ctx_[d.index()].disk_held = false;
        on_drive_failure(d);
        return;
      }
      repair_transfer(d);
    });
  }, "repair.locate");
}

void RetrievalSimulator::repair_transfer(DriveId d) {
  const RepairJob& job = *ctx_[d.index()].repair;
  const bool writing = job.read_done;
  const Seconds xfer = system_.drive(d).start_transfer(
      job.size, fault_->drive_rate_multiplier(d, engine_.now()));
  // Repair reads suffer media errors and drive failures like any other
  // read. Writes go to a healthy tape: no media-error draw (the error
  // model is a per-read draw), but the drive can still die mid-write.
  std::optional<Seconds> media_at;
  if (!writing) {
    if (const auto frac = fault_->media_error(
            job.source, job.size, system_.cartridge_health(job.source),
            engine_.now())) {
      media_at = xfer * *frac;
    }
  }
  schedule_activity(d, xfer, [this, d, xfer, writing]() {
    disk_streams_.release();
    ctx_[d.index()].disk_held = false;
    system_.drive(d).finish_transfer();
    repair_pace(d, xfer, [this, d, writing]() {
      if (writing) {
        complete_repair(d);
      } else {
        finish_repair_read(d);
      }
    });
  }, writing ? "repair.write" : "repair.read", media_at,
     [this, d]() { repair_media_error(d); }, "repair.media_error");
}

void RetrievalSimulator::repair_media_error(DriveId d) {
  DriveCtx& ctx = ctx_[d.index()];
  TAPESIM_ASSERT(ctx.repair.has_value());
  tape::TapeDrive& drive = system_.drive(d);
  const TapeId tp = drive.mounted();
  drive.abort_transfer(engine_.now() - ctx.activity_start);
  disk_streams_.release();
  ctx.disk_held = false;
  const tape::CartridgeHealth health = fault_->record_media_error(tp);
  if (health != system_.cartridge_health(tp)) {
    system_.set_cartridge_health(tp, health);
    on_cartridge_health_change(tp, health);
  }
  // Failover demand may be waiting on this tape for the job to release
  // it; a lost cartridge serves none of it, so fail it over now.
  if (health == tape::CartridgeHealth::kLost) complete_tape_unavailable(tp);
  if (config_.tracer != nullptr) {
    config_.tracer->marker(obs::Track::kDrive, d.value(),
                           "media error during repair on tape " +
                               std::to_string(tp.value()));
  }
  RepairJob job = std::move(*ctx.repair);
  ctx.repair.reset();
  --active_repairs_;
  ctx.busy = false;
  job.source = TapeId{};  // re-pick: this copy may have just degraded
  ++job.attempts;
  if (job.attempts >= kMaxRepairAttempts) {
    abandon_repair(std::move(job));
  } else {
    repair_queue_.push_back(std::move(job));
  }
  release_repair_drive(d);
}

void RetrievalSimulator::finish_repair_read(DriveId d) {
  DriveCtx& ctx = ctx_[d.index()];
  TAPESIM_ASSERT(ctx.repair.has_value());
  RepairJob job = std::move(*ctx.repair);
  ctx.repair.reset();
  --active_repairs_;
  ctx.busy = false;
  job.read_done = true;
  // The staged data should land on tape promptly: the write half goes to
  // the front of the queue (usually a drive in another library takes it).
  repair_queue_.push_front(std::move(job));
  release_repair_drive(d);
}

void RetrievalSimulator::background_pace(DriveId d, Seconds xfer,
                                         double fraction, sim::Action next,
                                         const char* kind) {
  if (fraction >= 1.0) {
    next();
    return;
  }
  // Full-rate transfer + idle tail: the drive's average background
  // throughput is fraction × native rate, while per-byte transfer
  // accounting (DriveStats, span conservation) stays at native rate.
  const Seconds pace = xfer * ((1.0 - fraction) / fraction);
  engine_.schedule_in(pace, [this, d, next = std::move(next)]() mutable {
    if (fault_ != nullptr && !fault_->drive_online(d, engine_.now())) {
      on_drive_failure(d);
      return;
    }
    next();
  }, kind);
}

void RetrievalSimulator::repair_pace(DriveId d, Seconds xfer,
                                     sim::Action next) {
  const DriveCtx& ctx = ctx_[d.index()];
  const bool dr = ctx.repair.has_value() && ctx.repair->dr_from.valid();
  // Under metastable shedding the governor clamps repair/DR bandwidth so
  // recovery work stops competing with collapsing foreground goodput.
  background_pace(d, xfer,
                  (dr ? config_.faults.outage.dr_bandwidth_fraction
                      : config_.repair.bandwidth_fraction) *
                      governor_.repair_clamp(),
                  std::move(next), "repair.pace");
}

void RetrievalSimulator::complete_repair(DriveId d) {
  DriveCtx& ctx = ctx_[d.index()];
  TAPESIM_ASSERT(ctx.repair.has_value());
  RepairJob job = std::move(*ctx.repair);
  ctx.repair.reset();
  --active_repairs_;
  ctx.busy = false;
  const LibraryId lib = system_.library_of_tape(job.target);
  const bool ok = catalog_.insert_replica(catalog::ObjectRecord{
      job.object, job.size, lib, job.target, job.write_offset});
  TAPESIM_ASSERT_MSG(ok, "repair produced an invalid replica");
  if (journal_ != nullptr) {
    journal_->log_insert_replica(
        catalog::ObjectRecord{job.object, job.size, lib, job.target,
                              job.write_offset},
        engine_.now());
  }
  repair_writing_.erase(job.target.value());
  const auto it = repair_pending_.find(job.object.value());
  TAPESIM_ASSERT(it != repair_pending_.end() && it->second > 0);
  if (--it->second == 0) repair_pending_.erase(it);
  ++repair_stats_.jobs_completed;
  repair_stats_.bytes_copied += job.size.count();
  if (in_request_) ++repaired_this_request_;
  if (config_.tracer != nullptr) {
    config_.tracer->record(obs::Span{obs::Track::kRepair, job.object.value(),
                                     obs::Phase::kRepair, job.started,
                                     engine_.now(), RequestId{}, job.target,
                                     {}});
    config_.tracer->registry().counter("repair.completed").inc();
    config_.tracer->registry().counter("repair.copied_bytes").inc(job.size.count());
  }
  if (job.evac_from.valid()) {
    ++evac_stats_.objects_moved;
    if (config_.tracer != nullptr) {
      config_.tracer->registry().counter("evac.objects_moved").inc();
    }
    note_evac_job_done(job.evac_from);
  }
  if (job.dr_from.valid()) {
    outage_stats_.dr_bytes += job.size.count();
    if (config_.tracer != nullptr) {
      config_.tracer->registry().counter("outage.dr_bytes")
          .inc(job.size.count());
    }
    note_dr_job_done(job.dr_from);
  }
  release_repair_drive(d);
}

void RetrievalSimulator::abandon_repair(RepairJob job) {
  ++repair_stats_.jobs_abandoned;
  if (job.target.valid()) repair_writing_.erase(job.target.value());
  const auto it = repair_pending_.find(job.object.value());
  TAPESIM_ASSERT(it != repair_pending_.end() && it->second > 0);
  if (--it->second == 0) repair_pending_.erase(it);
  if (config_.tracer != nullptr) {
    config_.tracer->marker(obs::Track::kRepair, job.object.value(),
                           "repair abandoned");
  }
  if (job.evac_from.valid()) note_evac_job_done(job.evac_from);
  if (job.dr_from.valid()) note_dr_job_done(job.dr_from);
}

void RetrievalSimulator::release_repair_drive(DriveId d) {
  // Foreground work first: a tape this drive holds may have been demanded
  // while the repair ran, or its library queue may have filled up.
  engine_.schedule_in(Seconds{0.0}, [this, d]() {
    DriveCtx& c = ctx_[d.index()];
    if (c.busy) return;
    const tape::TapeDrive& dr = system_.drive(d);
    if (dr.failed()) return;
    if (!dr.empty() && needed_.count(dr.mounted().value()) != 0) {
      serve_mounted(d);
      return;
    }
    next_action(d);  // pulls the lib queue, or falls back to more repair
  }, "repair.release");
  engine_.schedule_in(
      Seconds{0.0}, [this]() { pump_repairs(); }, "repair.pump");
}

Seconds RetrievalSimulator::next_repair_wake() {
  if (fault_ == nullptr) return kNever;
  const Seconds now = engine_.now();
  Seconds wake = kNever;
  if (outage_active()) {
    for (std::uint32_t l = 0; l < plan_->spec().num_libraries; ++l) {
      if (system_.library_state(LibraryId{l}) == tape::LibraryState::kDown) {
        wake = std::min(wake, outage_watch_[l].restore_at);
      }
    }
  }
  for (std::uint32_t i = 0; i < ctx_.size(); ++i) {
    const DriveId d{i};
    if (detector_active() && detector_[i].quarantined) {
      // A quarantined fleet must not strand queued copies: wake at the
      // earliest release (drive_quarantined re-extends it if the drive
      // is observed still slow then).
      wake = std::min(wake, detector_[i].release_at);
    }
    if (!system_.drive(d).failed()) continue;
    if (const auto back = fault_->next_online_at(d, now)) {
      wake = std::min(wake, *back);
    }
  }
  return wake;
}

void RetrievalSimulator::drain_repairs() {
  if (!copy_engine_active()) return;
  std::size_t stable = repair_queue_.size() + 1;
  Seconds woke_at = kNever;  // the last stall's wake; kNever after progress
  while (active_repairs_ > 0 || !repair_queue_.empty()) {
    pump_repairs();
    engine_.run();
    if (active_repairs_ == 0 && repair_queue_.size() == stable) {
      // No job could start and the event loop went idle. A transiently
      // downed drive or library may still be due back — the lazy fault
      // timelines hold that instant, and nothing else arms a wake for
      // background copies (the ensure_progress watches only cover
      // foreground demand). Sleep until it and try again.
      const Seconds wake = std::max(next_repair_wake(), engine_.now());
      // A second wake at the instant the last one already tried would
      // change nothing: the due transition is one no pump observes (a
      // pinned drive's quarantine release, a repair behind overload
      // pressure), so the stall is as final as a static world.
      if (wake < kNever && wake != woke_at) {
        woke_at = wake;
        engine_.schedule_at(wake, [this]() { pump_repairs(); }, "repair.wake");
        continue;
      }
      // The world is static with jobs still queued: every remaining job
      // has no reachable source or no placeable target, and no future
      // event changes that. Abandon them so the DR and evacuation
      // ledgers settle instead of wedging half-open.
      while (!repair_queue_.empty()) {
        RepairJob dead = std::move(repair_queue_.front());
        repair_queue_.pop_front();
        abandon_repair(std::move(dead));
      }
      break;
    }
    stable = repair_queue_.size();
    woke_at = kNever;
  }
}

// --- background scrubbing -----------------------------------------------

bool RetrievalSimulator::scrub_claimed(TapeId tp) const {
  // active_scrubs_ counts the drives holding a pass (check_job_counts).
  if (active_scrubs_ == 0) return false;
  for (const DriveCtx& c : ctx_) {
    if (c.scrub.has_value() && c.scrub->tape == tp) return true;
  }
  return false;
}

bool RetrievalSimulator::scrub_yield_needed(DriveId d) const {
  if (overload_pressure_) return true;
  if (governor_.scrub_paused()) return true;
  if (!lib_queue_[system_.library_of_drive(d).index()].empty()) return true;
  const DriveCtx& c = ctx_[d.index()];
  return c.scrub.has_value() && needed_.count(c.scrub->tape.value()) != 0;
}

TapeId RetrievalSimulator::pick_scrub_tape(DriveId d) const {
  const Seconds now = engine_.now();
  auto due = [&](TapeId t) {
    if (catalog_.used_on(t).count() == 0) return false;  // nothing to verify
    if (now - last_scrub_[t.index()] < config_.scrub.interval) return false;
    if (system_.cartridge_lost(t)) return false;
    if (catalog_.tape_retired(t)) return false;
    if (evacuating_.count(t.value()) != 0) return false;
    if (needed_.count(t.value()) != 0) return false;  // foreground owns it
    const auto holder = system_.drive_holding(t);
    if (holder.has_value() && *holder != d) return false;
    if (tape_claimed(t, d)) return false;
    return true;
  };
  // The mounted cartridge skips the whole robot exchange; take it when due.
  const tape::TapeDrive& drive = system_.drive(d);
  if (!drive.empty() && due(drive.mounted())) return drive.mounted();
  const LibraryId lib = system_.library_of_drive(d);
  const std::uint32_t per_lib = plan_->spec().library.tapes_per_library;
  TapeId best{};
  Seconds best_last{kNever};
  for (std::uint32_t i = 0; i < per_lib; ++i) {
    const TapeId t{lib.value() * per_lib + i};
    if (!due(t)) continue;
    if (!best.valid() || last_scrub_[t.index()] < best_last) {
      best = t;
      best_last = last_scrub_[t.index()];
    }
  }
  return best;  // most overdue first; invalid when nothing is due
}

void RetrievalSimulator::maybe_start_scrub(DriveId d) {
  if (!scrub_active()) return;
  // New passes start only while foreground work is outstanding: scrub
  // traffic rides inside request drains, so engine_.run() still terminates
  // (a pass started on the last extent's completion could make more tapes
  // due by advancing time, forever). In-flight passes drain normally.
  if (remaining_extents_ == 0) return;
  if (overload_pressure_) return;
  // First lever of metastable shedding: scrub is the most deferrable
  // amplification class, so it pauses before repair or budgets tighten.
  if (governor_.scrub_paused()) return;
  if (active_scrubs_ >= config_.scrub.max_concurrent) return;
  if (!switch_eligible(d)) return;
  DriveCtx& ctx = ctx_[d.index()];
  if (ctx.busy || ctx.recovery_pending) return;
  if (!drive_available(d)) return;
  if (detector_active() && drive_quarantined(d)) return;
  if (governor_.enabled() &&
      governor_.breaker_blocked(BreakerScope::kDrive,
                                static_cast<std::uint32_t>(d.index()),
                                engine_.now())) {
    return;
  }
  const tape::TapeDrive& drive = system_.drive(d);
  if (!(drive.idle() || drive.empty())) return;
  if (!drive.empty() && needed_.count(drive.mounted().value()) != 0) return;
  if (!lib_queue_[system_.library_of_drive(d).index()].empty()) return;
  const TapeId tp = pick_scrub_tape(d);
  if (!tp.valid()) return;
  start_scrub(d, tp);
}

void RetrievalSimulator::start_scrub(DriveId d, TapeId tp) {
  DriveCtx& ctx = ctx_[d.index()];
  ctx.busy = true;
  ScrubJob job;
  job.tape = tp;
  job.end = catalog_.used_on(tp);
  job.started = engine_.now();
  ctx.scrub = job;
  ++active_scrubs_;
  const tape::TapeDrive& drive = system_.drive(d);
  if (!drive.empty() && drive.mounted() == tp) {
    scrub_segment(d);
    return;
  }
  exchange(d, tp, MountFor::kBackground);
}

void RetrievalSimulator::scrub_segment(DriveId d) {
  DriveCtx& ctx = ctx_[d.index()];
  TAPESIM_ASSERT(ctx.scrub.has_value());
  if (!fault_->drive_online(d, engine_.now())) {
    on_drive_failure(d);
    return;
  }
  if (scrub_yield_needed(d)) {
    end_scrub_pass(d, /*completed=*/false);
    return;
  }
  const ScrubJob& job = *ctx.scrub;
  if (job.next_offset >= job.end) {
    end_scrub_pass(d, /*completed=*/true);
    return;
  }
  const Bytes seg{std::min(config_.scrub.segment.count(),
                           (job.end - job.next_offset).count())};
  tape::TapeDrive& drive = system_.drive(d);
  const Seconds locate = drive.start_locate(job.next_offset);
  schedule_activity(d, locate, [this, d, seg]() {
    system_.drive(d).finish_locate();
    scrub_transfer(d, seg);
  }, "scrub.locate");
}

void RetrievalSimulator::scrub_transfer(DriveId d, Bytes seg) {
  DriveCtx& ctx = ctx_[d.index()];
  TAPESIM_ASSERT(ctx.scrub.has_value());
  const TapeId tp = ctx.scrub->tape;
  const Seconds xfer = system_.drive(d).start_transfer(
      seg, fault_->drive_rate_multiplier(d, engine_.now()));
  // A verify read suffers active media errors and drive failures like any
  // read. Latent decay damage does not interrupt it — finding that damage
  // is the point — and is folded in at the segment boundary instead.
  std::optional<Seconds> media_at;
  if (const auto frac =
          fault_->media_error(tp, seg, system_.cartridge_health(tp),
                              engine_.now())) {
    media_at = xfer * *frac;
  }
  // Verification is drive-internal (read + checksum); no staging-disk slot
  // is held, so scrubbing never queues behind foreground streams.
  schedule_activity(d, xfer, [this, d, seg, xfer]() {
    system_.drive(d).finish_transfer();
    scrub_segment_done(d, seg, xfer);
  }, "scrub.read", media_at, [this, d]() { scrub_media_error(d); },
     "scrub.media_error");
}

void RetrievalSimulator::scrub_media_error(DriveId d) {
  DriveCtx& ctx = ctx_[d.index()];
  TAPESIM_ASSERT(ctx.scrub.has_value());
  tape::TapeDrive& drive = system_.drive(d);
  const TapeId tp = ctx.scrub->tape;
  drive.abort_transfer(engine_.now() - ctx.activity_start);
  const tape::CartridgeHealth health = fault_->record_media_error(tp);
  if (health != system_.cartridge_health(tp)) {
    system_.set_cartridge_health(tp, health);
    on_cartridge_health_change(tp, health);
  }
  // As for a repair read: demand waiting on the lost tape fails over now.
  if (health == tape::CartridgeHealth::kLost) complete_tape_unavailable(tp);
  if (config_.tracer != nullptr) {
    config_.tracer->marker(obs::Track::kDrive, d.value(),
                           "media error during scrub on tape " +
                               std::to_string(tp.value()));
  }
  maybe_evacuate(tp);
  // No retry ladder for verification: the error is recorded, the pass
  // aborts, and the cartridge comes due again after the usual interval.
  end_scrub_pass(d, /*completed=*/false);
}

void RetrievalSimulator::scrub_segment_done(DriveId d, Bytes seg,
                                            Seconds xfer) {
  DriveCtx& ctx = ctx_[d.index()];
  TAPESIM_ASSERT(ctx.scrub.has_value());
  ScrubJob& job = *ctx.scrub;
  job.next_offset += seg;
  job.verified += seg.count();
  // Observation granularity is the cartridge: a verify read sweeps the
  // whole decay timeline, so every event accrued so far surfaces here.
  std::uint32_t found = 0;
  const tape::CartridgeHealth health =
      fault_->observe_damage(job.tape, engine_.now(), &found);
  if (found > 0) {
    job.found += found;
    if (health != system_.cartridge_health(job.tape)) {
      system_.set_cartridge_health(job.tape, health);
      on_cartridge_health_change(job.tape, health);
    }
    if (health == tape::CartridgeHealth::kLost) {
      complete_tape_unavailable(job.tape);
    }
    maybe_evacuate(job.tape);
  }
  if (system_.cartridge_lost(job.tape)) {
    // Verified into oblivion: the accumulated damage pushed the cartridge
    // over the loss threshold. Nothing left to protect here.
    end_scrub_pass(d, /*completed=*/false);
    return;
  }
  background_pace(d, xfer, config_.scrub.bandwidth_fraction,
                  [this, d]() { scrub_segment(d); }, "scrub.pace");
}

void RetrievalSimulator::end_scrub_pass(DriveId d, bool completed) {
  DriveCtx& ctx = ctx_[d.index()];
  TAPESIM_ASSERT(ctx.scrub.has_value());
  const ScrubJob job = *ctx.scrub;
  ctx.scrub.reset();
  --active_scrubs_;
  ctx.busy = false;
  scrub_stats_.bytes_verified += job.verified;
  scrub_stats_.latent_found += job.found;
  if (completed) {
    last_scrub_[job.tape.index()] = engine_.now();
    ++scrub_stats_.passes;
  } else {
    ++scrub_stats_.passes_aborted;
  }
  if (config_.tracer != nullptr) {
    config_.tracer->record(obs::Span{
        obs::Track::kScrub, job.tape.value(), obs::Phase::kScrub, job.started,
        engine_.now(), RequestId{}, job.tape,
        completed ? std::string{} : std::string{"aborted"}});
    if (completed) config_.tracer->registry().counter("scrub.passes").inc();
    config_.tracer->registry().counter("scrub.verified_bytes")
        .inc(job.verified);
    config_.tracer->registry().counter("scrub.latent_found").inc(job.found);
  }
  // Foreground first (the pass may have yielded exactly because its tape
  // was demanded), then further background work.
  requeue_if_needed(job.tape);
  release_repair_drive(d);
}

// --- health-driven evacuation -------------------------------------------

double RetrievalSimulator::health_score(TapeId tp) const {
  const std::uint32_t latent = fault_->latent_observed_on(tp);
  const std::uint32_t total_errors = fault_->media_errors_on(tp);
  TAPESIM_ASSERT(total_errors >= latent);
  return config_.evacuation.score(total_errors - latent, latent,
                                  system_.mount_count(tp));
}

void RetrievalSimulator::maybe_evacuate(TapeId tp) {
  if (!evac_active() || !tp.valid()) return;
  if (catalog_.tape_retired(tp) || evacuating_.count(tp.value()) != 0) return;
  if (system_.cartridge_lost(tp)) return;  // too late; failover owns it
  if (health_score(tp) > config_.evacuation.threshold) return;
  begin_evacuation(tp);
}

void RetrievalSimulator::begin_evacuation(TapeId tp) {
  evacuating_.insert(tp.value());
  ++evac_stats_.started;
  std::uint32_t jobs = 0;
  for (const catalog::TapeExtent& e : catalog_.extents_on(tp)) {
    RepairJob job;
    job.object = e.object;
    job.size = e.size;
    job.evac_from = tp;
    repair_queue_.push_back(job);
    ++repair_pending_[e.object.value()];
    ++repair_stats_.jobs_scheduled;
    ++jobs;
  }
  if (config_.tracer != nullptr) {
    config_.tracer->marker(obs::Track::kScrub, tp.value(),
                           "evacuation started: " + std::to_string(jobs) +
                               " objects");
    config_.tracer->registry().counter("evac.started").inc();
  }
  if (jobs == 0) {
    // Nothing stored on the cartridge: retire it outright.
    finish_evacuation(tp);
    return;
  }
  evac_outstanding_[tp.value()] = jobs;
  engine_.schedule_in(
      Seconds{0.0}, [this]() { pump_repairs(); }, "repair.pump");
}

void RetrievalSimulator::note_evac_job_done(TapeId tp) {
  const auto it = evac_outstanding_.find(tp.value());
  TAPESIM_ASSERT(it != evac_outstanding_.end() && it->second > 0);
  if (--it->second == 0) {
    evac_outstanding_.erase(it);
    finish_evacuation(tp);
  }
}

void RetrievalSimulator::finish_evacuation(TapeId tp) {
  // Retire only a fully drained cartridge: every object on it must have a
  // live copy somewhere else. With abandoned jobs (all sources lost, or
  // attempts exhausted) the cartridge stays in service — losing access to
  // its marginal copies would be worse — and stays marked `evacuating_` so
  // the policy does not thrash on it.
  const TapeId exclude[] = {tp};
  for (const catalog::TapeExtent& e : catalog_.extents_on(tp)) {
    if (catalog_.best_replica(e.object, exclude) == nullptr) {
      if (config_.tracer != nullptr) {
        config_.tracer->marker(obs::Track::kScrub, tp.value(),
                               "evacuation incomplete: tape stays in service");
      }
      return;
    }
  }
  catalog_.retire_tape(tp);
  if (journal_ != nullptr) journal_->log_retire_tape(tp, engine_.now());
  ++evac_stats_.completed;
  if (config_.tracer != nullptr) {
    config_.tracer->marker(obs::Track::kScrub, tp.value(),
                           "cartridge retired");
  }
}

// --- metadata durability + crash recovery --------------------------------

void RetrievalSimulator::take_checkpoint() {
  journal_->checkpoint(catalog_, engine_.now());
  ++recovery_stats_.checkpoints;
  if (config_.tracer != nullptr) {
    config_.tracer->registry().counter("recovery.checkpoints").inc();
  }
}

void RetrievalSimulator::reconcile_metadata() {
  // Crashes and the checkpoint cadence are observed lazily at admission
  // boundaries, where the event queue is empty (run_request runs the
  // engine to quiescence), so recovery can advance the clock synchronously
  // without racing any in-flight activity.
  if (fault_ != nullptr) {
    while (const auto crash = fault_->next_metadata_crash(engine_.now())) {
      recover_from_crash(crash->at, crash->torn);
    }
  }
  if (journal_->checkpoint_due(engine_.now())) take_checkpoint();
}

void RetrievalSimulator::recover_from_crash(Seconds at, double torn) {
  ++recovery_stats_.crashes;
  const Seconds snapshot_age = at - journal_->snapshot_at();
  recovery_stats_.snapshot_age.add(snapshot_age.count());
  // A disabled torn tail passes a draw of 1.0: the whole unsynced suffix
  // survives (the injector consumed the real draw either way, so both
  // timelines match draw-for-draw).
  const catalog::Journal::CrashCut cut =
      journal_->crash_cut(at, config_.faults.crash.torn_tail ? torn : 1.0);
  catalog::ObjectCatalog recovered = journal_->replay();
  if (config_.journal.fsync == catalog::FsyncPolicy::kSync) {
    // Synchronous fsync never loses an acknowledged mutation: the replayed
    // catalog must equal the live one before any reconciliation.
    TAPESIM_ASSERT_MSG(cut.lost == 0, "synchronous fsync lost a mutation");
    TAPESIM_ASSERT_MSG(recovered.equals(catalog_),
                       "sync-fsync replay diverged from the live catalog");
  }
  const std::vector<catalog::JournalRecord> lost = journal_->take_lost();
  for (const catalog::JournalRecord& rec : lost) {
    // Reconciliation against tape reality: a lost mutation's payload is
    // re-derivable from the physical world — repair-written replica bytes
    // sit on their target cartridge (label + extent scan), health and
    // retirement re-surface from cartridge state — at a scrub-like
    // per-record cost. Re-applying the record models that rediscovery.
    catalog::Journal::apply(recovered, rec);
  }
  TAPESIM_ASSERT_MSG(recovered.equals(catalog_),
                     "crash recovery failed to converge on the live catalog");
  recovery_stats_.records_replayed += cut.survivors;
  recovery_stats_.lost_mutations += cut.lost;
  recovery_stats_.reconciled_mutations += lost.size();
  const Seconds duration =
      config_.journal.recovery_base +
      Seconds{config_.journal.replay_per_record.count() *
              static_cast<double>(cut.survivors)} +
      Seconds{config_.journal.reconcile_per_record.count() *
              static_cast<double>(cut.lost)};
  recovery_stats_.downtime += duration;
  recovery_stats_.rto.add(duration.count());
  const Seconds back_at = at + duration;
  bool parked = false;
  if (back_at > engine_.now()) {
    // The admission arrived inside the metadata-unavailable window: park
    // it by advancing the (empty) engine to the recovery's end.
    parked = true;
    ++recovery_stats_.admissions_parked;
    recovery_stats_.parked += back_at - engine_.now();
    engine_.schedule_at(back_at, []() {}, "recovery.park");
    engine_.run();
  }
  // The recovered server checkpoints immediately: the replayed state is
  // the new baseline and the surviving log truncates.
  take_checkpoint();
  if (config_.tracer != nullptr) {
    obs::Tracer& tr = *config_.tracer;
    tr.record(obs::Span{obs::Track::kRecovery,
                        static_cast<std::uint32_t>(recovery_stats_.crashes),
                        obs::Phase::kRecovery, at, back_at, RequestId{},
                        TapeId{}, {}});
    const auto layout = obs::BucketLayout::exponential(0.1, 1e5, 1.3);
    tr.registry().counter("recovery.crashes").inc();
    tr.registry().counter("recovery.records_replayed").inc(cut.survivors);
    tr.registry().counter("recovery.lost_mutations").inc(cut.lost);
    tr.registry().counter("recovery.reconciled_mutations").inc(lost.size());
    tr.registry().histogram("recovery.metadata_rto_s", layout)
        .record(duration.count());
    tr.registry().histogram("recovery.snapshot_age_s", layout)
        .record(snapshot_age.count());
    tr.registry().gauge("recovery.downtime_s")
        .set(recovery_stats_.downtime.count());
    if (parked) tr.registry().counter("recovery.admissions_parked").inc();
  }
}

metrics::RequestOutcome RetrievalSimulator::run_request(RequestId id) {
  return run_request(id, RequestContext{});
}

metrics::RequestOutcome RetrievalSimulator::run_request(
    RequestId id, const RequestContext& rctx) {
  TAPESIM_ASSERT_MSG(!in_request_, "requests are strictly sequential");
  // Observe the metadata crash/checkpoint timelines before admission. A
  // recovery window reaching past now advances the clock, but the request
  // is accounted from its arrival: the parked time lands in its response.
  const Seconds arrival = engine_.now();
  if (journal_ != nullptr) reconcile_metadata();
  in_request_ = true;
  if (config_.tracer != nullptr) config_.tracer->set_current_request(id);
  const workload::Workload& wl = plan_->workload();
  const workload::Request& request = wl.request(id);

  // Reset per-request state.
  t0_ = arrival;
  deadline_abs_ = rctx.deadline;
  priority_ = rctx.priority;
  expired_ = false;
  deadline_event_ = sim::kNoEvent;
  bytes_expired_this_request_ = Bytes{};
  extents_expired_this_request_ = 0;
  const bool has_deadline =
      deadline_abs_.count() < metrics::RequestOutcome::kNoDeadline;

  if (has_deadline && deadline_abs_ <= engine_.now()) {
    // Dead on arrival (the admission layer normally sheds these), or the
    // deadline drowned inside a metadata-recovery window: account every
    // byte as expired without touching the engine. Without a journal,
    // now() == t0_ and this is the plain dead-on-arrival check.
    metrics::RequestOutcome outcome;
    outcome.request = id;
    outcome.status = metrics::RequestStatus::kDeadlineExpired;
    outcome.priority = priority_;
    outcome.deadline = std::max(Seconds{0.0}, deadline_abs_ - t0_);
    outcome.response = outcome.deadline;
    for (const ObjectId o : request.objects) {
      const catalog::ObjectRecord* rec = catalog_.lookup(o);
      TAPESIM_ASSERT_MSG(rec != nullptr, "request references unplaced object");
      outcome.bytes += rec->size;
      ++outcome.extents_expired;
    }
    outcome.bytes_expired = outcome.bytes;
    if (config_.tracer != nullptr) {
      config_.tracer->set_current_request(RequestId{});
    }
    check_job_counts();
    in_request_ = false;
    return outcome;
  }
  last_transfer_end_ = t0_;
  last_finisher_ = DriveId{};
  switches_this_request_ = 0;
  robot_wait_this_request_ = Seconds{};
  bytes_unavailable_this_request_ = Bytes{};
  extents_unavailable_this_request_ = 0;
  failovers_this_request_ = 0;
  extents_parked_this_request_ = 0;
  mount_retries_this_request_ = 0;
  media_retries_this_request_ = 0;
  served_from_replica_this_request_ = 0;
  repaired_this_request_ = 0;
  latent_hits_this_request_ = 0;
  tried_.clear();
  mount_attempts_.clear();
  needed_.clear();
  remaining_extents_ = 0;
  // Hedge races never straddle requests: every record settles at the
  // winner, a leg failure, or the deadline. Tombstones only suppress
  // stale legs within their own request.
  TAPESIM_ASSERT(hedges_.empty());
  hedge_cancelled_.clear();
  for (auto& dr : drive_req_) dr = DriveReq{};
  for (auto& q : lib_queue_) q.clear();

  // Reconcile every library with its outage timeline before resolution, so
  // routing below sees up/down/destroyed states current at submit time.
  if (outage_active()) {
    for (std::uint32_t l = 0; l < plan_->spec().num_libraries; ++l) {
      library_operational(LibraryId{l});
    }
  }
  const std::vector<LibraryId> down = down_libraries();
  auto library_down = [&](LibraryId l) {
    return std::find(down.begin(), down.end(), l) != down.end();
  };
  auto park_resolved = [&](const catalog::ObjectRecord& copy, ObjectId o) {
    // Every live copy sits behind a transiently downed library: park the
    // extent on the best of them; it is served after the restore.
    needed_[copy.tape.value()].push_back(
        catalog::TapeExtent{o, copy.offset, copy.size});
    ++remaining_extents_;
    ++outage_stats_.extents_parked;
    ++extents_parked_this_request_;
  };

  // Resolve the request through the indexing database.
  Bytes total_bytes{};
  for (const ObjectId o : request.objects) {
    const catalog::ObjectRecord* rec = catalog_.lookup(o);
    TAPESIM_ASSERT_MSG(rec != nullptr, "request references unplaced object");
    total_bytes += rec->size;
    const bool lost = fault_ != nullptr && system_.cartridge_lost(rec->tape);
    const bool retired = catalog_.tape_retired(rec->tape);
    if (lost || retired) {
      // The primary is gone (or preemptively drained); resolve against the
      // best surviving copy in a live library. Catalog health tracks
      // cartridge escalations and retirements, so dead copies are skipped
      // automatically.
      if (const catalog::ObjectRecord* alt =
              catalog_.best_replica(o, {}, down)) {
        if (retired && !lost) {
          // Without the evacuation this read would have gone to failing
          // media; count the save.
          ++evac_stats_.preempted_unavailables;
          if (config_.tracer != nullptr) {
            config_.tracer->registry()
                .counter("evac.preempted_unavailables")
                .inc();
          }
        }
        needed_[alt->tape.value()].push_back(
            catalog::TapeExtent{o, alt->offset, alt->size});
        ++remaining_extents_;
        continue;
      }
      if (!down.empty()) {
        if (const catalog::ObjectRecord* alt = catalog_.best_replica(o)) {
          park_resolved(*alt, o);
          continue;
        }
      }
      // Data on a lost cartridge completes immediately as unavailable.
      bytes_unavailable_this_request_ += rec->size;
      ++extents_unavailable_this_request_;
      continue;
    }
    if (library_down(rec->library)) {
      // Healthy primary behind a downed library: fail over to a copy in a
      // surviving one, or park on the primary until the restore.
      if (const catalog::ObjectRecord* alt =
              catalog_.best_replica(o, {}, down)) {
        ++outage_stats_.failovers;
        if (config_.tracer != nullptr) {
          config_.tracer->registry().counter("outage.failovers").inc();
        }
        needed_[alt->tape.value()].push_back(
            catalog::TapeExtent{o, alt->offset, alt->size});
        ++remaining_extents_;
        continue;
      }
      park_resolved(*rec, o);
      continue;
    }
    needed_[rec->tape.value()].push_back(
        catalog::TapeExtent{o, rec->offset, rec->size});
    ++remaining_extents_;
  }
  const auto tapes_touched = static_cast<std::uint32_t>(needed_.size());

  // Partition needed tapes into mounted vs offline (per library).
  std::vector<std::pair<TapeId, Bytes>> offline;  // with requested bytes
  std::vector<DriveId> mounted_serving;
  for (const auto& [tape_value, extents] : needed_) {
    const TapeId tp{tape_value};
    Bytes bytes{};
    for (const auto& e : extents) bytes += e.size;
    if (const auto holder = system_.drive_holding(tp)) {
      mounted_serving.push_back(*holder);
    } else if (repair_claimed(tp) || scrub_claimed(tp)) {
      // A background job is mounting this tape right now; queueing it too
      // would mount the cartridge twice. The job's release re-dispatches.
    } else {
      offline.emplace_back(tp, bytes);
    }
  }
  // Longest-requested-work first, so the biggest transfers start earliest.
  std::sort(offline.begin(), offline.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  for (const auto& [tp, bytes] : offline) {
    lib_queue_[system_.library_of_tape(tp).index()].push_back(tp);
  }

  // Kick off drives holding requested tapes.
  std::sort(mounted_serving.begin(), mounted_serving.end());
  for (const DriveId d : mounted_serving) {
    engine_.schedule_in(
        Seconds{0.0}, [this, d]() { serve_mounted(d); }, "serve.start");
  }

  // Drives whose mounted tape holds nothing requested may switch at once.
  // Least-popular mounted tapes go first (the [11] replacement policy);
  // empty drives are cheapest of all and lead the order. Each drive's
  // eviction cost is keyed once; (cost, drive) is a strict total order.
  const auto& popularity = plan_->mount_policy.tape_popularity;
  std::vector<std::pair<double, DriveId>> idle_candidates;
  for (std::uint32_t dv = 0; dv < plan_->spec().total_drives(); ++dv) {
    const DriveId d{dv};
    if (!switch_eligible(d)) continue;
    if (fault_ != nullptr && !drive_available(d)) continue;
    const tape::TapeDrive& drive = system_.drive(d);
    if (drive.empty()) {
      idle_candidates.emplace_back(-1.0, d);
    } else if (needed_.count(drive.mounted().value()) != 0) {
      continue;  // will serve first, then fall into next_action()
    } else {
      idle_candidates.emplace_back(
          popularity.empty() ? 0.0 : popularity[drive.mounted().index()], d);
    }
  }
  std::sort(idle_candidates.begin(), idle_candidates.end());
  for (const auto& [cost, d] : idle_candidates) {
    engine_.schedule_in(
        Seconds{0.0}, [this, d]() { next_action(d); }, "drive.next");
  }
  if (fault_ != nullptr) {
    // A library whose entire drive fleet is down would otherwise leave its
    // queue untouched and wedge the run.
    for (std::uint32_t lib = 0; lib < plan_->spec().num_libraries; ++lib) {
      engine_.schedule_in(Seconds{0.0}, [this, lib]() {
        ensure_progress(LibraryId{lib});
      }, "library.progress");
    }
  }

  // Arm the deadline last: equal-time dispatch is FIFO, so service events
  // scheduled above win ties at the deadline instant.
  if (has_deadline && remaining_extents_ > 0) {
    deadline_event_ =
        engine_.schedule_at(
            deadline_abs_, [this]() { on_deadline(); }, "deadline");
  }

  engine_.run();
  TAPESIM_ASSERT_MSG(remaining_extents_ == 0,
                     "request finished with unserved objects");
  TAPESIM_ASSERT(needed_.empty());
  TAPESIM_ASSERT_MSG(hedges_.empty(), "hedge race outlived its request");
  check_job_counts();

  metrics::RequestOutcome outcome;
  outcome.request = id;
  outcome.bytes = total_bytes;
  // An expired request is answered ("sorry, too late") exactly at its
  // deadline; trailing doomed activity drains on the simulator's clock but
  // not on the caller's.
  outcome.response =
      expired_ ? deadline_abs_ - t0_ : last_transfer_end_ - t0_;
  outcome.priority = priority_;
  outcome.deadline = deadline_abs_ - t0_;  // infinity stays infinity
  outcome.bytes_expired = bytes_expired_this_request_;
  outcome.extents_expired = extents_expired_this_request_;
  outcome.bytes_unavailable = bytes_unavailable_this_request_;
  outcome.extents_unavailable = extents_unavailable_this_request_;
  outcome.failovers = failovers_this_request_;
  outcome.extents_parked = extents_parked_this_request_;
  if (extents_parked_this_request_ > 0) {
    ++outage_stats_.requests_parked;
    if (config_.tracer != nullptr) {
      config_.tracer->registry().counter("outage.requests_parked").inc();
    }
  }
  outcome.mount_retries = mount_retries_this_request_;
  outcome.media_retries = media_retries_this_request_;
  outcome.served_from_replica = served_from_replica_this_request_;
  outcome.repaired = repaired_this_request_;
  outcome.latent_hits = latent_hits_this_request_;
  if (expired_) {
    outcome.status = metrics::RequestStatus::kDeadlineExpired;
  } else if (bytes_unavailable_this_request_.count() == 0) {
    outcome.status = metrics::RequestStatus::kServed;
  } else if (bytes_unavailable_this_request_ == total_bytes) {
    outcome.status = metrics::RequestStatus::kUnavailable;
  } else {
    outcome.status = metrics::RequestStatus::kPartial;
  }
  if (last_finisher_.valid()) {
    outcome.seek = drive_req_[last_finisher_.index()].seek_done;
    outcome.transfer = drive_req_[last_finisher_.index()].transfer_done;
  } else {
    // Nothing was served; only possible when every byte was unavailable
    // or the deadline fired before the first extent landed.
    TAPESIM_ASSERT(outcome.status == metrics::RequestStatus::kUnavailable ||
                   outcome.status ==
                       metrics::RequestStatus::kDeadlineExpired);
  }
  outcome.switch_time = outcome.response - outcome.seek - outcome.transfer;
  // Clamp floating-point dust from the subtraction to exactly zero.
  if (outcome.switch_time.count() < 1e-9 &&
      outcome.switch_time.count() > -1e-6) {
    outcome.switch_time = Seconds{0.0};
  }
  outcome.robot_wait = robot_wait_this_request_;
  outcome.tape_switches = switches_this_request_;
  outcome.tapes_touched = tapes_touched;
  for (const auto& dr : drive_req_) {
    if (dr.used) ++outcome.drives_used;
  }
  // Accounting identity: the critical drive spends the whole response in
  // seek, transfer, or switch-side activity, so switch time is never
  // negative (up to floating-point slack).
  TAPESIM_ASSERT_MSG(outcome.switch_time.count() >= -1e-6,
                     "switch-time decomposition went negative");
  if (config_.tracer != nullptr) {
    obs::Tracer& tr = *config_.tracer;
    tr.record(obs::Span{obs::Track::kRequest, id.value(),
                        obs::Phase::kRequest, t0_, t0_ + outcome.response, id,
                        TapeId{}, {}});
    if (expired_) {
      tr.record(obs::Span{obs::Track::kOverload, id.value(),
                          obs::Phase::kExpired, t0_, t0_ + outcome.response,
                          id, TapeId{}, {}});
    }
    const auto layout = obs::BucketLayout::exponential(0.1, 1e5, 1.3);
    tr.registry().histogram("sched.request.response_s", layout)
        .record(outcome.response.count());
    tr.registry().histogram("sched.request.robot_wait_s", layout)
        .record(outcome.robot_wait.count());
    tr.registry().counter("sched.request.switches")
        .inc(outcome.tape_switches);
    tr.registry().counter("sched.requests").inc();
    if (fault_ != nullptr) {
      const fault::FaultCounters& c = fault_->counters();
      tr.registry().counter("fault.drive_failures")
          .inc(c.drive_failures - prev_fault_counters_.drive_failures);
      tr.registry().counter("fault.mount_failures")
          .inc(c.mount_failures - prev_fault_counters_.mount_failures);
      tr.registry().counter("fault.media_errors")
          .inc(c.media_errors - prev_fault_counters_.media_errors);
      tr.registry().counter("fault.robot_jams")
          .inc(c.robot_jams - prev_fault_counters_.robot_jams);
      tr.registry().counter("fault.failovers").inc(outcome.failovers);
      if (config_.faults.latent_decay_mtbf.count() > 0.0) {
        tr.registry().counter("fault.latent_events")
            .inc(c.latent_events - prev_fault_counters_.latent_events);
        tr.registry().counter("fault.latent_observed")
            .inc(c.latent_observed - prev_fault_counters_.latent_observed);
      }
      if (config_.faults.failslow.enabled()) {
        tr.registry().counter("failslow.episodes")
            .inc((c.slow_episodes + c.robot_slow_episodes) -
                 (prev_fault_counters_.slow_episodes +
                  prev_fault_counters_.robot_slow_episodes));
        tr.registry().gauge("failslow.drive_s")
            .set(c.slow_drive_seconds);
      }
      prev_fault_counters_ = c;
    }
    if (replicated_) {
      tr.registry().counter("sched.served_from_replica")
          .inc(outcome.served_from_replica);
    }
    tr.set_current_request(RequestId{});
  }
  in_request_ = false;
  return outcome;
}

}  // namespace tapesim::sched
