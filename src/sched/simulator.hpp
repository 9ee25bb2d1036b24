// The retrieval simulator: executes requests against a placed tape system.
//
// This is the event-driven core the paper describes in Section 6
// ("Simulator"): given a request, the involved tapes are resolved through
// the object catalog; drives holding requested tapes serve their objects in
// seek-optimized order; offline tapes queue per library and rotate through
// switch-eligible drives (rewind -> unload -> robot exchange -> load ->
// locate -> transfer), with the single robot arm per library serializing
// exchanges and robots of different libraries working in parallel. System
// state (mounted tapes, head positions) persists across requests; requests
// arrive one at a time with no queueing delay.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "catalog/catalog.hpp"
#include "catalog/journal.hpp"
#include "core/plan.hpp"
#include "fault/injector.hpp"
#include "fault/model.hpp"
#include "metrics/request_metrics.hpp"
#include "sched/failslow.hpp"
#include "sched/governor.hpp"
#include "sched/outage.hpp"
#include "sched/recovery.hpp"
#include "sched/repair.hpp"
#include "sched/scrub.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/semaphore.hpp"
#include "tape/system.hpp"
#include "util/error.hpp"
#include "workload/model.hpp"

namespace tapesim::obs {
class Histogram;
class Tracer;
}  // namespace tapesim::obs

namespace tapesim::sched {

struct SimulatorConfig {
  /// Serve the extents of a tape in sweep order starting from the cheaper
  /// end (the paper: "the objects retrieving order within a tape is
  /// optimized to reduce the data seek time"). Disabling reverts to request
  /// order — the seek-order ablation.
  bool optimize_seek_order = true;
  /// Robot handoff protocol. When true (default) the robot stays at the
  /// drive until the cartridge is inserted AND threaded (load-to-ready),
  /// serializing the full mount through the robot; when false it leaves as
  /// soon as the cartridge is inserted and the drive threads on its own.
  /// Real accessors vary; the ablation bench quantifies the difference.
  bool robot_holds_load = true;
  /// Staging-disk streaming slots: how many drives can move data to the
  /// disk cache at full rate simultaneously. 0 (default) = unlimited, the
  /// paper's assumption 6 ("the bottleneck of data transfer path lies at
  /// tape drive"). Finite values model a constrained disk array; a drive
  /// waits for a slot between locating and streaming.
  std::uint32_t max_concurrent_streams = 0;
  /// Concurrent simulator only: which demanded offline tape a free drive
  /// fetches next. Greedy throughput (most outstanding bytes) can starve
  /// small requests under sustained load; oldest-demand-first trades a
  /// little throughput for bounded waiting.
  enum class TapePick { kMostDemandedBytes, kOldestDemand };
  TapePick tape_pick = TapePick::kMostDemandedBytes;
  /// Optional telemetry. When set, the simulator binds the tracer to its
  /// engine and system (device spans and kernel counters come for free) and
  /// adds the request-level spans only the scheduler can see: queue waits,
  /// robot-queue waits, and whole-request lifetimes. Null costs a pointer
  /// check per request. Must outlive the simulator; detached on destruction.
  obs::Tracer* tracer = nullptr;
  /// Fault model. The default (all rates zero) disables fault injection
  /// entirely: no injector is built and the event sequence is bit-identical
  /// to a faultless build.
  fault::FaultConfig faults{};
  /// Background re-replication. Only takes effect when the plan carries
  /// replicas AND fault injection is enabled; otherwise inert.
  RepairConfig repair{};
  /// Background verification passes over idle drives. Only takes effect
  /// when fault injection is enabled; otherwise inert.
  ScrubConfig scrub{};
  /// Health-driven cartridge evacuation. Only takes effect when fault
  /// injection is enabled; otherwise inert. Works with or without plan
  /// replication — evacuated copies become catalog replicas either way.
  EvacuationConfig evacuation{};
  /// Gray-failure detection + drive quarantine. Only takes effect when
  /// fault injection is enabled (the injector is the ground truth the
  /// detector is scored against); otherwise inert.
  GrayDetectorConfig detector{};
  /// Hedged reads against fail-slow tails. Only takes effect when the
  /// plan carries replicas AND fault injection is enabled; otherwise
  /// inert.
  HedgeConfig hedge{};
  /// Catalog write-ahead log + checkpointing. Disabled by default (the
  /// simulator is bit-identical to a build without a journal); must be
  /// enabled when metadata crashes are (faults.crash).
  catalog::JournalConfig journal{};
  /// Recovery-work governor: retry budgets, circuit breakers, and
  /// metastable-failure shedding over every amplification path. Disabled
  /// by default — a disabled governor adds zero draws and zero events, so
  /// governor-off runs are bit-identical to baseline.
  GovernorConfig governor{};

  /// Recoverable validation of user-provided knobs (the fault, repair,
  /// scrub, and evacuation models); the simulator constructor throws
  /// std::invalid_argument carrying this message instead of aborting.
  [[nodiscard]] Status try_validate() const;
};

/// Per-request overload context. The default value is inert: no deadline,
/// foreground priority — run_request(id, {}) is bit-identical to
/// run_request(id).
struct RequestContext {
  /// Absolute simulation time by which the request must complete; infinity
  /// (the default) disables deadline enforcement. When the deadline fires
  /// with work outstanding, queued tapes are dropped, waiting robot tickets
  /// are cancelled, serve chains are abandoned at the next activity
  /// boundary, and the request completes as kDeadlineExpired with
  /// response = deadline - start.
  Seconds deadline{metrics::RequestOutcome::kNoDeadline};
  /// User class, recorded on the outcome for the shedder upstream.
  Priority priority = Priority::kForeground;
};

class RetrievalSimulator {
 public:
  /// Builds the physical system, materializes the catalog from `plan`, and
  /// performs the initial mounts (startup time is not measured, matching
  /// the paper). `plan` and its workload must outlive the simulator.
  explicit RetrievalSimulator(const core::PlacementPlan& plan,
                              SimulatorConfig config = {});
  ~RetrievalSimulator();
  RetrievalSimulator(const RetrievalSimulator&) = delete;
  RetrievalSimulator& operator=(const RetrievalSimulator&) = delete;

  /// Executes one request to completion and returns its outcome. State
  /// persists into the next call.
  metrics::RequestOutcome run_request(RequestId id);

  /// As above, with overload context: an absolute deadline enforced by
  /// mid-chain cancellation and a user priority echoed on the outcome.
  metrics::RequestOutcome run_request(RequestId id,
                                      const RequestContext& rctx);

  /// Overload pressure signal from the admission layer: while set,
  /// background repair stops claiming idle drives (jobs stay queued and
  /// resume when pressure clears). Off by default — the flag never changes
  /// behavior unless an overload runner drives it.
  void set_overload_pressure(bool pressure) { overload_pressure_ = pressure; }
  [[nodiscard]] bool overload_pressure() const { return overload_pressure_; }

  [[nodiscard]] const workload::Workload& workload() const {
    return plan_->workload();
  }
  [[nodiscard]] const tape::TapeSystem& system() const { return system_; }
  [[nodiscard]] const catalog::ObjectCatalog& catalog() const {
    return catalog_;
  }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// Cumulative switches across all requests so far.
  [[nodiscard]] std::uint64_t total_switches() const {
    return total_switches_;
  }

  /// The fault injector, or nullptr when fault injection is disabled.
  [[nodiscard]] const fault::FaultInjector* fault_injector() const {
    return fault_.get();
  }

  /// True when the plan carried replicas (failover reads are armed).
  [[nodiscard]] bool replicated() const { return replicated_; }

  /// Running totals of the background repair process.
  [[nodiscard]] const RepairStats& repair_stats() const {
    return repair_stats_;
  }
  /// Repair jobs queued or holding a drive right now.
  [[nodiscard]] std::size_t repair_backlog() const {
    return repair_queue_.size() + active_repairs_;
  }

  /// Runs queued repair jobs to quiescence outside any request (repairs
  /// also run opportunistically during requests, on drives the foreground
  /// leaves idle). Stops early if the remaining jobs are unstartable —
  /// e.g. every source copy is lost. No-op unless the copy engine is
  /// active. Evacuation copy jobs drain here too.
  void drain_repairs();

  /// Running totals of the background scrub process.
  [[nodiscard]] const ScrubStats& scrub_stats() const { return scrub_stats_; }
  /// Running totals of health-driven evacuation.
  [[nodiscard]] const EvacStats& evac_stats() const { return evac_stats_; }
  /// Running totals of the library-outage reaction (RTO accounting).
  [[nodiscard]] const OutageStats& outage_stats() const {
    return outage_stats_;
  }
  /// Running totals of the gray-failure reaction (detector + hedging).
  [[nodiscard]] const FailSlowStats& failslow_stats() const {
    return failslow_stats_;
  }
  /// Running totals of the crash-recovery reaction (RTO accounting).
  [[nodiscard]] const RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }
  /// The catalog journal, or nullptr when durability is disabled. The
  /// non-const overload lets tests and benches run an out-of-band replay()
  /// to audit durable state against the live catalog.
  [[nodiscard]] const catalog::Journal* journal() const {
    return journal_.get();
  }
  [[nodiscard]] catalog::Journal* journal() { return journal_.get(); }

  /// The recovery-work governor. The non-const overload lets the
  /// overload runner feed goodput/queue-depth samples and lets benches
  /// close the books (finish()) at run end.
  [[nodiscard]] RecoveryGovernor& governor() { return governor_; }
  [[nodiscard]] const RecoveryGovernor& governor() const {
    return governor_;
  }
  /// Running totals of the governor (budget ledgers, breaker and
  /// metastability transitions), mirrored 1:1 into governor.* counters.
  [[nodiscard]] const GovernorStats& governor_stats() const {
    return governor_.stats();
  }

 private:
  // --- per-request orchestration ---
  void serve_mounted(DriveId d);
  void serve_step(DriveId d);
  void begin_transfer(DriveId d, catalog::TapeExtent extent);
  void next_action(DriveId d);
  /// Request-side bookkeeping for a tape switch, then the exchange.
  void begin_switch(DriveId d, TapeId target);
  void extent_done(DriveId d);
  [[nodiscard]] bool switch_eligible(DriveId d) const;

  // --- cartridge exchange (the one path every cartridge movement takes) ---
  /// Who an exchange works for. The purpose picks the event kinds and
  /// gates the hooks only a request switch has (deadline checks, the
  /// robot-wait ledger, the drive breaker, the mount-retry ladder).
  enum class MountFor : std::uint8_t {
    kRequest,     ///< A tape switch serving the current request.
    kBackground,  ///< A repair or scrub mount; resumes ctx.repair/scrub.
    kEvict,       ///< Quarantine/breaker eviction: carry the tape home.
  };
  /// Rewind (if a cartridge is mounted), robot grant, unload, carry, load
  /// `target` — or, for an eviction, carry the unloaded cartridge home.
  void exchange(DriveId d, TapeId target, MountFor why);
  void ask_robot(DriveId d, TapeId target, MountFor why, bool had_tape);
  void robot_granted(DriveId d, TapeId target, MountFor why, bool had_tape,
                     Seconds asked_at);
  void carry_cartridges(DriveId d, TapeId target, MountFor why,
                        bool had_tape);
  void load_cartridge(DriveId d, TapeId target, MountFor why);
  void finish_mount(DriveId d, TapeId target, MountFor why);
  /// The robot returns the cartridge `d` just gave up (a failed load or
  /// an eviction) to its cell, taking the arm first unless `d` holds it.
  /// On arrival the arm and the drive are freed and `then` runs. The trip
  /// is an event of `kind`.
  template <typename Then>
  void carry_home(DriveId d, const char* kind, Then then);

  // --- deadline enforcement (never reached without a finite deadline) ---
  /// The deadline event: accounts every unserved extent as expired, drops
  /// queued work, cancels still-queued robot waiters, and sets expired_ so
  /// in-flight activity chains unwind at their next boundary.
  void on_deadline();
  /// Retracts the pending deadline event once nothing remains unserved
  /// (otherwise the drained event would drag the persistent engine clock
  /// out to the deadline).
  void cancel_deadline_event();
  /// One extent will never be served because the deadline passed.
  void extent_expired(const catalog::TapeExtent& extent);
  /// Puts `extents`, the demand on the tape mounted in `d`, in serving
  /// order per config.
  [[nodiscard]] std::vector<catalog::TapeExtent> plan_extent_order(
      DriveId d, std::vector<catalog::TapeExtent> extents) const;

  // --- fault handling (all no-ops / never reached when fault_ is null) ---
  /// Schedules the completion of a drive activity as an event of `kind`.
  /// With faults enabled a hardware failure beats a media error: a failure
  /// before `media_at` (or before the end, without one) retracts the
  /// booked completion and runs the failure path; otherwise a media error
  /// at `media_at` runs `on_media` as an event of `media_kind` instead of
  /// the completion. Returns the completion's handle when nothing
  /// interrupts it, kNoEvent otherwise. Each callable becomes an engine
  /// action only if it is booked.
  template <typename OnDone, typename OnMedia = void (*)()>
  sim::EventId schedule_activity(
      DriveId d, Seconds duration, OnDone&& on_done, const char* kind,
      std::optional<Seconds> media_at = std::nullopt,
      OnMedia&& on_media = nullptr, const char* media_kind = nullptr);
  /// Lazily reconciles drive `d` with its failure timeline. True when the
  /// drive is usable now (possibly just repaired). Only call on drives with
  /// no in-flight activity; active drives fail via activity preemption.
  bool drive_available(DriveId d);
  /// Registers a failure observed now: partial-time accounting, requeue of
  /// in-flight work, robot/disk release, cartridge recovery, redispatch.
  void on_drive_failure(DriveId d);
  void repair_drive(DriveId d);
  /// A load of `target` failed. A request switch enters the retry/backoff
  /// ladder; a background mount gives the job up and carries the
  /// cartridge home.
  void on_mount_failure(DriveId d, TapeId target, MountFor why);
  /// Media-error abort/retry ladder, entered mid-transfer; the failing
  /// extent is chain_[d].extents[chain_[d].index]. `latent` marks a read
  /// running into silent decay damage (observed through the injector's
  /// decay timeline) rather than an active media error.
  void on_media_failure(DriveId d, bool latent);
  /// Robot extracts a stuck cartridge from failed drive `d` and requeues it.
  void recover_cartridge(DriveId d);
  /// Completes every pending extent of `tp` as unavailable.
  void complete_tape_unavailable(TapeId tp);
  void extent_unavailable(const catalog::TapeExtent& extent);
  /// Offers queued tapes of `lib` to free drives; if none can ever serve
  /// them, waits for the next repair or declares them unavailable.
  void ensure_progress(LibraryId lib);
  void kick_idle_drives(LibraryId lib);
  [[nodiscard]] Seconds robot_move_delay(tape::TapeLibrary& lib,
                                         Seconds base);

  // --- library outages (all no-ops unless outage_active()) ---
  [[nodiscard]] bool outage_active() const {
    return fault_ != nullptr && config_.faults.outage.enabled();
  }
  /// Lazily reconciles library `lib` with its outage timeline (onsets and
  /// restores are observed at query boundaries, never via standing
  /// events). True when the library is usable now.
  bool library_operational(LibraryId lib);
  /// Registers an onset observed now: downs every idle drive atomically
  /// (busy drives preempt through their own folded failure interrupts),
  /// reroutes or parks the library's pending foreground work, and — for a
  /// disaster — loses every resident cartridge and launches the DR surge.
  void register_outage(LibraryId lib);
  /// Registers a restore: closes the outage window (span + downtime),
  /// repairs outage-downed drives, and redispatches parked work.
  void register_restore(LibraryId lib);
  /// Moves `tp`'s pending extents to surviving replicas where possible;
  /// extents with no live copy outside downed libraries park on `tp`
  /// (served at restore, lost if the library is destroyed).
  void outage_reroute(TapeId tp);
  /// One pending extent of downed-library tape `tp`: fail over to a copy
  /// in a surviving library, or park it on `tp` until the restore.
  void outage_divert(TapeId tp, const catalog::TapeExtent& extent);
  /// Parks one pending extent on `copy`, whose library is transiently
  /// down: it stays in the demand map and is served after the restore.
  void park_extent(const catalog::ObjectRecord& copy);
  /// Library ids currently observed down or destroyed (exclusion list for
  /// best_replica); empty unless outages are active.
  [[nodiscard]] std::vector<LibraryId> down_libraries() const;
  /// One DR job for the disaster of `lib` settled (completed/abandoned);
  /// samples time-to-full-redundancy when the last one drains.
  void note_dr_job_done(LibraryId lib);

  // --- replica failover (all no-ops when the plan is unreplicated) ---
  /// A copy of `extent`'s object on tape `on` just became undeliverable:
  /// fail over to the best surviving copy, or complete it as unavailable.
  void fail_extent(TapeId on, const catalog::TapeExtent& extent);
  /// Re-enqueues the extent against copy `alt` and wakes a server for it.
  void route_extent(const catalog::ObjectRecord& alt);
  /// Syncs a cartridge health escalation into the catalog and schedules
  /// the re-replication the escalation calls for.
  void on_cartridge_health_change(TapeId tp, tape::CartridgeHealth health);

  // --- gray-failure detection, quarantine, hedged reads ---
  [[nodiscard]] bool detector_active() const {
    return config_.detector.enabled && fault_ != nullptr;
  }
  [[nodiscard]] bool hedge_active() const {
    return config_.hedge.enabled && replicated_ && fault_ != nullptr;
  }
  /// Records one completed foreground transfer: feeds the drive's
  /// throughput EWMA (detector) and the normalized service-time history
  /// (hedge trigger), then re-evaluates the detector for `d`.
  void note_transfer_rate(DriveId d, Bytes amount, Seconds xfer);
  /// Compares `d`'s EWMA against the fleet median of its peers; flags
  /// after a sustained shortfall.
  void evaluate_detector(DriveId d);
  /// Scores a fresh flag against the injector's ground truth and opens a
  /// quarantine window when the policy says so.
  void flag_drive(DriveId d);
  /// True while `d` sits in quarantine; lazily releases the drive once
  /// its episode ended and probation passed (extending the window when
  /// the drive is observed still slow at its release time).
  [[nodiscard]] bool drive_quarantined(DriveId d);
  /// True when every switch-eligible, non-failed drive of `lib` is
  /// quarantined — the scheduler then falls back to quarantined drives
  /// rather than queuing forever.
  [[nodiscard]] bool quarantine_fallback(LibraryId lib);
  /// Proactively returns the cartridge of an idle quarantined drive to
  /// its cell (an eviction exchange) so a healthy drive can pick it up.
  void quarantine_unmount(DriveId d);
  /// True when `d`'s drive breaker is open AND a live peer in its library
  /// has a breaker that still admits work — then `d` sits out new chains.
  /// With every peer tripped too, the drive serves anyway (no wedging).
  [[nodiscard]] bool breaker_skip_drive(DriveId d);
  /// Libraries whose library- or robot-scoped breaker currently blocks
  /// work; used to deprioritise replicas during failover and hedging.
  [[nodiscard]] std::vector<LibraryId> breaker_down_libraries();
  /// Current adaptive hedge trigger as a multiple of the native transfer
  /// duration (percentile of history, floored at min_overrun).
  [[nodiscard]] double hedge_threshold_ratio() const;
  /// Arms the hedge alarm for a clean in-flight transfer that will
  /// overrun the adaptive trigger.
  void maybe_arm_hedge(DriveId d, const catalog::TapeExtent& extent,
                       Seconds xfer);
  /// The alarm fired mid-transfer: re-validate, check the budget, pick a
  /// replica in another library, and launch the speculative chain.
  void maybe_launch_hedge(DriveId d, catalog::TapeExtent extent,
                          Seconds eta);
  /// The winning leg of a hedged object just completed on `d`: settle
  /// the ledger and cancel the loser.
  void settle_hedge_winner(DriveId d, const catalog::TapeExtent& extent);
  /// Withdraws the losing leg: queued extents are erased, a still-queued
  /// switch is cancelled, an in-flight clean transfer is aborted through
  /// the engine's cancel machinery; everything else unwinds via the
  /// tombstone at its next activity boundary.
  void cancel_hedge_loser(ObjectId obj, TapeId loser);
  /// One leg of a hedged object failed on tape `on`. True when the hedge
  /// machinery absorbed the failure (the other leg carries the object);
  /// false when the caller must handle it normally.
  bool hedge_absorb_failure(TapeId on, const catalog::TapeExtent& extent);
  /// True when `extent` is a cancelled hedge loser (skipped at every
  /// serve boundary).
  [[nodiscard]] bool hedge_tombstoned(const catalog::TapeExtent& extent)
      const;
  /// Emits a settled-hedge span and bumps the registry ledger counters.
  void record_hedge_settled(const char* verdict, Seconds issued_at);

  // --- background repair ---
  [[nodiscard]] bool repair_active() const {
    return replicated_ && config_.repair.enabled && fault_ != nullptr;
  }
  /// The shared two-phase copy machinery runs for re-replication repair or
  /// for evacuation drains — either keeps the repair queue moving.
  [[nodiscard]] bool copy_engine_active() const {
    return repair_active() || evac_active();
  }
  /// Enqueues jobs restoring the replication factor of every object with a
  /// copy on `tp` (called when `tp` degrades or is lost).
  void schedule_repairs_for(TapeId tp);
  /// Offers queued repair jobs to every free drive, up to the slot cap.
  void pump_repairs();
  /// Earliest future instant at which a downed drive or library is due
  /// back, per the lazy fault timelines; kNever when the world is static.
  /// drain_repairs uses it to keep waiting out transient outages that
  /// block every queued job (the foreground watches only cover request
  /// demand, not background copies).
  [[nodiscard]] Seconds next_repair_wake();
  /// Concurrent-job cap: the configured repair cap, raised to the DR cap
  /// while disaster-recovery jobs are outstanding.
  [[nodiscard]] std::uint32_t repair_concurrency_cap() const;
  /// Starts the first startable queued job on `d`, if `d` is free and its
  /// library has no foreground demand.
  void maybe_start_repair(DriveId d);
  void start_repair(DriveId d, RepairJob job);
  /// True when another drive is switching to `tp` or repairing with it.
  [[nodiscard]] bool tape_claimed(TapeId tp, DriveId self) const;
  /// True when an in-flight repair job is currently using `tp` (the tape
  /// of its active phase, which may not be mounted yet).
  [[nodiscard]] bool repair_claimed(TapeId tp) const;
  /// Aborts unless active_repairs_ and active_scrubs_ equal the drives
  /// holding a repair job and a scrub pass: the claim scans return early
  /// on a zero count, so a miscount would hide a claim. Run per request.
  void check_job_counts() const;
  /// Restores the foreground queue invariant for `tp` after a repair claim
  /// drops: a needed tape with no holder, no switch en route, and no
  /// repair claim must sit in its library queue.
  void requeue_if_needed(TapeId tp);
  /// Best surviving copy of the job's object readable by `d` (same
  /// library, not lost, not mounted elsewhere); nullptr when none.
  [[nodiscard]] const catalog::ObjectRecord* pick_repair_source(
      DriveId d, const RepairJob& job) const;
  /// Healthy tape in `d`'s library that can take the new copy (library
  /// anti-affinity permitting); invalid id when none.
  [[nodiscard]] TapeId pick_repair_target(DriveId d,
                                          const RepairJob& job) const;
  /// Continues the drive's background job once its tape is mounted.
  void resume_background(DriveId d);
  /// Locate and transfer of the job's active phase: the source read, or
  /// the target write once the read is done.
  void repair_locate(DriveId d);
  void repair_transfer(DriveId d);
  void repair_media_error(DriveId d);
  void finish_repair_read(DriveId d);
  void complete_repair(DriveId d);
  /// Bandwidth duty cycle shared by every background consumer: idle `d`
  /// after a full-rate transfer of `xfer` so its average background rate is
  /// `fraction` of the native rate. The idle tail is an event of `kind`.
  void background_pace(DriveId d, Seconds xfer, double fraction,
                       sim::Action next, const char* kind);
  void repair_pace(DriveId d, Seconds xfer, sim::Action next);
  void abandon_repair(RepairJob job);
  /// Post-repair dispatch: foreground work first, then further repair.
  void release_repair_drive(DriveId d);

  // --- background scrubbing (inert unless scrub_active()) ---
  [[nodiscard]] bool scrub_active() const {
    return config_.scrub.enabled && fault_ != nullptr;
  }
  /// Starts a verification pass on `d` if it is free, foreground work is
  /// outstanding, and a cartridge in its library is due.
  void maybe_start_scrub(DriveId d);
  /// Most overdue scrubbable tape in `d`'s library (preferring the one
  /// already mounted on `d`); invalid id when none is due.
  [[nodiscard]] TapeId pick_scrub_tape(DriveId d) const;
  void start_scrub(DriveId d, TapeId tp);
  /// One verification segment: yield check, locate, full-rate read,
  /// latent-damage observation, duty-cycle pacing, repeat.
  void scrub_segment(DriveId d);
  void scrub_transfer(DriveId d, Bytes seg);
  void scrub_segment_done(DriveId d, Bytes seg, Seconds xfer);
  /// An active (non-latent) media error struck the verify read.
  void scrub_media_error(DriveId d);
  /// True when the pass on `d` should stop at this segment boundary.
  [[nodiscard]] bool scrub_yield_needed(DriveId d) const;
  /// True when an in-flight scrub pass is using `tp`.
  [[nodiscard]] bool scrub_claimed(TapeId tp) const;
  /// Tears down the pass on `d` (stats, span, requeue, redispatch).
  void end_scrub_pass(DriveId d, bool completed);

  // --- metadata durability + crash recovery (inert when journal_ null) ---
  /// Admission-boundary reconciliation: observes due crashes on the lazy
  /// timeline (recovering from each in order) and takes a checkpoint when
  /// the cadence says so. Only called between requests, where the event
  /// queue is provably empty, so recovery can advance the clock
  /// synchronously.
  void reconcile_metadata();
  /// One crash at `at` with torn-tail draw `torn`: cut the journal, replay
  /// snapshot + surviving log, reconcile the lost suffix against tape
  /// reality, assert exact state equivalence, and park the clock through
  /// the metadata-unavailable window if it reaches past now.
  void recover_from_crash(Seconds at, double torn);
  /// Snapshots the catalog into the journal and truncates the log.
  void take_checkpoint();

  // --- health-driven evacuation (inert unless evac_active()) ---
  [[nodiscard]] bool evac_active() const {
    return config_.evacuation.enabled && fault_ != nullptr;
  }
  /// Health score of `tp` from observed errors, latent findings, mounts.
  [[nodiscard]] double health_score(TapeId tp) const;
  /// Checks `tp` against the evacuation threshold after any observation
  /// event (read error, scrub finding, mount) and starts draining it.
  void maybe_evacuate(TapeId tp);
  /// Enqueues one copy job per extent on `tp`; the tape retires once the
  /// last job settles and every object has a live copy elsewhere.
  void begin_evacuation(TapeId tp);
  /// One evacuation copy job for `tp` completed or was abandoned.
  void note_evac_job_done(TapeId tp);
  void finish_evacuation(TapeId tp);

  sim::Engine engine_;
  const core::PlacementPlan* plan_;
  tape::TapeSystem system_;
  catalog::ObjectCatalog catalog_;
  SimulatorConfig config_;
  sim::Semaphore disk_streams_;
  std::unique_ptr<fault::FaultInjector> fault_;

  // Per-request transient state.
  struct DriveReq {
    Seconds seek{};
    Seconds transfer{};
    /// `seek`/`transfer` as of this drive's latest completed extent. The
    /// outcome decomposition reads these: a trailing extent that fails
    /// after the last success (media retries, then unavailable/failover)
    /// accumulates seek past the response window, and counting it would
    /// drive the switch-time residual negative.
    Seconds seek_done{};
    Seconds transfer_done{};
    Seconds finish{};
    bool used = false;
  };
  std::vector<DriveReq> drive_req_;

  /// The extent chain a drive is currently serving (replaces the old
  /// self-owning closure chain; plain state makes requeue-on-failure
  /// possible). `index` is the extent being served, advanced only after it
  /// completes so media retries can re-serve it.
  struct ServeChain {
    std::vector<catalog::TapeExtent> extents;
    std::size_t index = 0;
    std::uint32_t retries = 0;  ///< Media retries on the current extent.
    bool active = false;
  };
  std::vector<ServeChain> chain_;

  /// Fault-handling context per drive.
  struct DriveCtx {
    bool busy = false;          ///< Serving a chain or mid-switch.
    Seconds activity_start{};   ///< When the current start_*() began.
    Seconds failed_at{};        ///< When the current outage was observed.
    TapeId switch_target{};     ///< Cartridge being fetched, mid-switch.
    std::uint32_t mount_retries = 0;  ///< On the current target, this drive.
    bool robot_held = false;
    bool disk_held = false;
    bool recovery_pending = false;  ///< Robot en route to extract cartridge.
    /// Still-queued robot request for the switch in progress; lets the
    /// deadline path withdraw the waiter without disturbing FIFO order.
    sim::Resource::Ticket robot_ticket = sim::Resource::kInvalidTicket;
    /// The repair job this drive is running, when busy with repair.
    std::optional<RepairJob> repair;
    /// The verification pass this drive is running, when busy with scrub.
    std::optional<ScrubJob> scrub;
    /// Pending completion of a clean foreground transfer (no fault or
    /// media interrupt booked); lets the hedge machinery cancel the
    /// losing leg mid-stream. kNoEvent when no cancellable transfer is up.
    sim::EventId transfer_event = sim::kNoEvent;
  };
  std::vector<DriveCtx> ctx_;

  /// Requested extents keyed by tape id value; removed once served.
  std::unordered_map<std::uint32_t, std::vector<catalog::TapeExtent>> needed_;
  /// Offline tapes awaiting a drive, per library, largest work first.
  std::vector<std::deque<TapeId>> lib_queue_;
  /// A repair-watch event is pending for this library.
  std::vector<bool> watch_pending_;
  /// Total failed mount attempts per tape value, this request.
  std::unordered_map<std::uint32_t, std::uint32_t> mount_attempts_;
  std::size_t remaining_extents_ = 0;
  Seconds t0_{};
  Seconds last_transfer_end_{};
  DriveId last_finisher_{};
  std::uint32_t switches_this_request_ = 0;
  Seconds robot_wait_this_request_{};
  Bytes bytes_unavailable_this_request_{};
  std::uint32_t extents_unavailable_this_request_ = 0;
  std::uint32_t failovers_this_request_ = 0;
  std::uint32_t mount_retries_this_request_ = 0;
  std::uint32_t media_retries_this_request_ = 0;
  std::uint64_t total_switches_ = 0;
  bool in_request_ = false;

  // --- overload state (inert defaults: bit-identical when unused) ---
  Seconds deadline_abs_{metrics::RequestOutcome::kNoDeadline};
  Priority priority_ = Priority::kForeground;
  sim::EventId deadline_event_ = sim::kNoEvent;
  bool expired_ = false;  ///< Current request blew its deadline.
  Bytes bytes_expired_this_request_{};
  std::uint32_t extents_expired_this_request_ = 0;
  bool overload_pressure_ = false;

  // --- redundancy state (all empty/zero when the plan is unreplicated) ---
  bool replicated_ = false;
  std::uint32_t target_copies_ = 1;  ///< plan replication factor
  /// Copies already tried (and failed) per object value, this request.
  std::unordered_map<std::uint32_t, std::vector<TapeId>> tried_;
  std::uint32_t served_from_replica_this_request_ = 0;
  std::uint32_t repaired_this_request_ = 0;
  std::deque<RepairJob> repair_queue_;
  std::uint32_t active_repairs_ = 0;  ///< Jobs currently holding a drive.
  /// Tapes with an in-flight repair write (offset exclusivity).
  std::unordered_set<std::uint32_t> repair_writing_;
  /// Queued + in-flight new copies per object value (over-scheduling guard).
  std::unordered_map<std::uint32_t, std::uint32_t> repair_pending_;
  RepairStats repair_stats_;
  /// Snapshot of injector counters at the last request boundary, for
  /// emitting per-request deltas into the tracer registry.
  fault::FaultCounters prev_fault_counters_;

  // --- scrub + evacuation state (all empty/zero when disabled) ---
  /// When each tape last completed a verification pass (start epoch = 0).
  std::vector<Seconds> last_scrub_;
  std::uint32_t active_scrubs_ = 0;  ///< Passes currently holding a drive.
  ScrubStats scrub_stats_;
  /// Tapes whose evacuation has begun. A tape stays in this set after a
  /// failed drain (some object had no surviving copy to clone) so the
  /// policy does not thrash on an unevacuatable cartridge.
  std::unordered_set<std::uint32_t> evacuating_;
  /// Outstanding evacuation copy jobs per tape value.
  std::unordered_map<std::uint32_t, std::uint32_t> evac_outstanding_;
  EvacStats evac_stats_;
  std::uint32_t latent_hits_this_request_ = 0;

  // --- library outage state (all empty/zero when outages are disabled) ---
  /// Scheduler-side view of one library's outage timeline. The tape
  /// system's LibraryState is authoritative for up/down/destroyed; this
  /// adds the window bounds and the RTO sampling flags.
  struct OutageWatch {
    Seconds began{};       ///< Onset of the currently observed outage.
    Seconds restore_at{};  ///< Exact timeline restore time (inf = never).
    bool awaiting_first_byte = false;  ///< TTFB sample armed post-restore.
    Seconds restored_at{};             ///< When the library last restored.
  };
  std::vector<OutageWatch> outage_watch_;
  OutageStats outage_stats_;
  /// Outstanding DR copy jobs and disaster onset per destroyed library
  /// value; an entry drains to removal when its last job settles.
  std::unordered_map<std::uint32_t, std::uint32_t> dr_outstanding_;
  std::unordered_map<std::uint32_t, Seconds> dr_began_;
  /// Library whose disaster is currently scheduling repairs (valid only
  /// inside register_outage's loss loop; tags jobs as DR traffic).
  LibraryId dr_tag_{};
  std::uint32_t extents_parked_this_request_ = 0;

  // --- gray-failure state (all empty/zero unless detector/hedge on) ---
  /// Per-drive detector view: throughput EWMA over completed foreground
  /// transfers and the flag/quarantine window bookkeeping.
  struct DetectorState {
    double tput_ewma = 0.0;  ///< Bytes/s EWMA; 0 until the first sample.
    std::uint32_t samples = 0;
    Seconds below_since{};  ///< kNever-like inf when not below threshold.
    bool flagged = false;
    Seconds flagged_at{};
    bool quarantined = false;
    Seconds release_at{};  ///< Earliest quarantine exit (re-extended).
  };
  std::vector<DetectorState> detector_;
  /// One speculative race per object (requests carry unique objects, so
  /// the object value is a safe key).
  struct Hedge {
    TapeId primary{};     ///< Tape the original chain reads from.
    TapeId alt{};         ///< Tape of the speculative leg.
    Seconds primary_eta{};  ///< Projected finish of the primary stream.
    Seconds issued_at{};
    /// The primary leg failed; the speculative leg now carries the
    /// object's accounting alone.
    bool primary_dead = false;
  };
  std::unordered_map<std::uint32_t, Hedge> hedges_;
  /// Objects whose losing leg was cancelled; skipped at serve
  /// boundaries until the request ends.
  std::unordered_set<std::uint32_t> hedge_cancelled_;
  /// Ring buffer of normalized service times (actual / native duration)
  /// over completed foreground transfers.
  std::vector<double> hedge_ratio_;
  std::size_t hedge_ratio_next_ = 0;
  std::uint64_t hedge_bytes_ = 0;   ///< Speculative bytes launched.
  std::uint64_t served_bytes_ = 0;  ///< Foreground bytes completed.
  FailSlowStats failslow_stats_;

  // --- recovery-work governor (inert when config_.governor.enabled is
  // false: every hook is guarded, so the disabled path adds no draws and
  // no events) ---
  RecoveryGovernor governor_;

  // --- metadata durability state (null/zero when the journal is off) ---
  std::unique_ptr<catalog::Journal> journal_;
  RecoveryStats recovery_stats_;
};

}  // namespace tapesim::sched
