#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"
#include "util/distributions.hpp"

namespace tapesim::fault {

namespace {
constexpr Seconds kNever{std::numeric_limits<double>::infinity()};
}  // namespace

FaultInjector::FaultInjector(const FaultConfig& config,
                             const tape::SystemSpec& spec)
    : config_(config) {
  TAPESIM_ASSERT_MSG(config_.try_validate().ok(),
                     "fault config must validate before injection");
  // Per-class substreams, then one fork per device: a device's draws never
  // depend on any other device's, nor on query order. split() is pure on
  // the freshly seeded root, so adding a class never perturbs the others.
  const Rng root{config_.seed};
  const Rng drive_base = root.split("drive");
  const Rng mount_base = root.split("mount");
  const Rng media_base = root.split("media");
  robot_base_ = root.split("robot");
  const Rng decay_base = root.split("decay");
  outage_base_ = root.split("outage");
  const Rng failslow_base = root.split("failslow");
  robotslow_base_ = root.split("robotslow");
  crash_rng_ = root.split("crash");
  drives_per_library_ = spec.library.drives_per_library;

  const std::uint32_t num_drives = spec.total_drives();
  const std::uint32_t num_tapes = spec.total_tapes();
  drives_.reserve(num_drives);
  mount_rngs_.reserve(num_drives);
  slow_drives_.reserve(num_drives);
  for (std::uint32_t d = 0; d < num_drives; ++d) {
    drives_.push_back(RenewalTimeline{drive_base.fork(d), kNever, kNever,
                                      /*permanent=*/false, /*started=*/false});
    mount_rngs_.push_back(mount_base.fork(d));
    slow_drives_.push_back(SlowTimeline{failslow_base.fork(d), kNever, kNever,
                                        /*severity=*/1.0, /*started=*/false});
  }
  media_rngs_.reserve(num_tapes);
  decay_.reserve(num_tapes);
  for (std::uint32_t t = 0; t < num_tapes; ++t) {
    media_rngs_.push_back(media_base.fork(t));
    decay_.push_back(DecayTimeline{decay_base.fork(t), kNever, 0, 0,
                                   /*started=*/false});
  }
  if (spec.num_libraries > 0) ensure_library(spec.num_libraries - 1);
  media_error_counts_.assign(num_tapes, 0);
}

void FaultInjector::ensure_library(std::uint32_t index) {
  // fork() is index-addressed and const on the stored bases, so a library
  // materialised late draws exactly what it would have drawn had the fleet
  // started larger — lazy growth is deterministic.
  while (robot_rngs_.size() <= index) {
    robot_rngs_.push_back(
        robot_base_.fork(static_cast<std::uint64_t>(robot_rngs_.size())));
  }
  while (outages_.size() <= index) {
    outages_.push_back(RenewalTimeline{
        outage_base_.fork(static_cast<std::uint64_t>(outages_.size())), kNever,
        kNever, /*permanent=*/false, /*started=*/false});
  }
  while (slow_robots_.size() <= index) {
    slow_robots_.push_back(SlowTimeline{
        robotslow_base_.fork(static_cast<std::uint64_t>(slow_robots_.size())),
        kNever, kNever, /*severity=*/1.0, /*started=*/false});
  }
}

LibraryId FaultInjector::lib_of(DriveId d) const {
  TAPESIM_ASSERT(d.valid() && drives_per_library_ > 0);
  return LibraryId{d.value() / drives_per_library_};
}

FaultInjector::RenewalTimeline& FaultInjector::timeline(DriveId d) {
  TAPESIM_ASSERT(d.valid() && d.index() < drives_.size());
  return drives_[d.index()];
}

FaultInjector::RenewalTimeline& FaultInjector::library_timeline(LibraryId lib) {
  TAPESIM_ASSERT(lib.valid());
  ensure_library(lib.value());
  return outages_[lib.index()];
}

void FaultInjector::advance(RenewalTimeline& tl, Seconds t, Seconds mtbf_s,
                            Seconds mttr_s, double permanent_fraction) {
  const double mtbf = mtbf_s.count();
  if (!tl.started) {
    tl.started = true;
    if (mtbf > 0.0) {
      tl.fail_at = Seconds{sample_exponential(tl.rng, mtbf)};
      tl.permanent = tl.rng.uniform() < permanent_fraction;
      tl.repair_at =
          tl.permanent
              ? kNever
              : tl.fail_at +
                    Seconds{sample_exponential(tl.rng, mttr_s.count())};
    }
    // mtbf == 0: fail_at stays +inf, the loop below never iterates.
  }
  while (t >= tl.repair_at) {
    tl.fail_at = tl.repair_at + Seconds{sample_exponential(tl.rng, mtbf)};
    tl.permanent = tl.rng.uniform() < permanent_fraction;
    tl.repair_at =
        tl.permanent
            ? kNever
            : tl.fail_at + Seconds{sample_exponential(tl.rng, mttr_s.count())};
  }
}

void FaultInjector::advance_drive(RenewalTimeline& tl, Seconds t) {
  advance(tl, t, config_.drive_mtbf, config_.drive_mttr,
          config_.permanent_fraction);
}

void FaultInjector::advance_library(RenewalTimeline& tl, Seconds t) {
  advance(tl, t, config_.outage.library_mtbf, config_.outage.library_mttr,
          config_.outage.disaster_fraction);
}

bool FaultInjector::drive_timeline_online(DriveId d, Seconds at) {
  RenewalTimeline& tl = timeline(d);
  advance_drive(tl, at);
  return at < tl.fail_at;
}

bool FaultInjector::drive_online(DriveId d, Seconds at) {
  if (!drive_timeline_online(d, at)) return false;
  return !config_.outage.enabled() || library_up(lib_of(d), at);
}

bool FaultInjector::outage_is_permanent(DriveId d, Seconds at) {
  RenewalTimeline& tl = timeline(d);
  advance_drive(tl, at);
  const bool own_down = at >= tl.fail_at;
  if (config_.outage.enabled()) {
    RenewalTimeline& lt = library_timeline(lib_of(d));
    advance_library(lt, at);
    const bool lib_down = at >= lt.fail_at;
    TAPESIM_ASSERT_MSG(own_down || lib_down, "drive is not in an outage");
    if (lib_down && lt.permanent) return true;
    if (own_down) return tl.permanent;
    return false;  // Transient library outage over a healthy drive.
  }
  TAPESIM_ASSERT_MSG(own_down, "drive is not in an outage");
  return tl.permanent;
}

std::optional<Seconds> FaultInjector::failure_within(DriveId d, Seconds at,
                                                     Seconds duration) {
  RenewalTimeline& tl = timeline(d);
  advance_drive(tl, at);
  TAPESIM_ASSERT_MSG(at < tl.fail_at,
                     "activity started on a drive already in an outage");
  Seconds strike = tl.fail_at;
  if (config_.outage.enabled()) {
    RenewalTimeline& lt = library_timeline(lib_of(d));
    advance_library(lt, at);
    TAPESIM_ASSERT_MSG(at < lt.fail_at,
                       "activity started in a downed library");
    strike = std::min(strike, lt.fail_at);
  }
  if (strike < at + duration) return strike - at;
  return std::nullopt;
}

std::optional<Seconds> FaultInjector::next_online_at(DriveId d, Seconds now) {
  // Walk forward to the first instant at which the drive's own hardware
  // and its library are simultaneously up. Each hop lands on a repair /
  // restore boundary, so the loop terminates (timelines only move forward).
  // The walk runs on *copies*: advancing a timeline past `now` would
  // consume the current outage window for every later query, and the RNGs
  // are deterministic value types, so a copy previews exactly the renewals
  // the real timeline will produce when time actually gets there.
  advance_drive(timeline(d), now);
  RenewalTimeline dt = timeline(d);
  std::optional<RenewalTimeline> lt;
  if (config_.outage.enabled()) {
    advance_library(library_timeline(lib_of(d)), now);
    lt = library_timeline(lib_of(d));
  }
  Seconds t = now;
  for (;;) {
    advance_drive(dt, t);
    if (t >= dt.fail_at) {
      if (dt.permanent) return std::nullopt;
      t = dt.repair_at;
      continue;
    }
    if (!lt.has_value()) return t;
    advance_library(*lt, t);
    if (t >= lt->fail_at) {
      if (lt->permanent) return std::nullopt;
      t = lt->repair_at;
      continue;
    }
    return t;
  }
}

void FaultInjector::note_drive_failure(bool permanent) {
  ++counters_.drive_failures;
  if (permanent) ++counters_.permanent_drive_failures;
}

bool FaultInjector::library_up(LibraryId lib, Seconds at) {
  if (!config_.outage.enabled()) return true;
  RenewalTimeline& lt = library_timeline(lib);
  advance_library(lt, at);
  return at < lt.fail_at;
}

bool FaultInjector::outage_is_disaster(LibraryId lib, Seconds at) {
  RenewalTimeline& lt = library_timeline(lib);
  advance_library(lt, at);
  TAPESIM_ASSERT_MSG(at >= lt.fail_at, "library is not in an outage");
  return lt.permanent;
}

Seconds FaultInjector::outage_started_at(LibraryId lib, Seconds at) {
  RenewalTimeline& lt = library_timeline(lib);
  advance_library(lt, at);
  TAPESIM_ASSERT_MSG(at >= lt.fail_at, "library is not in an outage");
  return lt.fail_at;
}

std::optional<Seconds> FaultInjector::library_up_at(LibraryId lib,
                                                    Seconds now) {
  if (!config_.outage.enabled()) return now;
  RenewalTimeline& lt = library_timeline(lib);
  advance_library(lt, now);
  if (now < lt.fail_at) return now;
  if (lt.permanent) return std::nullopt;
  return lt.repair_at;
}

void FaultInjector::note_library_outage(bool disaster) {
  ++counters_.library_outages;
  if (disaster) ++counters_.library_disasters;
}

bool FaultInjector::mount_attempt_fails(DriveId d, Seconds now) {
  // The burst window only ever raises the rate; outside the window (or
  // with the burst disabled) the draw sequence is untouched.
  const double prob =
      config_.burst.active(now)
          ? std::max(config_.mount_failure_prob,
                     config_.burst.mount_failure_prob)
          : config_.mount_failure_prob;
  if (prob <= 0.0) return false;
  TAPESIM_ASSERT(d.valid() && d.index() < mount_rngs_.size());
  const bool fails = mount_rngs_[d.index()].uniform() < prob;
  if (fails) ++counters_.mount_failures;
  return fails;
}

std::optional<double> FaultInjector::media_error(TapeId t, Bytes amount,
                                                 tape::CartridgeHealth health,
                                                 Seconds now) {
  // As with mounts, the burst only raises the base per-GB rate; the
  // degraded multiplier applies on top of whichever rate is in force.
  const double base =
      config_.burst.active(now)
          ? std::max(config_.media_error_per_gb,
                     config_.burst.media_error_per_gb)
          : config_.media_error_per_gb;
  if (base <= 0.0) return std::nullopt;
  TAPESIM_ASSERT_MSG(health != tape::CartridgeHealth::kLost,
                     "lost cartridges are never transferred");
  TAPESIM_ASSERT(t.valid() && t.index() < media_rngs_.size());
  const double rate = base * (health == tape::CartridgeHealth::kDegraded
                                  ? config_.degraded_error_multiplier
                                  : 1.0);
  const double gb = amount.gigabytes();
  if (gb <= 0.0) return std::nullopt;
  Rng& rng = media_rngs_[t.index()];
  // First event of a Poisson process with intensity `rate` per GB: the
  // transfer errors iff the event lands inside it, and conditional on a
  // hit the position follows the truncated exponential.
  const double p_hit = 1.0 - std::exp(-rate * gb);
  if (rng.uniform() >= p_hit) return std::nullopt;
  const double v = rng.uniform();
  const double x = -std::log(1.0 - v * p_hit) / rate;
  return x / gb;  // in [0, 1)
}

tape::CartridgeHealth FaultInjector::health_for(std::uint32_t count) const {
  if (count >= config_.lost_after) return tape::CartridgeHealth::kLost;
  if (count >= config_.degraded_after) return tape::CartridgeHealth::kDegraded;
  return tape::CartridgeHealth::kGood;
}

tape::CartridgeHealth FaultInjector::record_media_error(TapeId t) {
  TAPESIM_ASSERT(t.valid() && t.index() < media_error_counts_.size());
  ++counters_.media_errors;
  const std::uint32_t count = ++media_error_counts_[t.index()];
  if (count == config_.lost_after) ++counters_.lost_cartridges;
  if (count == config_.degraded_after) ++counters_.degraded_cartridges;
  return health_for(count);
}

std::uint32_t FaultInjector::media_errors_on(TapeId t) const {
  TAPESIM_ASSERT(t.valid() && t.index() < media_error_counts_.size());
  return media_error_counts_[t.index()];
}

FaultInjector::DecayTimeline& FaultInjector::decay(TapeId t, Seconds at) {
  TAPESIM_ASSERT(t.valid() && t.index() < decay_.size());
  DecayTimeline& tl = decay_[t.index()];
  const double mtbf = config_.latent_decay_mtbf.count();
  if (!tl.started) {
    tl.started = true;
    if (mtbf > 0.0) {
      tl.next_at = Seconds{sample_exponential(tl.rng, mtbf)};
    }
    // mtbf == 0: next_at stays +inf, the loop below never iterates.
  }
  while (at >= tl.next_at) {
    ++tl.accrued;
    ++counters_.latent_events;
    tl.next_at += Seconds{sample_exponential(tl.rng, mtbf)};
  }
  return tl;
}

std::uint32_t FaultInjector::undetected_damage(TapeId t, Seconds at) {
  if (config_.latent_decay_mtbf.count() <= 0.0) return 0;
  DecayTimeline& tl = decay(t, at);
  return tl.accrued - tl.observed;
}

double FaultInjector::latent_hit_position(TapeId t) {
  TAPESIM_ASSERT(t.valid() && t.index() < decay_.size());
  return decay_[t.index()].rng.uniform();
}

tape::CartridgeHealth FaultInjector::observe_damage(TapeId t, Seconds at,
                                                    std::uint32_t* found) {
  TAPESIM_ASSERT(t.valid() && t.index() < media_error_counts_.size());
  std::uint32_t fresh = 0;
  if (config_.latent_decay_mtbf.count() > 0.0) {
    DecayTimeline& tl = decay(t, at);
    fresh = tl.accrued - tl.observed;
    if (fresh > 0) {
      tl.observed = tl.accrued;
      counters_.latent_observed += fresh;
      counters_.media_errors += fresh;
      const std::uint32_t before = media_error_counts_[t.index()];
      const std::uint32_t after = before + fresh;
      media_error_counts_[t.index()] = after;
      if (before < config_.degraded_after && after >= config_.degraded_after) {
        ++counters_.degraded_cartridges;
      }
      if (before < config_.lost_after && after >= config_.lost_after) {
        ++counters_.lost_cartridges;
      }
    }
  }
  if (found != nullptr) *found = fresh;
  return health_for(media_error_counts_[t.index()]);
}

std::uint32_t FaultInjector::latent_observed_on(TapeId t) const {
  TAPESIM_ASSERT(t.valid() && t.index() < decay_.size());
  return decay_[t.index()].observed;
}

FaultInjector::SlowTimeline& FaultInjector::slow_timeline(DriveId d) {
  TAPESIM_ASSERT(d.valid() && d.index() < slow_drives_.size());
  return slow_drives_[d.index()];
}

FaultInjector::SlowTimeline& FaultInjector::robot_slow_timeline(LibraryId lib) {
  TAPESIM_ASSERT(lib.valid());
  ensure_library(lib.value());
  return slow_robots_[lib.index()];
}

void FaultInjector::advance_slow(SlowTimeline& tl, Seconds t, bool robot,
                                 bool count) {
  const FailSlowConfig& fs = config_.failslow;
  const double mtbf =
      robot ? fs.robot_slow_mtbf.count() : fs.drive_slow_mtbf.count();
  const double duration =
      robot ? fs.robot_slow_duration.count() : fs.drive_slow_duration.count();
  const double lo = robot ? fs.robot_severity_min : fs.drive_severity_min;
  const double hi = robot ? fs.robot_severity_max : fs.drive_severity_max;
  const auto materialise = [&](Seconds from) {
    const Seconds begin = from + Seconds{sample_exponential(tl.rng, mtbf)};
    const Seconds end = begin + Seconds{sample_exponential(tl.rng, duration)};
    tl.begin_at = begin;
    tl.end_at = end;
    tl.severity = tl.rng.uniform(lo, hi);
    if (!count) return;
    if (robot) {
      ++counters_.robot_slow_episodes;
    } else {
      ++counters_.slow_episodes;
      counters_.slow_drive_seconds += (end - begin).count();
    }
  };
  if (!tl.started) {
    tl.started = true;
    if (mtbf > 0.0) materialise(Seconds{0.0});
    // mtbf == 0: begin_at stays +inf, the loop below never iterates.
  }
  while (t >= tl.end_at) materialise(tl.end_at);
}

double FaultInjector::slow_multiplier(const SlowTimeline& tl, Seconds t,
                                      bool robot) const {
  if (t < tl.begin_at || t >= tl.end_at) return 1.0;
  if (!robot && config_.failslow.progressive) {
    // Linear ramp from full speed at onset down to the drawn severity at
    // episode end — progressive wear instead of an instantaneous drop.
    const double span = (tl.end_at - tl.begin_at).count();
    const double frac = span > 0.0 ? (t - tl.begin_at).count() / span : 1.0;
    return 1.0 - (1.0 - tl.severity) * frac;
  }
  return tl.severity;
}

bool FaultInjector::planted_covers(DriveId d, Seconds t) {
  const FailSlowConfig& fs = config_.failslow;
  if (fs.planted_drive < 0 ||
      static_cast<std::uint32_t>(fs.planted_drive) != d.index()) {
    return false;
  }
  const bool covers =
      t >= fs.planted_at && t < fs.planted_at + fs.planted_duration;
  if (covers && !planted_counted_) {
    planted_counted_ = true;
    ++counters_.slow_episodes;
    counters_.slow_drive_seconds += fs.planted_duration.count();
  }
  return covers;
}

double FaultInjector::drive_rate_multiplier(DriveId d, Seconds at) {
  if (!config_.failslow.enabled()) return 1.0;
  SlowTimeline& tl = slow_timeline(d);
  advance_slow(tl, at, /*robot=*/false);
  double mult = slow_multiplier(tl, at, /*robot=*/false);
  if (planted_covers(d, at)) {
    mult = std::min(mult, config_.failslow.planted_severity);
  }
  return mult;
}

double FaultInjector::robot_rate_multiplier(LibraryId lib, Seconds at) {
  if (config_.failslow.robot_slow_mtbf.count() <= 0.0) return 1.0;
  SlowTimeline& tl = robot_slow_timeline(lib);
  advance_slow(tl, at, /*robot=*/true);
  return slow_multiplier(tl, at, /*robot=*/true);
}

bool FaultInjector::drive_is_slow(DriveId d, Seconds at) {
  if (!config_.failslow.enabled()) return false;
  SlowTimeline& tl = slow_timeline(d);
  advance_slow(tl, at, /*robot=*/false);
  const bool in_window = at >= tl.begin_at && at < tl.end_at;
  return in_window || planted_covers(d, at);
}

Seconds FaultInjector::drive_slow_since(DriveId d, Seconds at) {
  SlowTimeline& tl = slow_timeline(d);
  advance_slow(tl, at, /*robot=*/false);
  const bool in_window = at >= tl.begin_at && at < tl.end_at;
  const bool planted = planted_covers(d, at);
  TAPESIM_ASSERT_MSG(in_window || planted, "drive is not in a slow episode");
  Seconds since = kNever;
  if (in_window) since = tl.begin_at;
  if (planted) since = std::min(since, config_.failslow.planted_at);
  return since;
}

Seconds FaultInjector::drive_slow_until(DriveId d, Seconds at) {
  SlowTimeline& tl = slow_timeline(d);
  advance_slow(tl, at, /*robot=*/false);
  const bool in_window = at >= tl.begin_at && at < tl.end_at;
  const bool planted = planted_covers(d, at);
  TAPESIM_ASSERT_MSG(in_window || planted, "drive is not in a slow episode");
  Seconds until{0.0};
  if (in_window) until = tl.end_at;
  if (planted) {
    until = std::max(until, config_.failslow.planted_at +
                                config_.failslow.planted_duration);
  }
  return until;
}

std::optional<Seconds> FaultInjector::drive_slow_within(DriveId d, Seconds at,
                                                        Seconds horizon) {
  if (!config_.failslow.enabled()) return std::nullopt;
  const Seconds limit = at + horizon;
  Seconds onset = kNever;
  // Walk the random-episode renewals on a *copy* like next_online_at():
  // advancing the real timeline past `at` would materialise (and count)
  // future windows for every later query.
  advance_slow(slow_timeline(d), at, /*robot=*/false);
  SlowTimeline peek = slow_timeline(d);
  if (config_.failslow.drive_slow_mtbf.count() > 0.0) {
    Seconds t = at;
    while (t < limit) {
      advance_slow(peek, t, /*robot=*/false, /*count=*/false);
      if (t < peek.end_at && peek.begin_at < limit) {
        onset = std::max(peek.begin_at, at);
        break;
      }
      t = peek.end_at;
    }
  }
  const FailSlowConfig& fs = config_.failslow;
  if (fs.planted_drive >= 0 &&
      static_cast<std::uint32_t>(fs.planted_drive) == d.index()) {
    const Seconds p_end = fs.planted_at + fs.planted_duration;
    if (fs.planted_at < limit && at < p_end) {
      onset = std::min(onset, std::max(fs.planted_at, at));
    }
  }
  if (onset < limit) return onset;
  return std::nullopt;
}

Seconds FaultInjector::robot_jam_delay(LibraryId lib) {
  if (config_.robot_jam_prob <= 0.0) return Seconds{0.0};
  TAPESIM_ASSERT(lib.valid());
  ensure_library(lib.value());
  if (robot_rngs_[lib.index()].uniform() < config_.robot_jam_prob) {
    ++counters_.robot_jams;
    return config_.robot_jam_clear;
  }
  return Seconds{0.0};
}

std::optional<FaultInjector::CrashEvent> FaultInjector::next_metadata_crash(
    Seconds now) {
  const double mtbf = config_.crash.metadata_mtbf.count();
  if (mtbf <= 0.0) return std::nullopt;
  if (!crash_started_) {
    crash_started_ = true;
    next_crash_at_ = Seconds{sample_exponential(crash_rng_, mtbf)};
  }
  if (next_crash_at_ > now) return std::nullopt;
  CrashEvent ev{next_crash_at_, crash_rng_.uniform()};
  next_crash_at_ += Seconds{sample_exponential(crash_rng_, mtbf)};
  ++counters_.metadata_crashes;
  return ev;
}

}  // namespace tapesim::fault
