// Engine self-profiling: what the dispatch loop costs in wall-clock time.
//
// A Profiler implements sim::ProfileSink and aggregates, entirely outside
// simulated time: per-event-label dispatch wall time (steady_clock) and
// counts, run-loop wall time (queue operations included), event-queue depth
// high-water and mean occupancy, and the sim-seconds-per-wall-second
// throughput of the run. Attach one to a sim::Engine to measure a run;
// detach (or never attach) and the engine reads no clocks at all — the
// zero-overhead-when-disabled discipline the rest of `obs` follows.
// Construct with a sample stride above 1 to time only every Nth dispatch:
// dispatch/run totals stay exact, per-label detail becomes a sample, and
// the attached overhead drops below what per-event clock reads cost.
//
// Results export three ways: a ProfileReport struct for programmatic use,
// `profiler.*` instruments merged into a metrics Registry (so profiling
// data travels with the existing metrics exports), and a standalone JSON
// object with the per-label breakdown (what `BENCH_*.json` embeds).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <unordered_map>

#include "sim/profile.hpp"
#include "util/units.hpp"

namespace tapesim::sim {
class Engine;
}  // namespace tapesim::sim

namespace tapesim::obs {

class Registry;

/// Aggregate dispatch cost of one event kind ("" = unlabeled).
struct DispatchStats {
  std::uint64_t count = 0;
  double wall_s = 0.0;
  double max_wall_s = 0.0;

  [[nodiscard]] double mean_wall_s() const {
    return count == 0 ? 0.0 : wall_s / static_cast<double>(count);
  }
};

/// Point-in-time copy of everything a Profiler measured.
///
/// `dispatches`, `runs`, and the run/sim totals are always exact (they
/// come from the run brackets). With a sample stride above 1 the
/// per-dispatch detail — `dispatch_wall_s`, queue-depth stats, and the
/// `by_label` counts/timings — covers only the `sampled_dispatches`
/// subset; scale by dispatches/sampled_dispatches for totals (which
/// estimated_dispatch_wall_s() does for the wall time).
struct ProfileReport {
  std::uint64_t dispatches = 0;
  std::uint64_t runs = 0;
  std::uint64_t sample_stride = 1;
  std::uint64_t sampled_dispatches = 0;
  double dispatch_wall_s = 0.0;  ///< event-action wall time (sampled)
  double run_wall_s = 0.0;       ///< sum of run-loop wall time
  double sim_advanced_s = 0.0;   ///< simulated time covered by the runs
  std::size_t queue_high_water = 0;
  double queue_depth_mean = 0.0;
  /// Keyed by event kind; kinds with equal text from different call
  /// sites are merged.
  std::map<std::string, DispatchStats> by_label;

  /// Wall time inside event actions scaled up from the sampled subset;
  /// equal to dispatch_wall_s when every dispatch was sampled.
  [[nodiscard]] double estimated_dispatch_wall_s() const {
    if (sampled_dispatches == 0) return 0.0;
    return dispatch_wall_s * static_cast<double>(dispatches) /
           static_cast<double>(sampled_dispatches);
  }
  /// Run-loop cost not attributable to event actions: queue push/pop,
  /// tie-breaking, cancellation bookkeeping. The kernel-optimization
  /// target ROADMAP item 1 names.
  [[nodiscard]] double kernel_wall_s() const {
    const double actions = estimated_dispatch_wall_s();
    return run_wall_s > actions ? run_wall_s - actions : 0.0;
  }
  /// Simulated seconds per wall second across the profiled runs.
  [[nodiscard]] double sim_s_per_wall_s() const {
    return run_wall_s > 0.0 ? sim_advanced_s / run_wall_s : 0.0;
  }
  /// Events dispatched per wall second across the profiled runs.
  [[nodiscard]] double events_per_wall_s() const {
    return run_wall_s > 0.0
               ? static_cast<double>(dispatches) / run_wall_s
               : 0.0;
  }
};

class Profiler final : public sim::ProfileSink {
 public:
  /// `sample_stride` = time every Nth dispatch (1 = every dispatch).
  /// Sub-microsecond event actions need a stride well above 1 for the
  /// attached-profiler overhead to stay negligible; dispatch/run totals
  /// remain exact either way.
  explicit Profiler(std::size_t sample_stride = 1)
      : stride_(sample_stride == 0 ? 1 : sample_stride) {}
  ~Profiler() override;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Installs this profiler on `engine` (replacing any previous sink).
  /// Only one engine at a time; re-attaching detaches from the old one.
  void attach(sim::Engine& engine);
  /// Removes the hook; collected statistics survive for report()/export.
  void detach();

  [[nodiscard]] ProfileReport report() const;
  /// Zeroes every aggregate (stays attached).
  void reset();

  /// Writes the scalar aggregates as `profiler.*` counters/gauges so they
  /// export alongside the rest of a Registry. Per-label detail stays in
  /// report()/write_json (labels are free-form and would break the metric
  /// naming convention).
  void export_to(Registry& registry) const;

  /// One JSON object: scalars plus a per-label breakdown sorted by name.
  void write_json(std::ostream& os) const;

  // --- sim::ProfileSink ---
  void on_run_begin(Seconds sim_now) override;
  void on_run_end(Seconds sim_now, double wall_s,
                  std::uint64_t dispatches) override;
  void on_dispatch_done(Seconds sim_now, const char* kind, double wall_s,
                        std::size_t queue_depth) override;
  [[nodiscard]] std::size_t dispatch_sample_stride() const override {
    return stride_;
  }

 private:
  sim::Engine* engine_ = nullptr;
  std::size_t stride_ = 1;

  std::uint64_t dispatches_ = 0;
  std::uint64_t sampled_dispatches_ = 0;
  std::uint64_t runs_ = 0;
  double dispatch_wall_s_ = 0.0;
  double run_wall_s_ = 0.0;
  double sim_advanced_s_ = 0.0;
  Seconds run_begin_{0.0};
  std::size_t queue_high_water_ = 0;
  double queue_depth_sum_ = 0.0;
  /// Keyed by the kind pointer itself (nullptr = unlabeled): a sampled
  /// dispatch hashes one pointer and builds no string. report() merges
  /// equal texts.
  std::unordered_map<const char*, DispatchStats> by_kind_;
};

}  // namespace tapesim::obs
