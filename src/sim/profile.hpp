// Wall-clock profiling hook for the dispatch loop.
//
// A ProfileSink observes what the kernel *costs* (steady_clock wall time),
// where TraceSink observes what the simulation *does* (simulated time).
// Keeping the two separate preserves the overhead discipline: an engine
// with no profiler attached pays exactly one null-pointer check per run
// and per dispatch — no clocks are read — and, because profiling never
// touches simulated time, attaching one cannot perturb event order or any
// simulated timing (the bit-identical guarantee tests/sim pins down).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/units.hpp"

namespace tapesim::sim {

class ProfileSink {
 public:
  virtual ~ProfileSink() = default;

  /// Called when a run()/run_until() loop starts draining the queue.
  virtual void on_run_begin(Seconds sim_now) { (void)sim_now; }

  /// Called when the loop returns. `wall_s` is the loop's total wall-clock
  /// cost (queue operations included); `dispatches` the events it ran.
  virtual void on_run_end(Seconds sim_now, double wall_s,
                          std::uint64_t dispatches) {
    (void)sim_now;
    (void)wall_s;
    (void)dispatches;
  }

  /// Called after a *sampled* event's action ran. `kind` is the event's
  /// static label (nullptr = unlabeled); `wall_s` covers the action alone;
  /// `queue_depth` is the number of live events left afterwards. Which
  /// dispatches are sampled is governed by dispatch_sample_stride().
  virtual void on_dispatch_done(Seconds sim_now, const char* kind,
                                double wall_s, std::size_t queue_depth) {
    (void)sim_now;
    (void)kind;
    (void)wall_s;
    (void)queue_depth;
  }

  /// Every Nth dispatch is timed and reported through on_dispatch_done;
  /// the rest pay only a decrement-and-branch. 1 (the default) times every
  /// dispatch — exact, but two clock reads plus the sink's bookkeeping per
  /// event dominate sub-microsecond actions. Read once, at attach time.
  /// Exact dispatch totals always arrive via on_run_end regardless.
  [[nodiscard]] virtual std::size_t dispatch_sample_stride() const {
    return 1;
  }
};

}  // namespace tapesim::sim
