#include "obs/profiler.hpp"

#include <algorithm>
#include <ostream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace tapesim::obs {

Profiler::~Profiler() { detach(); }

void Profiler::attach(sim::Engine& engine) {
  detach();
  engine_ = &engine;
  engine.set_profile_sink(this);
}

void Profiler::detach() {
  if (engine_ == nullptr) return;
  // Only clear the hook if it is still ours; another profiler may have
  // been installed on the engine since.
  if (engine_->profile_sink() == this) engine_->set_profile_sink(nullptr);
  engine_ = nullptr;
}

void Profiler::on_run_begin(Seconds sim_now) { run_begin_ = sim_now; }

void Profiler::on_run_end(Seconds sim_now, double wall_s,
                          std::uint64_t dispatches) {
  ++runs_;
  run_wall_s_ += wall_s;
  sim_advanced_s_ += (sim_now - run_begin_).count();
  dispatches_ += dispatches;  // exact even when dispatch timing is sampled
}

void Profiler::on_dispatch_done(Seconds /*sim_now*/, const char* kind,
                                double wall_s, std::size_t queue_depth) {
  ++sampled_dispatches_;
  dispatch_wall_s_ += wall_s;
  queue_high_water_ = std::max(queue_high_water_, queue_depth);
  queue_depth_sum_ += static_cast<double>(queue_depth);
  DispatchStats& stats = by_kind_[kind];
  ++stats.count;
  stats.wall_s += wall_s;
  stats.max_wall_s = std::max(stats.max_wall_s, wall_s);
}

ProfileReport Profiler::report() const {
  ProfileReport r;
  r.dispatches = dispatches_;
  r.runs = runs_;
  r.sample_stride = stride_;
  r.sampled_dispatches = sampled_dispatches_;
  r.dispatch_wall_s = dispatch_wall_s_;
  r.run_wall_s = run_wall_s_;
  r.sim_advanced_s = sim_advanced_s_;
  r.queue_high_water = queue_high_water_;
  r.queue_depth_mean =
      sampled_dispatches_ == 0
          ? 0.0
          : queue_depth_sum_ / static_cast<double>(sampled_dispatches_);
  for (const auto& [kind, stats] : by_kind_) {
    DispatchStats& merged = r.by_label[kind == nullptr ? "" : kind];
    merged.count += stats.count;
    merged.wall_s += stats.wall_s;
    merged.max_wall_s = std::max(merged.max_wall_s, stats.max_wall_s);
  }
  return r;
}

void Profiler::reset() {
  dispatches_ = 0;
  sampled_dispatches_ = 0;
  runs_ = 0;
  dispatch_wall_s_ = 0.0;
  run_wall_s_ = 0.0;
  sim_advanced_s_ = 0.0;
  run_begin_ = Seconds{0.0};
  queue_high_water_ = 0;
  queue_depth_sum_ = 0.0;
  by_kind_.clear();
}

void Profiler::export_to(Registry& registry) const {
  const ProfileReport r = report();
  registry.counter("profiler.dispatches").inc(r.dispatches);
  registry.counter("profiler.runs").inc(r.runs);
  registry.gauge("profiler.dispatch_wall_s")
      .set(r.estimated_dispatch_wall_s());
  registry.gauge("profiler.run_wall_s").set(r.run_wall_s);
  registry.gauge("profiler.kernel_wall_s").set(r.kernel_wall_s());
  registry.gauge("profiler.sim_advanced_s").set(r.sim_advanced_s);
  registry.gauge("profiler.sim_s_per_wall_s").set(r.sim_s_per_wall_s());
  registry.gauge("profiler.events_per_wall_s").set(r.events_per_wall_s());
  registry.gauge("profiler.queue_depth.high_water")
      .set(static_cast<double>(r.queue_high_water));
  registry.gauge("profiler.queue_depth.mean").set(r.queue_depth_mean);
}

void Profiler::write_json(std::ostream& os) const {
  const ProfileReport r = report();
  os.precision(15);
  os << "{\n"
     << "  \"dispatches\": " << r.dispatches << ",\n"
     << "  \"runs\": " << r.runs << ",\n"
     << "  \"sample_stride\": " << r.sample_stride << ",\n"
     << "  \"sampled_dispatches\": " << r.sampled_dispatches << ",\n"
     << "  \"dispatch_wall_s\": " << r.dispatch_wall_s << ",\n"
     << "  \"estimated_dispatch_wall_s\": " << r.estimated_dispatch_wall_s()
     << ",\n"
     << "  \"run_wall_s\": " << r.run_wall_s << ",\n"
     << "  \"kernel_wall_s\": " << r.kernel_wall_s() << ",\n"
     << "  \"sim_advanced_s\": " << r.sim_advanced_s << ",\n"
     << "  \"sim_s_per_wall_s\": " << r.sim_s_per_wall_s() << ",\n"
     << "  \"events_per_wall_s\": " << r.events_per_wall_s() << ",\n"
     << "  \"queue_depth_high_water\": " << r.queue_high_water << ",\n"
     << "  \"queue_depth_mean\": " << r.queue_depth_mean << ",\n"
     << "  \"by_label\": {";
  bool first = true;
  for (const auto& [label, stats] : r.by_label) {
    os << (first ? "" : ",") << "\n    \""
       << (label.empty() ? "(unlabeled)" : escape_json(label))
       << "\": {\"count\": "
       << stats.count << ", \"wall_s\": " << stats.wall_s
       << ", \"mean_wall_s\": " << stats.mean_wall_s()
       << ", \"max_wall_s\": " << stats.max_wall_s << "}";
    first = false;
  }
  os << "\n  }\n}\n";
}

}  // namespace tapesim::obs
