#include "sched/overload.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/tracer.hpp"
#include "util/assert.hpp"

namespace tapesim::sched {

Seconds DeadlinePolicy::deadline_for(Bytes bytes) const {
  if (!enabled) return Seconds{metrics::RequestOutcome::kNoDeadline};
  return base + per_gb * bytes.gigabytes();
}

const char* to_string(ShedPolicy p) {
  switch (p) {
    case ShedPolicy::kNone: return "none";
    case ShedPolicy::kTailDrop: return "tail_drop";
    case ShedPolicy::kPriority: return "priority";
  }
  return "?";
}

Status OverloadConfig::try_validate() const {
  StatusBuilder check("OverloadConfig");
  if (deadline.enabled) {
    check.require(deadline.base.count() > 0.0,
                  "deadline base must be positive");
    check.require(deadline.per_gb.count() >= 0.0,
                  "deadline per_gb must be non-negative");
  }
  check.require(admission.token_rate >= 0.0,
                "token rate must be non-negative");
  check.require(admission.token_rate == 0.0 || admission.token_burst >= 1.0,
                "token burst must admit at least one request");
  check.require(!admission.reject_hopeless || deadline.enabled,
                "reject_hopeless requires deadlines");
  return check.take();
}

void OverloadConfig::validate() const {
  const Status s = try_validate();
  if (!s.ok()) throw std::invalid_argument(s.message());
}

OverloadRunner::OverloadRunner(RetrievalSimulator& sim, OverloadConfig config,
                               obs::Tracer* tracer)
    : sim_(sim), config_(std::move(config)), tracer_(tracer) {
  config_.validate();
  tokens_ = config_.admission.token_burst;
}

OverloadReport OverloadRunner::run(
    std::span<const workload::TimedRequest> arrivals) {
  TAPESIM_ASSERT_MSG(
      std::is_sorted(arrivals.begin(), arrivals.end(),
                     [](const workload::TimedRequest& a,
                        const workload::TimedRequest& b) {
                       return a.time < b.time;
                     }),
      "arrival stream must be sorted by time");
  OverloadReport report;
  report.outcomes.reserve(arrivals.size());
  sim::Engine& eng = sim_.engine();
  const Seconds start =
      arrivals.empty() ? eng.now() : std::max(eng.now(), arrivals.front().time);

  std::size_t next = 0;
  while (next < arrivals.size() || !queue_.empty()) {
    // Everything that has arrived by now goes through admission, in
    // arrival order (the lag only means decisions for requests that
    // landed during the previous service are taken when the server
    // frees; the token bucket still refills on arrival timestamps).
    while (next < arrivals.size() && arrivals[next].time <= eng.now()) {
      admit(arrivals[next++], report);
    }
    cull_expired(report);
    if (queue_.empty()) {
      if (next >= arrivals.size()) break;
      // Idle until the next arrival. Advancing the clock through the
      // engine lets pending background work (repairs, watches) use the
      // gap; pressure is off because nothing foreground waits.
      if (config_.pause_repair_under_pressure) {
        sim_.set_overload_pressure(false);
      }
      eng.schedule_at(
          std::max(eng.now(), arrivals[next].time), []() {}, "overload.idle");
      eng.run();
      continue;
    }
    serve(pick_next(), report);
  }
  sim_.set_overload_pressure(false);
  report.makespan = eng.now() > start ? eng.now() - start : Seconds{0.0};
  return report;
}

bool OverloadRunner::admit(const workload::TimedRequest& arrival,
                           OverloadReport& report) {
  const workload::Workload& wl = sim_.workload();
  Queued q;
  q.arrival = arrival;
  q.bytes = wl.request_bytes(arrival.request);
  q.deadline_abs = config_.deadline.enabled
                       ? arrival.time + config_.deadline.deadline_for(q.bytes)
                       : Seconds{metrics::RequestOutcome::kNoDeadline};
  q.seq = next_seq_++;

  const AdmissionPolicy& adm = config_.admission;
  if (config_.shed != ShedPolicy::kNone) {
    // Arrival governor: a token bucket refilled by arrival timestamps.
    if (adm.token_rate > 0.0) {
      tokens_ = std::min(
          adm.token_burst,
          tokens_ + (arrival.time - last_refill_).count() * adm.token_rate);
      last_refill_ = arrival.time;
      if (tokens_ < 1.0) {
        ++report.shed_admit;
        record_shed(q, "token bucket", report);
        return false;
      }
      tokens_ -= 1.0;
    }

    // Per-library byte bound: no single robot/drive pool may accumulate
    // an unbounded backlog of queued demand.
    if (adm.max_queued_bytes_per_library.count() > 0) {
      std::unordered_map<std::uint32_t, Bytes> per_lib;
      for (const ObjectId o : wl.request(arrival.request).objects) {
        if (const catalog::ObjectRecord* rec = sim_.catalog().lookup(o)) {
          per_lib[rec->library.value()] += rec->size;
        }
      }
      q.lib_bytes.assign(per_lib.begin(), per_lib.end());
      std::sort(q.lib_bytes.begin(), q.lib_bytes.end());
      for (const auto& [lib, bytes] : q.lib_bytes) {
        if (queued_lib_bytes_[lib] + bytes > adm.max_queued_bytes_per_library) {
          ++report.shed_admit;
          record_shed(q, "library byte bound", report);
          return false;
        }
      }
    }

    // Depth bound.
    if (adm.max_queue_depth > 0 && queue_.size() >= adm.max_queue_depth) {
      if (config_.shed == ShedPolicy::kTailDrop) {
        ++report.shed_admit;
        record_shed(q, "queue full", report);
        return false;
      }
      // Priority shedding: the lowest-priority latest-deadline entry —
      // arrival included — makes room for the rest.
      const auto worse = [](const Queued& a, const Queued& b) {
        if (a.arrival.priority != b.arrival.priority) {
          return a.arrival.priority < b.arrival.priority;
        }
        if (a.deadline_abs != b.deadline_abs) {
          return a.deadline_abs > b.deadline_abs;
        }
        return a.seq > b.seq;
      };
      std::size_t victim = queue_.size();  // sentinel: the arrival itself
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        if (victim == queue_.size() ? worse(queue_[i], q)
                                    : worse(queue_[i], queue_[victim])) {
          victim = i;
        }
      }
      if (victim == queue_.size()) {
        ++report.shed_admit;
        record_shed(q, "queue full", report);
        return false;
      }
      const Queued evicted = queue_[victim];
      remove_queued(victim);
      ++report.shed_evicted;
      record_shed(evicted, "evicted by higher priority", report);
    }

    // Reject-hopeless: if the predicted backlog already puts this
    // request's completion past its deadline, rejecting now is kinder
    // than an inevitable mid-service expiry.
    if (adm.reject_hopeless && config_.deadline.enabled &&
        estimator_.observations() > 0) {
      const Seconds begin = std::max(sim_.engine().now(), arrival.time);
      const Seconds finish =
          begin + backlog_estimate() + estimator_.estimate(q.bytes);
      if (finish > q.deadline_abs) {
        ++report.shed_hopeless;
        record_shed(q, "deadline unreachable", report);
        return false;
      }
    }
  }

  for (const auto& [lib, bytes] : q.lib_bytes) {
    queued_lib_bytes_[lib] += bytes;
  }
  queue_.push_back(std::move(q));
  return true;
}

void OverloadRunner::cull_expired(OverloadReport& report) {
  if (!config_.deadline.enabled) return;
  const Seconds now = sim_.engine().now();
  for (std::size_t i = 0; i < queue_.size();) {
    if (queue_[i].deadline_abs > now) {
      ++i;
      continue;
    }
    const Queued q = queue_[i];
    remove_queued(i);
    // The simulator's dead-on-arrival path does the accounting: every
    // byte expired, no engine work.
    RequestContext ctx;
    ctx.deadline = q.deadline_abs;
    ctx.priority = q.arrival.priority;
    metrics::RequestOutcome outcome = sim_.run_request(q.arrival.request, ctx);
    ++report.expired_in_queue;
    report.metrics.add(outcome);
    const Seconds waited = q.deadline_abs - q.arrival.time;
    report.admitted_sojourn.add(waited.count());
    if (tracer_ != nullptr) {
      tracer_->record(obs::Span{obs::Track::kOverload,
                                q.arrival.request.value(), obs::Phase::kExpired,
                                q.arrival.time, q.deadline_abs,
                                q.arrival.request, TapeId{},
                                "expired in queue"});
      tracer_->registry().counter("overload.expired").inc();
    }
    report.outcomes.push_back(
        OverloadOutcome{std::move(outcome), q.arrival.time, waited, waited});
  }
}

std::size_t OverloadRunner::pick_next() const {
  TAPESIM_ASSERT(!queue_.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    const Queued& a = queue_[i];
    const Queued& b = queue_[best];
    if (config_.shed == ShedPolicy::kPriority) {
      if (a.arrival.priority != b.arrival.priority) {
        if (a.arrival.priority > b.arrival.priority) best = i;
        continue;
      }
      if (a.deadline_abs != b.deadline_abs) {
        if (a.deadline_abs < b.deadline_abs) best = i;
        continue;
      }
    }
    if (a.seq < b.seq) best = i;
  }
  return best;
}

void OverloadRunner::serve(std::size_t index, OverloadReport& report) {
  const Queued q = queue_[index];
  remove_queued(index);
  // Pressure reflects backlog beyond the request now starting; repairs
  // stay paused while foreground work waits behind this one.
  if (config_.pause_repair_under_pressure) {
    sim_.set_overload_pressure(!queue_.empty());
  }
  sim::Engine& eng = sim_.engine();
  const Seconds begin = eng.now();
  const Seconds wait = begin - q.arrival.time;
  RequestContext ctx;
  ctx.deadline = q.deadline_abs;
  ctx.priority = q.arrival.priority;
  metrics::RequestOutcome outcome = sim_.run_request(q.arrival.request, ctx);
  // The estimator learns true server occupancy (doomed drains included):
  // that is what delays the next queued request.
  estimator_.observe(outcome.bytes, eng.now() - begin);
  if (sim_.governor().enabled()) {
    // Metastable-detector feeds: goodput is deadline-met bytes, and the
    // backlog behind the request that just finished is the queue-depth
    // signal that separates collapse from an idle lull.
    sim_.governor().note_served(
        outcome.met_deadline() ? outcome.bytes_served() : Bytes{}, eng.now());
    sim_.governor().note_queue_depth(queue_.size(), eng.now());
  }
  report.metrics.add(outcome);

  const bool expired =
      outcome.status == metrics::RequestStatus::kDeadlineExpired;
  OverloadOutcome rec;
  rec.arrival = q.arrival.time;
  rec.queue_wait = wait;
  rec.sojourn = expired ? q.deadline_abs - q.arrival.time
                        : begin + outcome.response - q.arrival.time;
  report.admitted_sojourn.add(rec.sojourn.count());
  report.queue_waits.add(wait.count());
  if (expired) {
    ++report.expired_in_service;
  } else if (outcome.status == metrics::RequestStatus::kServed) {
    ++report.served;
  }
  if (tracer_ != nullptr) {
    if (expired) {
      tracer_->registry().counter("overload.expired").inc();
    } else if (outcome.status == metrics::RequestStatus::kServed) {
      tracer_->registry().counter("overload.served").inc();
    }
  }
  rec.outcome = std::move(outcome);
  report.outcomes.push_back(std::move(rec));
}

void OverloadRunner::record_shed(const Queued& q, const char* reason,
                                 OverloadReport& report) {
  metrics::RequestOutcome outcome;
  outcome.request = q.arrival.request;
  outcome.bytes = q.bytes;
  outcome.status = metrics::RequestStatus::kShed;
  outcome.priority = q.arrival.priority;
  if (config_.deadline.enabled) {
    outcome.deadline = q.deadline_abs - q.arrival.time;
  }
  report.metrics.add(outcome);
  if (tracer_ != nullptr) {
    tracer_->record(obs::Span{obs::Track::kOverload, q.arrival.request.value(),
                              obs::Phase::kShed, q.arrival.time, q.arrival.time,
                              q.arrival.request, TapeId{}, reason});
    tracer_->registry().counter("overload.shed").inc();
  }
  report.outcomes.push_back(
      OverloadOutcome{std::move(outcome), q.arrival.time, Seconds{}, Seconds{}});
}

void OverloadRunner::remove_queued(std::size_t index) {
  TAPESIM_ASSERT(index < queue_.size());
  for (const auto& [lib, bytes] : queue_[index].lib_bytes) {
    queued_lib_bytes_[lib] -= bytes;
  }
  queue_.erase(queue_.begin() +
               static_cast<std::ptrdiff_t>(index));
}

Seconds OverloadRunner::backlog_estimate() const {
  Seconds total{};
  for (const Queued& q : queue_) total += estimator_.estimate(q.bytes);
  return total;
}

}  // namespace tapesim::sched
