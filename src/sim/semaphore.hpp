// A counting FIFO semaphore for the discrete-event kernel.
//
// Generalizes Resource to `capacity` concurrent holders; used to model the
// staging disk array as a bounded set of full-rate streaming slots
// (assumption 6 of the paper says the disk is never the bottleneck — the
// semaphore lets an experiment relax that and measure the consequences).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "sim/action.hpp"
#include "sim/engine.hpp"

namespace tapesim::sim {

class Semaphore {
 public:
  /// The kind every grant event carries.
  static constexpr const char* kGrantKind = "semaphore.grant";

  /// `capacity` == 0 means unlimited (every acquire granted immediately).
  Semaphore(Engine& engine, std::string name, std::uint32_t capacity)
      : engine_(&engine), name_(std::move(name)), capacity_(capacity) {}

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  /// Requests a slot; `on_granted` runs (via an immediate event) once one
  /// is free. Each grant must be release()d exactly once.
  void acquire(Action on_granted);
  void release();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint32_t in_use() const { return in_use_; }
  [[nodiscard]] std::size_t queue_length() const { return waiting_.size(); }
  [[nodiscard]] bool unlimited() const { return capacity_ == 0; }
  [[nodiscard]] std::uint64_t grants() const { return grants_; }
  /// Cumulative waiter-seconds spent queued (contention metric).
  [[nodiscard]] Seconds wait_time() const { return wait_time_; }

 private:
  void grant(Action fn);

  Engine* engine_;
  std::string name_;
  std::uint32_t capacity_;
  std::uint32_t in_use_ = 0;
  std::deque<std::pair<Seconds, Action>> waiting_;
  std::uint64_t grants_ = 0;
  Seconds wait_time_{};
};

}  // namespace tapesim::sim
