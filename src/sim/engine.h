// Simulation engine: event queue + seeded RNG + run-control.
//
// Thin composition layer every experiment drives: it owns the clock/event
// queue and the root random stream, offers periodic-task scheduling (used
// e.g. for tsdb compaction), and guards against runaway simulations with an
// event budget.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace venn::sim {

class Engine {
 public:
  explicit Engine(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] SimTime now() const { return queue_.now(); }
  EventQueue& queue() { return queue_; }
  Rng& rng() { return rng_; }

  EventHandle at(SimTime t, EventFn fn) {
    return queue_.schedule(t, std::move(fn));
  }
  EventHandle after(SimTime delay, EventFn fn) {
    return queue_.schedule_after(delay, std::move(fn));
  }

  // Invoke `fn` every `period` starting at now() + period, until the engine
  // stops or `fn` returns false.
  void every(SimTime period, std::function<bool()> fn);

  // Drive a lazy event stream: `fn` fires at `first`, then at whatever time
  // it returns, until it returns nullopt. Times in the past are clamped to
  // now(). The workload generators feed the queue through this — one
  // pending event per stream instead of a materialized event list.
  void stream(std::optional<SimTime> first,
              std::function<std::optional<SimTime>()> fn);

  // Run until the queue drains, `t_max` is reached, or the event budget is
  // exhausted (throws std::runtime_error on budget exhaustion — a drained
  // budget almost always indicates a scheduling livelock bug).
  void run_until(SimTime t_max);

  void set_event_budget(std::uint64_t budget) { event_budget_ = budget; }
  [[nodiscard]] std::uint64_t events_executed() const {
    return queue_.executed();
  }

 private:
  void stream_tick(SimTime at,
                   std::shared_ptr<std::function<std::optional<SimTime>()>> fn);
  void every_tick(SimTime period, std::shared_ptr<std::function<bool()>> fn);

  EventQueue queue_;
  Rng rng_;
  std::uint64_t event_budget_ = 200'000'000;
};

}  // namespace venn::sim
