// Periodic background work in virtual time.
//
// Every control-plane loop (heartbeats, elections, candidate refresh, the
// eviction monitor, repair scans, SLO evaluation, regrouping, harvesting)
// is a PeriodicTask: the task owns the re-scheduling, the owner writes only
// the tick, and two rules hold for all of them. A tick queued before
// stop(), or before the task is destroyed, does nothing. A start() inside
// one period begins exactly one chain.
//
// A tick completes when it returns or, in the asynchronous form, when it
// calls the `done` it is handed. The next tick is armed one period after
// the completion, where the completion runs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "common/units.h"
#include "sim/simulator.h"

namespace dm::sim {

class PeriodicTask {
 public:
  using Done = std::function<void()>;
  // When a chain's first tick runs: inside start(), or one period later.
  enum class First { kAtStart, kAfterPeriod };

  PeriodicTask(Simulator& sim, SimTime period, First first,
               std::function<void()> tick)
      : PeriodicTask(sim, period, first,
                     [tick = std::move(tick)](const Done& done) {
                       tick();
                       done();
                     }) {}
  // A `done` that runs after stop() arms nothing.
  PeriodicTask(Simulator& sim, SimTime period, First first,
               std::function<void(Done done)> tick)
      : state_(std::make_shared<State>(
            State{sim, period, first, std::move(tick)})) {}
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  // Begins a chain; a no-op while one runs.
  void start() {
    if (state_->running) return;
    state_->running = true;
    if (state_->first == First::kAtStart)
      fire(state_, state_->chain);
    else
      arm(state_, state_->chain);
  }
  bool running() const noexcept { return state_->running; }
  void stop() noexcept {
    if (!state_->running) return;
    state_->running = false;
    ++state_->chain;  // orphans what the stopped chain has queued
  }

 private:
  struct State {
    Simulator& sim;
    SimTime period;
    First first;
    std::function<void(Done)> tick;
    bool running = false;
    std::uint64_t chain = 0;
  };

  // Queued ticks and completions hold the state weakly and carry their
  // chain, so they do nothing once the task is gone or stopped.
  static void fire(const std::shared_ptr<State>& state, std::uint64_t chain) {
    state->tick([weak = std::weak_ptr<State>(state), chain]() {
      if (auto s = weak.lock(); s != nullptr && s->chain == chain)
        arm(s, chain);
    });
  }
  static void arm(const std::shared_ptr<State>& state, std::uint64_t chain) {
    state->sim.schedule_after(
        state->period, [weak = std::weak_ptr<State>(state), chain]() {
          if (auto s = weak.lock(); s != nullptr && s->chain == chain)
            fire(s, chain);
        });
  }

  std::shared_ptr<State> state_;
};

}  // namespace dm::sim
