// Deterministic discrete-event simulator.
//
// The whole library runs on virtual time: components schedule callbacks at
// virtual-nanosecond timestamps and the Simulator executes them in
// (time, insertion-sequence) order, so identical inputs and seeds produce
// bit-identical runs. The engine is single-threaded; "concurrency" in the
// modeled cluster comes from interleaved events, exactly as in the classic
// network-simulator tradition.
//
// Blocking-style code (e.g. a page fault that must wait for a remote read)
// uses run_until_complete(): post the asynchronous operation, then drain
// events until its completion fires.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace dm::sim {

class Simulator {
 public:
  using Callback = std::function<void()>;

  SimTime now() const noexcept { return now_; }

  // Schedules fn at absolute virtual time `when` (>= now).
  void schedule_at(SimTime when, Callback fn) {
    assert(when >= now_);
    queue_.push_back(Event{when, next_seq_++, std::move(fn)});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
  }

  // Schedules fn `delay` nanoseconds from now.
  void schedule_after(SimTime delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  bool has_pending() const noexcept { return !queue_.empty(); }
  std::size_t pending_count() const noexcept { return queue_.size(); }

  // Runs a single event; returns false if none pending.
  bool step();

  // Runs until the queue is empty.
  void run();

  // Runs events with timestamp <= deadline, then advances now to deadline.
  void run_until(SimTime deadline);

  // Runs until `flag` becomes true. Returns false if events ran dry first
  // (deadlock in the modeled system — callers treat this as a lost
  // completion) or if virtual time passes `deadline` (guards against
  // self-perpetuating background work, e.g. heartbeats, masking a lost
  // completion). deadline < 0 means no deadline.
  bool run_until_flag(const bool& flag, SimTime deadline = -1);

  // The body of a synchronous wrapper: calls `post(done)`, then runs events
  // until `done` fires and returns the status it was given. `done` accepts
  // a status plus any trailing arguments, which it ignores. An error `post`
  // returns comes back at once; if the events run dry first the result is
  // a `lost_code` status carrying `lost` (a lost completion).
  template <typename Post>
  Status run_until_complete(Post&& post, StatusCode lost_code,
                            const char* lost) {
    bool completed = false;
    Status result;
    auto done = [&completed, &result](const Status& s, auto&&...) {
      result = s;
      completed = true;
    };
    if constexpr (std::is_void_v<decltype(post(done))>) {
      post(done);
    } else {
      Status posted = post(done);
      if (!posted.ok()) return posted;
    }
    if (!run_until_flag(completed)) return Status(lost_code, lost);
    return result;
  }

  std::uint64_t executed_events() const noexcept { return executed_; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  // A binary heap under Later (std::push_heap / std::pop_heap, as
  // std::priority_queue runs it), so step() can move the next event out.
  std::vector<Event> queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace dm::sim
