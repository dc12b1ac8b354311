#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/units.h"

namespace dm::sim {

bool Simulator::step() {
  if (queue_.empty()) return false;
  // The event is moved out of the heap before it runs, so the callback may
  // schedule further events (including at the same timestamp).
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  // schedule_at never queues an event in the past, and the clock only
  // moves to the next event or to a deadline short of it.
  assert(ev.when >= now_);
  now_ = ev.when;
  ++executed_;
  ev.fn();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(SimTime deadline) {
  while (!queue_.empty() && queue_.front().when <= deadline) step();
  if (now_ < deadline) now_ = deadline;
}

bool Simulator::run_until_flag(const bool& flag, SimTime deadline) {
  while (!flag) {
    if (deadline >= 0 && now_ > deadline) return false;
    if (!step()) return false;
  }
  return true;
}

}  // namespace dm::sim
