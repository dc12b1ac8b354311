// Virtual-time profiler: attributes simulated nanoseconds and event-loop
// throughput to (subsystem, method) sites.
//
// Feed it completed traces drained from a SpanTracer: each trace's
// critical-path breakdown is folded into per-subsystem and per-site
// accumulators, and root spans (e.g. "swap.fault") are tallied so callers
// can report ns-per-fault. The event-loop side reads
// Simulator::executed_events() deltas over the profiled window. The
// perfbench driver folds its fault traces here to report each layer's
// share of the mean fault.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/units.h"
#include "obs/span.h"
#include "sim/simulator.h"

namespace dm::obs {

class Profiler {
 public:
  struct Site {
    std::uint64_t calls = 0;  // closed spans at this site
    SimTime self_ns = 0;      // critical-path self time
  };
  struct Root {
    std::uint64_t count = 0;  // completed traces rooted at this span name
    SimTime total_ns = 0;     // sum of root coverage (end-to-end time)
  };

  explicit Profiler(sim::Simulator& sim) : sim_(sim) { begin_window(); }

  // Resets the event/virtual-time baseline (not the attribution tallies).
  void begin_window() {
    window_start_ns_ = sim_.now();
    window_start_events_ = sim_.executed_events();
  }

  void ingest(const SpanTracer::Completed& done);
  // Drains `tracer` and ingests everything it completed. Returns the number
  // of traces consumed.
  std::size_t ingest_all(SpanTracer& tracer);

  std::uint64_t traces() const noexcept { return traces_; }
  SimTime attributed_ns() const noexcept { return attributed_ns_; }
  const std::map<std::string, SimTime>& by_subsystem() const noexcept {
    return by_subsystem_;
  }
  const std::map<std::string, Site>& sites() const noexcept { return sites_; }
  const std::map<std::string, Root>& roots() const noexcept { return roots_; }

  SimTime window_ns() const { return sim_.now() - window_start_ns_; }
  std::uint64_t window_events() const {
    return sim_.executed_events() - window_start_events_;
  }

 private:
  sim::Simulator& sim_;
  SimTime window_start_ns_ = 0;
  std::uint64_t window_start_events_ = 0;
  std::uint64_t traces_ = 0;
  SimTime attributed_ns_ = 0;
  std::map<std::string, SimTime> by_subsystem_;
  std::map<std::string, Site> sites_;
  std::map<std::string, Root> roots_;
};

}  // namespace dm::obs
