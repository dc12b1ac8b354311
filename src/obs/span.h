// Causal span tracer: the concrete sim::SpanSink.
//
// A span is a virtual-time [begin, end) interval on one node attributed to a
// (subsystem, name) site and tied to a net-layer trace id, so one swap fault
// shows up as a tree: swap.fault on the faulting node, rpc.* under it,
// fabric.* under those, and the remote dispatch span on the serving node.
//
// Parenting is inferred from nesting: a span's parent is the innermost span
// of the same trace still open when it begins. That matches the synchronous
// drain-until style of the fault path and degrades gracefully for
// concurrent siblings (replica fan-out), which simply stack.
//
// Critical-path accounting (breakdown()) attributes every instant covered
// by a trace's root spans to exactly one span — the deepest open one, ties
// broken by latest begin then highest id — so the per-subsystem components
// sum exactly to the root span durations in integer nanoseconds. That is
// the property `perfbench/run.py --selftest` checks against the measured
// end-to-end swap.fault_ns.
//
// Exports are deterministic: ordered containers, fixed-precision doubles,
// no wall clock. chrome_trace_json() is loadable by Perfetto / chrome://tracing.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "sim/simulator.h"
#include "sim/span_sink.h"

namespace dm::obs {

class FlightRecorder;

class SpanTracer final : public sim::SpanSink {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t trace = 0;
    std::uint64_t parent = 0;  // span id, 0 = root
    std::uint32_t node = 0;
    std::uint32_t depth = 0;
    std::string subsystem;
    std::string name;
    SimTime begin = 0;
    SimTime end = -1;  // -1 while open
  };

  // Self-time attribution for one trace; values are integer ns and the
  // by_subsystem values sum exactly to `total`.
  struct Breakdown {
    std::uint64_t trace = 0;
    SimTime total = 0;  // union of the trace's root span intervals
    std::map<std::string, SimTime> by_subsystem;
    std::map<std::string, SimTime> by_site;  // "<subsystem>.<name>"
    std::map<std::string, std::uint64_t> span_counts;  // closed spans per site
  };

  struct Completed {
    std::uint64_t trace = 0;
    std::string root_name;  // name of the trace's first root span
    Breakdown breakdown;
  };

  // Completed traces retained before FIFO drop.
  static constexpr std::size_t kMaxTraces = 4096;

  explicit SpanTracer(sim::Simulator& sim) : sim_(sim) {}

  // sim::SpanSink. begin_span drops untraced (trace == 0) spans.
  std::uint64_t begin_span(std::uint64_t trace, std::uint32_t node,
                           std::string_view subsystem,
                           std::string_view name) override;
  void end_span(std::uint64_t span) override;
  void event(std::uint64_t trace, std::uint32_t node,
             std::string_view category, std::string_view detail) override;

  // Closed spans and events are forwarded to the recorder's per-node rings
  // as they retire (not owned; may be null).
  void set_flight_recorder(FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

  // Traces whose every span has closed, ascending trace id.
  std::vector<std::uint64_t> completed_traces() const;
  // Spans of one retained trace in begin order (null if unknown).
  const std::vector<Span>* spans(std::uint64_t trace) const;
  Breakdown breakdown(std::uint64_t trace) const;
  // Removes and returns all fully-closed traces in completion order, with
  // their breakdowns — the profiler's ingestion feed.
  std::vector<Completed> drain_completed();

  // Chrome trace-event JSON ("X" complete events, ts/dur in µs with ns
  // precision, pid = node, tid = trace seq) over every retained closed span.
  std::string chrome_trace_json() const;

  std::uint64_t spans_recorded() const noexcept { return spans_recorded_; }
  std::uint64_t spans_dropped() const noexcept { return spans_dropped_; }
  std::uint64_t traces_evicted() const noexcept { return traces_evicted_; }
  void clear();

 private:
  struct TraceRec {
    std::vector<Span> spans;
    std::vector<std::uint64_t> open_stack;  // open span ids, begin order
    bool completed_listed = false;
  };

  void evict_oldest_completed();

  sim::Simulator& sim_;
  FlightRecorder* recorder_ = nullptr;
  std::map<std::uint64_t, TraceRec> traces_;
  std::map<std::uint64_t, std::uint64_t> open_index_;  // span id -> trace
  std::deque<std::uint64_t> completed_order_;
  std::uint64_t next_span_ = 1;
  std::uint64_t spans_recorded_ = 0;
  std::uint64_t spans_dropped_ = 0;
  std::uint64_t traces_evicted_ = 0;
};

// "origin:seq" rendering of a net::TraceId (decoded locally: the obs layer
// sits below net in the dependency DAG and cannot include net/rdma.h).
std::string span_trace_label(std::uint64_t trace);

}  // namespace dm::obs
