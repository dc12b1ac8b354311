// Abstract causal-span sink.
//
// Instrumented subsystems (RPC, fabric, node service, swap) open and close
// spans against this interface without depending on the obs layer; the
// concrete implementation is obs::SpanTracer. Trace ids are the net-layer
// TraceId values carried on the RPC wire, passed here as plain integers so
// this header stays at the sim layer of the dependency DAG.
//
// Contract: begin_span/end_span are passive — they may read the simulator
// clock but must never schedule events, so attaching a sink cannot perturb
// the event order of a seeded run.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>

namespace dm::sim {

class SpanSink {
 public:
  virtual ~SpanSink() = default;

  // Opens a span on `node` attributed to (subsystem, name), causally tied to
  // `trace` (a net::TraceId; 0 = untraced, the sink may drop it). Returns an
  // opaque span handle; 0 means the span was dropped and must not be ended.
  //
  // dm-lint: allow(span-unclosed) — this is the interface declaration.
  virtual std::uint64_t begin_span(std::uint64_t trace, std::uint32_t node,
                                   std::string_view subsystem,
                                   std::string_view name) = 0;
  virtual void end_span(std::uint64_t span) = 0;

  // Point-in-time annotation on `trace` (flight-recorder fodder).
  virtual void event(std::uint64_t trace, std::uint32_t node,
                     std::string_view category, std::string_view detail) = 0;
};

// RAII guard: opens a span on construction (if the sink is non-null and the
// trace is real) and closes it on destruction or explicit close(). This is
// the form the dm_lint `span-unclosed` rule expects at instrumentation
// sites.
class SpanScope {
 public:
  SpanScope(SpanSink* sink, std::uint64_t trace, std::uint32_t node,
            std::string_view subsystem, std::string_view name)
      : sink_(sink) {
    if (sink_ != nullptr && trace != 0) {
      // Guard owns the pair; every exit closes it. dm-lint: allow(span-unclosed)
      span_ = sink_->begin_span(trace, node, subsystem, name);
    }
  }
  ~SpanScope() { close(); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  // Ends the span now (idempotent); lets callers close before trailing work
  // that should not be attributed to the span.
  void close() {
    if (sink_ != nullptr && span_ != 0) sink_->end_span(span_);
    span_ = 0;
  }

  bool active() const noexcept { return span_ != 0; }

 private:
  SpanSink* sink_ = nullptr;
  std::uint64_t span_ = 0;
};

// The async counterpart of SpanScope, for a span that runs from posting an
// operation to its completion: opens the span now and returns `done`
// wrapped to close it, on the sink it was opened on, when the completion
// fires (before `done` runs; a null `done` still closes it). With a null
// sink or an untraced id no span opens and `done` comes back as it was.
// `Done` is a std::function type.
template <typename Done>
Done span_completion(SpanSink* sink, std::uint64_t trace, std::uint32_t node,
                     std::string_view subsystem, std::string_view name,
                     Done done) {
  if (sink == nullptr || trace == 0) return done;
  return [sink, span = sink->begin_span(trace, node, subsystem, name),
          inner = std::move(done)](auto&&... args) {
    if (span != 0) sink->end_span(span);
    if (inner) inner(std::forward<decltype(args)>(args)...);
  };
}

}  // namespace dm::sim
