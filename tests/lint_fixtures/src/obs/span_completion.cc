// Fixture: spans closed by a later completion, no findings. The
// sim::span_completion call registers "fix.fix.landed"; the literal inside
// the completion it wraps is not a span name, so no "fix.fix.body". The raw
// begin_span hands its handle to a lambda in the same statement, which the
// span-unclosed rule counts as closed.
#include <cstdint>
#include <functional>
#include <utility>

#include "sim/span_sink.h"

namespace dm::obs {

using Done = std::function<void()>;

void note(const char* what);

Done traced(sim::SpanSink* sink, std::uint64_t trace) {
  return sim::span_completion(sink, trace, 0, "fix", "fix.landed",
                              Done([] { note("fix.body"); }));
}

Done handed_off(sim::SpanSink* sink, std::uint64_t trace, Done done) {
  return [sink, span = sink->begin_span(trace, 0, "fix", "fix.handoff"),
          done = std::move(done)]() {
    sink->end_span(span);
    done();
  };
}

}  // namespace dm::obs
