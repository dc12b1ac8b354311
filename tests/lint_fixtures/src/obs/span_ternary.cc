// Fixture: a span whose name is a ternary. Each arm is a span name under
// the subsystem literal: the registry lists "fix.fix.hot" and
// "fix.fix.cold", and no joined "fix.hot.fix.cold".
#include <cstdint>

namespace dm::obs {

struct FixtureSpans {
  std::uint64_t begin_span(std::uint64_t trace, const char* subsystem,
                           const char* name);
  void end_span(std::uint64_t span);
};

void probe(FixtureSpans& spans, std::uint64_t trace, bool hot) {
  const std::uint64_t span =
      spans.begin_span(trace, "fix", hot ? "fix.hot" : "fix.cold");
  spans.end_span(span);
}

}  // namespace dm::obs
