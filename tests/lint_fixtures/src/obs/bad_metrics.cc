// Fixture: metric-contract violations — a counter/histogram collision, a
// name breaking the lowercase-dotted convention, a read no code emits, and
// a read only a tool's helper names (tools/reads_metrics.cc).
// Line numbers are asserted by tests/lint_test.cc.
#include <cstdint>

namespace dm::obs {

struct FixtureMetrics {
  std::uint64_t& counter(const char* name);
  void histogram(const char* name, double v);
  std::uint64_t counter_value(const char* name) const;
};

void emit_some(FixtureMetrics& m) {
  ++m.counter("fix.requests");
  m.histogram("fix.requests", 1.0);        // line 17: collides with counter
  ++m.counter("fix.BadName");              // line 18: naming convention
  (void)m.counter_value("fix.missing");    // line 19: orphaned read
  (void)m.counter_value("fix.tool_only");  // line 20: tools emit nothing
}

}  // namespace dm::obs
