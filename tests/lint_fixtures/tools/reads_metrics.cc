// Fixture: a tool reads metrics through its own helper named counter().
// Tools only read metrics, so this call emits nothing: the registry credits
// no metric to tools/, and src/obs/bad_metrics.cc's read of
// "fix.tool_only" stays orphaned.
#include <cstdint>

namespace dm::tools {

struct Snapshot {
  std::uint64_t counter_value(const char* name) const;
};

std::uint64_t show(const Snapshot& snap) {
  auto counter = [&](const char* name) { return snap.counter_value(name); };
  return counter("fix.tool_only");
}

}  // namespace dm::tools
