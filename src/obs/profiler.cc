#include "obs/profiler.h"

#include "obs/span.h"

namespace dm::obs {

void Profiler::ingest(const SpanTracer::Completed& done) {
  ++traces_;
  attributed_ns_ += done.breakdown.total;
  if (!done.root_name.empty()) {
    Root& root = roots_[done.root_name];
    ++root.count;
    root.total_ns += done.breakdown.total;
  }
  for (const auto& [subsystem, ns] : done.breakdown.by_subsystem)
    by_subsystem_[subsystem] += ns;
  for (const auto& [site, ns] : done.breakdown.by_site) sites_[site].self_ns += ns;
  for (const auto& [site, n] : done.breakdown.span_counts)
    sites_[site].calls += n;
}

std::size_t Profiler::ingest_all(SpanTracer& tracer) {
  const auto completed = tracer.drain_completed();
  for (const SpanTracer::Completed& done : completed) ingest(done);
  return completed.size();
}

}  // namespace dm::obs
