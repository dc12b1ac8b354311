// Cluster-wide metrics aggregation and export.
//
// Every subsystem owns its MetricsRegistry (no global state — see
// common/metrics.h); the MetricsHub is where an operator's view is
// assembled. Registries are registered under hierarchical prefixes
// ("node.3", "net"), and because subsystem metric names already carry
// their subsystem ("swap.fault_ns.backend", "rpc.rtt.heartbeat"), the
// merged names read naturally: "node.3.swap.fault_ns.backend".
//
// Exports are deterministic: all maps are ordered, doubles are printed
// with fixed precision, and no wall-clock time is consulted anywhere —
// two identically seeded runs produce byte-identical snapshot_json().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"

namespace dm::obs {

// RFC 8259 string escaping for the hand-rolled JSON exports (snapshots,
// span traces, flight dumps, bench JSON): a name or label with quotes or
// backslashes must not produce unparseable output.
std::string json_escape(std::string_view raw);

class MetricsHub {
 public:
  // Registers `registry` (not owned; must outlive the hub or be removed)
  // under `prefix`. Multiple registries may share one prefix — their
  // counters sum and their histograms merge, so a node's RPC endpoint,
  // service, and pools all fold into "node.<id>.*".
  void add(std::string prefix, const MetricsRegistry* registry);
  // Drops every registry registered under `prefix`.
  void remove(std::string_view prefix);
  std::size_t source_count() const noexcept;

  // Merged cluster snapshot: every counter/histogram re-keyed as
  // "<prefix>.<name>". A point-in-time copy — safe to keep after the
  // sources mutate.
  MetricsRegistry merged() const;

  // Machine-readable exports of the merged snapshot.
  // JSON: {"counters": {name: value...}, "histograms": {name: {count,
  // mean, min, p50, p99, max}...}} with sorted keys.
  std::string snapshot_json() const;
  // Prometheus text exposition: names sanitized to [a-zA-Z0-9_] with a
  // "dm_" namespace; histograms exported as summaries.
  std::string prometheus_text() const;

 private:
  std::map<std::string, std::vector<const MetricsRegistry*>> sources_;
};

}  // namespace dm::obs
