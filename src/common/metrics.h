// Named-counter/histogram registry.
//
// Each subsystem owns a MetricsRegistry (no global state), which benches and
// tests read to assert behavioural properties ("zero disk I/O in FS-SM
// mode", "3 replica writes per put").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/histogram.h"

namespace dm {

// A metric is never erased, and the maps never move one, so a reference
// from counter() or histogram() stays good for the registry's lifetime: a
// hot path may look its metric up on first use and keep the reference.
class MetricsRegistry {
 public:
  // Returns the counter by name, creating it at zero on first use.
  std::uint64_t& counter(std::string_view name) {
    return counters_[std::string(name)];
  }
  std::uint64_t counter_value(std::string_view name) const {
    auto it = counters_.find(std::string(name));
    return it == counters_.end() ? 0 : it->second;
  }

  Histogram& histogram(std::string_view name) {
    return histograms_[std::string(name)];
  }
  const Histogram* find_histogram(std::string_view name) const {
    auto it = histograms_.find(std::string(name));
    return it == histograms_.end() ? nullptr : &it->second;
  }

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  // "name=value" lines, sorted by name, then one
  // "name: count=N mean=M p50=A p99=B max=C" line per histogram (raw
  // nanosecond values); for debug dumps.
  std::string to_string() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace dm
