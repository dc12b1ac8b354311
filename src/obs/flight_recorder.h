// Flight recorder: bounded per-node rings of recently retired spans and
// point events, dumped as flight_<node>.json on chaos crash, invariant
// failure, or explicit dm_top request.
//
// The recorder is passive storage — the SpanTracer forwards spans as they
// close (set_flight_recorder), fault hooks call dump_* when something goes
// wrong. Dumps are deterministic for a seeded run: ring order is completion
// order, timestamps are virtual, and the JSON uses no wall clock.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/units.h"
#include "obs/span.h"
#include "sim/simulator.h"

namespace dm::obs {

class FlightRecorder {
 public:
  struct Record {
    SimTime begin = 0;
    SimTime end = 0;  // == begin for point events
    std::uint64_t trace = 0;
    std::uint32_t node = 0;
    std::string kind;       // "span" or "event"
    std::string subsystem;  // span subsystem / event category
    std::string name;       // span name / event detail
  };

  // Records each node's ring keeps before dropping its oldest.
  static constexpr std::size_t kCapacityPerNode = 256;

  explicit FlightRecorder(sim::Simulator& sim) : sim_(sim) {}

  void record_span(const SpanTracer::Span& span);
  void record_event(SimTime at, std::uint64_t trace, std::uint32_t node,
                    std::string_view category, std::string_view detail);

  // One node's ring as JSON, oldest record first.
  std::string dump_json(std::uint32_t node, std::string_view reason) const;
  // Writes dump_json(node) to "<dir>/flight_<node>.json".
  Status dump_to_file(std::string_view dir, std::uint32_t node,
                      std::string_view reason) const;
  // Dumps every node with at least one record; returns files written.
  std::size_t dump_all(std::string_view dir, std::string_view reason) const;

  std::size_t record_count(std::uint32_t node) const;
  std::uint64_t dropped(std::uint32_t node) const;
  std::size_t node_count() const noexcept { return rings_.size(); }
  void clear() { rings_.clear(); }

 private:
  struct Ring {
    std::deque<Record> records;
    std::uint64_t dropped = 0;
  };

  void push(std::uint32_t node, Record record);

  sim::Simulator& sim_;
  std::map<std::uint32_t, Ring> rings_;
};

}  // namespace dm::obs
