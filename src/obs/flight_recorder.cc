#include "obs/flight_recorder.h"

#include <fstream>

#include "common/status.h"
#include "common/units.h"
#include "obs/metrics_hub.h"
#include "obs/span.h"

namespace dm::obs {

void FlightRecorder::push(std::uint32_t node, Record record) {
  Ring& ring = rings_[node];
  if (ring.records.size() >= kCapacityPerNode) {
    ring.records.pop_front();
    ++ring.dropped;
  }
  ring.records.push_back(std::move(record));
}

void FlightRecorder::record_span(const SpanTracer::Span& span) {
  Record record;
  record.begin = span.begin;
  record.end = span.end;
  record.trace = span.trace;
  record.node = span.node;
  record.kind = "span";
  record.subsystem = span.subsystem;
  record.name = span.name;
  push(span.node, std::move(record));
}

void FlightRecorder::record_event(SimTime at, std::uint64_t trace,
                                  std::uint32_t node,
                                  std::string_view category,
                                  std::string_view detail) {
  Record record;
  record.begin = at;
  record.end = at;
  record.trace = trace;
  record.node = node;
  record.kind = "event";
  record.subsystem = std::string(category);
  record.name = std::string(detail);
  push(node, std::move(record));
}

std::string FlightRecorder::dump_json(std::uint32_t node,
                                      std::string_view reason) const {
  const auto it = rings_.find(node);
  const Ring empty;
  const Ring& ring = it == rings_.end() ? empty : it->second;
  std::string out = "{\n";
  out += "  \"tool\": \"dm_flight\",\n";
  out += "  \"node\": " + std::to_string(node) + ",\n";
  out += "  \"dumped_at_ns\": " + std::to_string(sim_.now()) + ",\n";
  out += "  \"reason\": \"" + json_escape(reason) + "\",\n";
  out += "  \"dropped\": " + std::to_string(ring.dropped) + ",\n";
  out += "  \"records\": [";
  bool first = true;
  for (const Record& record : ring.records) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"kind\": \"" + record.kind + "\", \"trace\": \"" +
           span_trace_label(record.trace) + "\", \"node\": " +
           std::to_string(record.node) + ", \"begin_ns\": " +
           std::to_string(record.begin) + ", \"end_ns\": " +
           std::to_string(record.end) + ", \"subsystem\": \"" +
           json_escape(record.subsystem) + "\", \"name\": \"" +
           json_escape(record.name) + "\"}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

Status FlightRecorder::dump_to_file(std::string_view dir, std::uint32_t node,
                                    std::string_view reason) const {
  std::string path = std::string(dir);
  if (!path.empty() && path.back() != '/') path += '/';
  path += "flight_" + std::to_string(node) + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) return UnavailableError("flight recorder: cannot open " + path);
  out << dump_json(node, reason);
  out.close();
  if (!out) return DataLossError("flight recorder: short write to " + path);
  return Status::Ok();
}

std::size_t FlightRecorder::dump_all(std::string_view dir,
                                     std::string_view reason) const {
  std::size_t written = 0;
  for (const auto& [node, ring] : rings_) {
    if (ring.records.empty()) continue;
    if (dump_to_file(dir, node, reason).ok()) ++written;
  }
  return written;
}

std::size_t FlightRecorder::record_count(std::uint32_t node) const {
  const auto it = rings_.find(node);
  return it == rings_.end() ? 0 : it->second.records.size();
}

std::uint64_t FlightRecorder::dropped(std::uint32_t node) const {
  const auto it = rings_.find(node);
  return it == rings_.end() ? 0 : it->second.dropped;
}

}  // namespace dm::obs
