#include "obs/span.h"

#include <algorithm>
#include <cstdio>

#include "common/units.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_hub.h"
#include "sim/simulator.h"

namespace dm::obs {
namespace {

// Nanoseconds rendered as microseconds with fixed three decimals — the
// trace-event format's ts/dur unit, exact for integer ns inputs.
std::string micros_fixed3(SimTime ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

// A trace accumulating more spans than this is a runaway (or a span leak);
// excess spans are counted as dropped rather than growing without bound.
constexpr std::size_t kMaxSpansPerTrace = 512;

}  // namespace

std::string span_trace_label(std::uint64_t trace) {
  const std::uint64_t origin_plus_one = trace >> 32;
  const std::uint64_t seq = trace & 0xffffffffULL;
  if (origin_plus_one == 0) return "-:" + std::to_string(seq);
  return std::to_string(origin_plus_one - 1) + ":" + std::to_string(seq);
}

std::uint64_t SpanTracer::begin_span(std::uint64_t trace, std::uint32_t node,
                                     std::string_view subsystem,
                                     std::string_view name) {
  if (trace == 0) {
    ++spans_dropped_;
    return 0;
  }
  TraceRec& rec = traces_[trace];
  if (rec.spans.size() >= kMaxSpansPerTrace) {
    ++spans_dropped_;
    return 0;
  }
  Span span;
  span.id = next_span_++;
  span.trace = trace;
  span.node = node;
  span.subsystem = std::string(subsystem);
  span.name = std::string(name);
  span.begin = sim_.now();
  if (!rec.open_stack.empty()) {
    span.parent = rec.open_stack.back();
    for (auto it = rec.spans.rbegin(); it != rec.spans.rend(); ++it) {
      if (it->id == span.parent) {
        span.depth = it->depth + 1;
        break;
      }
    }
  }
  rec.open_stack.push_back(span.id);
  open_index_[span.id] = trace;
  rec.spans.push_back(std::move(span));
  ++spans_recorded_;
  return rec.spans.back().id;
}

void SpanTracer::end_span(std::uint64_t span) {
  if (span == 0) return;
  const auto idx = open_index_.find(span);
  if (idx == open_index_.end()) return;  // unknown or already closed
  const std::uint64_t trace = idx->second;
  open_index_.erase(idx);
  TraceRec& rec = traces_[trace];
  for (auto it = rec.open_stack.rbegin(); it != rec.open_stack.rend(); ++it) {
    if (*it == span) {
      rec.open_stack.erase(std::next(it).base());
      break;
    }
  }
  for (auto it = rec.spans.rbegin(); it != rec.spans.rend(); ++it) {
    if (it->id != span) continue;
    it->end = sim_.now();
    if (recorder_ != nullptr) recorder_->record_span(*it);
    break;
  }
  if (rec.open_stack.empty() && !rec.completed_listed) {
    rec.completed_listed = true;
    completed_order_.push_back(trace);
    if (completed_order_.size() > kMaxTraces) evict_oldest_completed();
  }
}

void SpanTracer::event(std::uint64_t trace, std::uint32_t node,
                       std::string_view category, std::string_view detail) {
  if (recorder_ != nullptr)
    recorder_->record_event(sim_.now(), trace, node, category, detail);
}

void SpanTracer::evict_oldest_completed() {
  // Oldest completed trace goes first; a trace re-opened after completion
  // (async tail spans) is pushed back instead of dropped mid-flight.
  std::size_t attempts = completed_order_.size();
  while (attempts-- > 0 && !completed_order_.empty()) {
    const std::uint64_t trace = completed_order_.front();
    completed_order_.pop_front();
    const auto it = traces_.find(trace);
    if (it == traces_.end()) continue;  // already drained
    if (!it->second.open_stack.empty()) {
      completed_order_.push_back(trace);
      continue;
    }
    traces_.erase(it);
    ++traces_evicted_;
    return;
  }
}

std::vector<std::uint64_t> SpanTracer::completed_traces() const {
  std::vector<std::uint64_t> out;
  for (const auto& [trace, rec] : traces_)
    if (rec.completed_listed && rec.open_stack.empty()) out.push_back(trace);
  return out;
}

const std::vector<SpanTracer::Span>* SpanTracer::spans(
    std::uint64_t trace) const {
  const auto it = traces_.find(trace);
  return it == traces_.end() ? nullptr : &it->second.spans;
}

SpanTracer::Breakdown SpanTracer::breakdown(std::uint64_t trace) const {
  Breakdown out;
  out.trace = trace;
  const auto it = traces_.find(trace);
  if (it == traces_.end()) return out;

  std::vector<const Span*> closed;
  std::vector<SimTime> bounds;
  for (const Span& span : it->second.spans) {
    if (span.end < span.begin) continue;  // still open
    closed.push_back(&span);
    bounds.push_back(span.begin);
    bounds.push_back(span.end);
    ++out.span_counts[span.subsystem + "." + span.name];
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  // Sweep the elementary intervals: each instant covered by a root span is
  // attributed to the single deepest active span (ties: latest begin, then
  // highest id), so components sum exactly to the root coverage.
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    const SimTime t1 = bounds[i];
    const SimTime t2 = bounds[i + 1];
    const Span* best = nullptr;
    bool root_active = false;
    for (const Span* span : closed) {
      if (span->begin > t1 || span->end < t2) continue;
      if (span->depth == 0) root_active = true;
      if (best == nullptr || span->depth > best->depth ||
          (span->depth == best->depth &&
           (span->begin > best->begin ||
            (span->begin == best->begin && span->id > best->id)))) {
        best = span;
      }
    }
    if (!root_active || best == nullptr) continue;
    const SimTime width = t2 - t1;
    out.total += width;
    out.by_subsystem[best->subsystem] += width;
    out.by_site[best->subsystem + "." + best->name] += width;
  }
  return out;
}

std::vector<SpanTracer::Completed> SpanTracer::drain_completed() {
  std::vector<Completed> out;
  std::deque<std::uint64_t> keep;
  for (const std::uint64_t trace : completed_order_) {
    const auto it = traces_.find(trace);
    if (it == traces_.end()) continue;
    if (!it->second.open_stack.empty()) {
      keep.push_back(trace);  // re-opened after completion: not done yet
      continue;
    }
    Completed done;
    done.trace = trace;
    for (const Span& span : it->second.spans) {
      if (span.depth == 0) {
        done.root_name = span.name;
        break;
      }
    }
    done.breakdown = breakdown(trace);
    out.push_back(std::move(done));
    traces_.erase(it);
  }
  completed_order_ = std::move(keep);
  return out;
}

std::string SpanTracer::chrome_trace_json() const {
  std::vector<const Span*> all;
  for (const auto& [trace, rec] : traces_)
    for (const Span& span : rec.spans)
      if (span.end >= span.begin) all.push_back(&span);
  std::sort(all.begin(), all.end(), [](const Span* a, const Span* b) {
    if (a->begin != b->begin) return a->begin < b->begin;
    if (a->trace != b->trace) return a->trace < b->trace;
    return a->id < b->id;
  });

  std::string out = "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [";
  bool first = true;
  for (const Span* span : all) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + json_escape(span->name) + "\", \"cat\": \"" +
           json_escape(span->subsystem) + "\", \"ph\": \"X\", \"ts\": " +
           micros_fixed3(span->begin) + ", \"dur\": " +
           micros_fixed3(span->end - span->begin) + ", \"pid\": " +
           std::to_string(span->node) + ", \"tid\": " +
           std::to_string(span->trace & 0xffffffffULL) +
           ", \"args\": {\"trace\": \"" + span_trace_label(span->trace) +
           "\", \"span\": " + std::to_string(span->id) +
           ", \"parent\": " + std::to_string(span->parent) + "}}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

void SpanTracer::clear() {
  traces_.clear();
  open_index_.clear();
  completed_order_.clear();
}

}  // namespace dm::obs
