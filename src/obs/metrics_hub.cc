#include "obs/metrics_hub.h"

#include <cstdio>

#include "common/metrics.h"

namespace dm::obs {
namespace {

// Fixed-precision double formatting: locale-independent and deterministic
// (snapshot_json must be byte-identical across identical seeded runs).
std::string fixed3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string prom_name(std::string_view name) {
  std::string out = "dm_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const unsigned char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void MetricsHub::add(std::string prefix, const MetricsRegistry* registry) {
  if (registry == nullptr) return;
  sources_[std::move(prefix)].push_back(registry);
}

void MetricsHub::remove(std::string_view prefix) {
  sources_.erase(std::string(prefix));
}

std::size_t MetricsHub::source_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [prefix, registries] : sources_) n += registries.size();
  return n;
}

MetricsRegistry MetricsHub::merged() const {
  MetricsRegistry out;
  for (const auto& [prefix, registries] : sources_) {
    for (const MetricsRegistry* registry : registries) {
      for (const auto& [name, value] : registry->counters())
        out.counter(prefix + "." + name) += value;
      for (const auto& [name, histogram] : registry->histograms())
        out.histogram(prefix + "." + name).merge(histogram);
    }
  }
  return out;
}

std::string MetricsHub::snapshot_json() const {
  const MetricsRegistry snapshot = merged();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {\"count\": " +
           std::to_string(h.count()) + ", \"mean\": " + fixed3(h.mean()) +
           ", \"min\": " + std::to_string(h.min()) +
           ", \"p50\": " + std::to_string(h.p50()) +
           ", \"p99\": " + std::to_string(h.p99()) +
           ", \"max\": " + std::to_string(h.max()) + "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string MetricsHub::prometheus_text() const {
  const MetricsRegistry snapshot = merged();
  std::string out;
  for (const auto& [name, value] : snapshot.counters()) {
    const std::string prom = prom_name(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms()) {
    const std::string prom = prom_name(name);
    out += "# TYPE " + prom + " summary\n";
    out += prom + "{quantile=\"0.5\"} " + std::to_string(h.p50()) + "\n";
    out += prom + "{quantile=\"0.99\"} " + std::to_string(h.p99()) + "\n";
    out += prom + "_sum " + std::to_string(h.sum()) + "\n";
    out += prom + "_count " + std::to_string(h.count()) + "\n";
  }
  return out;
}

}  // namespace dm::obs
