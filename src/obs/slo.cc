#include "obs/slo.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"

namespace dm::obs {
namespace {

constexpr SimTime kEvaluationPeriod = 100 * kMilli;
// Consecutive violating ticks before an alert pages.
constexpr std::uint64_t kBurnThreshold = 3;
constexpr std::size_t kMaxAlerts = 4096;  // retained alert history

std::string fixed3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// Dotted-path match: `metric` must align on component boundaries of the
// merged name, so "swap.fault_ns" matches "node.3.swap.fault_ns.backend"
// but not "node.3.xswap.fault_nsy".
bool path_matches(const std::string& full, const std::string& metric) {
  if (full == metric) return true;
  if (full.size() > metric.size() + 1 &&
      full.compare(full.size() - metric.size() - 1, metric.size() + 1,
                   "." + metric) == 0) {
    return true;
  }
  if (full.size() > metric.size() + 1 &&
      full.compare(0, metric.size() + 1, metric + ".") == 0) {
    return true;
  }
  return full.find("." + metric + ".") != std::string::npos;
}

// Decimal with optional duration suffix; plain numbers pass through
// unscaled (they are already ns, a fraction, or a count).
bool parse_scaled(const std::string& token, double* out) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str()) return false;
  const std::string_view suffix(end);
  double scale = 0.0;
  if (suffix.empty() || suffix == "ns") {
    scale = 1.0;
  } else if (suffix == "us") {
    scale = 1e3;
  } else if (suffix == "ms") {
    scale = 1e6;
  } else if (suffix == "s") {
    scale = 1e9;
  } else {
    return false;
  }
  *out = v * scale;
  return true;
}

std::vector<std::string> split_words(std::string_view text) {
  std::vector<std::string> out;
  std::string word;
  for (const char c : text) {
    if (c == ' ' || c == '\t') {
      if (!word.empty()) out.push_back(std::move(word));
      word.clear();
    } else {
      word += c;
    }
  }
  if (!word.empty()) out.push_back(std::move(word));
  return out;
}

bool known_agg(const std::string& agg) {
  return agg == "p50" || agg == "p90" || agg == "p99" || agg == "mean" ||
         agg == "max" || agg == "count" || agg == "rate" || agg == "ratio";
}

}  // namespace

Status SloMonitor::add_spec(std::string_view text) {
  std::vector<std::string> words = split_words(text);
  Spec spec;
  if (!words.empty() && words.front().size() > 1 && words.front().back() == ':') {
    spec.name = words.front().substr(0, words.front().size() - 1);
    words.erase(words.begin());
  } else {
    spec.name = "slo" + std::to_string(specs_.size());
  }
  const std::string grammar =
      "slo spec: [name:] agg metric < threshold over window | "
      "[name:] ratio counterA counterB < fraction over window";
  if (words.empty() || !known_agg(words[0]))
    return InvalidArgumentError(grammar + " (bad aggregate in '" +
                                std::string(text) + "')");
  spec.agg = words[0];
  const std::size_t operands = spec.agg == "ratio" ? 2 : 1;
  // agg + operands + "<" + threshold + "over" + window
  if (words.size() != operands + 5)
    return InvalidArgumentError(grammar + " (wrong arity in '" +
                                std::string(text) + "')");
  spec.metric = words[1];
  if (operands == 2) spec.metric_b = words[2];
  if (words[operands + 1] != "<")
    return InvalidArgumentError(grammar + " (only '<' objectives supported)");
  if (!parse_scaled(words[operands + 2], &spec.threshold))
    return InvalidArgumentError(grammar + " (bad threshold '" +
                                words[operands + 2] + "')");
  if (words[operands + 3] != "over")
    return InvalidArgumentError(grammar + " (expected 'over')");
  double window_ns = 0.0;
  if (!parse_scaled(words[operands + 4], &window_ns) || window_ns <= 0.0)
    return InvalidArgumentError(grammar + " (bad window '" +
                                words[operands + 4] + "')");
  spec.window = static_cast<SimTime>(window_ns);
  specs_.push_back(std::move(spec));
  return Status::Ok();
}

SloMonitor::SloMonitor(sim::Simulator& sim, const MetricsHub& hub)
    : sim_(sim), hub_(hub),
      evaluations_(sim, kEvaluationPeriod,
                   sim::PeriodicTask::First::kAfterPeriod,
                   [this]() { evaluate_now(); }) {}

void SloMonitor::evaluate_now() {
  if (specs_.empty()) return;
  const MetricsRegistry merged = hub_.merged();
  ++metrics_.counter("slo.evaluations");
  for (Spec& spec : specs_) evaluate_spec(spec, merged);
}

void SloMonitor::evaluate_spec(Spec& spec, const MetricsRegistry& merged) {
  Window snap;
  snap.at = sim_.now();
  const bool counter_spec =
      spec.agg == "ratio" || spec.agg == "count" || spec.agg == "rate";
  if (counter_spec) {
    for (const auto& [name, value] : merged.counters()) {
      if (path_matches(name, spec.metric)) snap.counter_a += value;
      if (!spec.metric_b.empty() && path_matches(name, spec.metric_b))
        snap.counter_b += value;
    }
  } else {
    for (const auto& [name, hist] : merged.histograms())
      if (path_matches(name, spec.metric)) snap.hist.merge(hist);
  }

  // Newest snapshot at least one full window old is the baseline; abstain
  // until one exists so alerting is deterministic from t=0.
  const Window* base = nullptr;
  for (const Window& w : spec.history) {
    if (w.at <= snap.at - spec.window)
      base = &w;
    else
      break;
  }
  bool evaluated = false;
  double value = 0.0;
  if (base != nullptr) {
    if (spec.agg == "ratio") {
      const std::uint64_t da = snap.counter_a - base->counter_a;
      const std::uint64_t db = snap.counter_b - base->counter_b;
      if (db > 0) {
        value = static_cast<double>(da) / static_cast<double>(db);
        evaluated = true;
      }
    } else if (spec.agg == "count") {
      value = static_cast<double>(snap.counter_a - base->counter_a);
      evaluated = true;
    } else if (spec.agg == "rate") {
      const SimTime elapsed = snap.at - base->at;
      if (elapsed > 0) {
        value = static_cast<double>(snap.counter_a - base->counter_a) /
                (static_cast<double>(elapsed) / 1e9);
        evaluated = true;
      }
    } else {
      const Histogram delta = snap.hist.delta_since(base->hist);
      if (delta.count() > 0) {
        if (spec.agg == "p50") value = static_cast<double>(delta.percentile(0.50));
        if (spec.agg == "p90") value = static_cast<double>(delta.percentile(0.90));
        if (spec.agg == "p99") value = static_cast<double>(delta.percentile(0.99));
        if (spec.agg == "mean") value = delta.mean();
        if (spec.agg == "max") value = static_cast<double>(delta.max());
        evaluated = true;
      }
    }
  }

  spec.history.push_back(std::move(snap));
  while (spec.history.size() > 1 &&
         spec.history[1].at <= sim_.now() - spec.window) {
    spec.history.pop_front();
  }

  if (!evaluated) {
    spec.streak = 0;
    return;
  }
  if (value < spec.threshold) {
    spec.streak = 0;
    return;
  }
  ++spec.streak;
  Alert alert;
  alert.at = sim_.now();
  alert.spec = spec.name;
  alert.value = value;
  alert.threshold = spec.threshold;
  alert.streak = spec.streak;
  alert.page = spec.streak >= kBurnThreshold;
  ++metrics_.counter("slo.violations");
  ++metrics_.counter("slo.violations." + spec.name);
  if (alert.page) ++metrics_.counter("slo.pages");
  if (alerts_.size() < kMaxAlerts) alerts_.push_back(alert);
  if (alert_hook_) alert_hook_(alert);
}

std::string SloMonitor::alerts_text() const {
  std::string out;
  for (const Alert& alert : alerts_) {
    out += "[t=" + std::to_string(alert.at) + "ns] " + alert.spec +
           " value=" + fixed3(alert.value) + " objective<" +
           fixed3(alert.threshold) + " burn=" + std::to_string(alert.streak);
    if (alert.page) out += " PAGE";
    out += "\n";
  }
  return out;
}

}  // namespace dm::obs
