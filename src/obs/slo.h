// Declarative SLO engine over MetricsHub windows.
//
// Specs are one-line strings (see DESIGN.md §11 for the grammar):
//
//   "fault_p99: p99 swap.fault_ns.backend < 2ms over 500ms"
//   "degraded: ratio swap.wb.degraded_batches swap.out_batches < 0.05 over 1s"
//
//   spec   := [name ":"] agg metric "<" threshold "over" window
//           | [name ":"] "ratio" counterA counterB "<" fraction "over" window
//   agg    := p50 | p90 | p99 | mean | max | count | rate
//   number := decimal with optional ns/us/ms/s suffix (durations)
//
// Metric names resolve against the hub's *merged* snapshot by dotted-path
// match: "swap.fault_ns.backend" matches "node.3.swap.fault_ns.backend" on
// every node, and matching histograms merge (counters sum) before the
// aggregate is taken — so one spec covers the whole cluster.
//
// Evaluation ticks run in virtual time. Each tick takes a snapshot per
// spec; the evaluated value is the aggregate of the *window delta*
// (Histogram::delta_since / counter subtraction) between now and the newest
// snapshot at least `window` old. Until a full window of history exists the
// spec abstains — no alert can fire before time window has elapsed, which
// keeps alert streams deterministic from t=0.
//
// Ticks run every 100 ms of virtual time. A violating tick raises an Alert
// carrying the consecutive-violation streak; once the streak reaches the
// burn threshold of 3 ticks the alert is flagged `page` — a deterministic
// stand-in for multi-window burn-rate paging. The first 4096 alerts are
// retained. Alerts feed dm_top, tests, and (via set_alert_hook) the flight
// recorder's invariant-failure dump path.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "obs/metrics_hub.h"
#include "sim/periodic_task.h"
#include "sim/simulator.h"

namespace dm::obs {

class SloMonitor {
 public:
  struct Alert {
    SimTime at = 0;
    std::string spec;  // spec name
    double value = 0.0;
    double threshold = 0.0;
    std::uint64_t streak = 1;  // consecutive violating evaluations
    bool page = false;         // streak reached the burn threshold
  };

  SloMonitor(sim::Simulator& sim, const MetricsHub& hub);

  // Parses and registers one spec; InvalidArgument on grammar errors.
  Status add_spec(std::string_view text);
  std::size_t spec_count() const noexcept { return specs_.size(); }

  // Periodic evaluation in virtual time, first one period after start;
  // start replaces any prior schedule.
  void start() {
    evaluations_.stop();
    evaluations_.start();
  }
  void stop() { evaluations_.stop(); }
  // One evaluation pass at the current virtual time (also used by ticks).
  void evaluate_now();

  const std::vector<Alert>& alerts() const noexcept { return alerts_; }
  // Deterministic one-line-per-alert rendering for dm_top.
  std::string alerts_text() const;
  // slo.evaluations / slo.violations / slo.violations.<name> / slo.pages —
  // registerable with the hub like any subsystem registry.
  MetricsRegistry& metrics() noexcept { return metrics_; }
  void set_alert_hook(std::function<void(const Alert&)> hook) {
    alert_hook_ = std::move(hook);
  }

 private:
  struct Window {
    // Counter pair (ratio/count/rate) or merged histogram, per snapshot.
    SimTime at = 0;
    Histogram hist;
    std::uint64_t counter_a = 0;
    std::uint64_t counter_b = 0;
  };

  struct Spec {
    std::string name;
    std::string agg;       // p50/p90/p99/mean/max/count/rate/ratio
    std::string metric;    // histogram or counter path
    std::string metric_b;  // ratio denominator
    double threshold = 0.0;
    SimTime window = 0;
    std::deque<Window> history;
    std::uint64_t streak = 0;
  };

  void evaluate_spec(Spec& spec, const MetricsRegistry& merged);

  sim::Simulator& sim_;
  const MetricsHub& hub_;
  std::vector<Spec> specs_;
  std::vector<Alert> alerts_;
  MetricsRegistry metrics_;
  std::function<void(const Alert&)> alert_hook_;
  sim::PeriodicTask evaluations_;
};

}  // namespace dm::obs
