#include "sim/scenario.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/units.h"

namespace dm::sim {
namespace {

// Access skew within a tenant's working set (YCSB-style hot keys).
constexpr double kZipfTheta = 0.99;
constexpr double kWriteFraction = 0.35;

}  // namespace

ScenarioEngine::ScenarioEngine(Config config)
    : config_(config), rng_(mix64(config.seed ^ 0x5ce9a210ULL)),
      node_zipf_(config.node_count == 0 ? 1 : config.node_count,
                 config.node_skew) {}

void ScenarioEngine::start(SimTime now) {
  start_ = now;
  horizon_ = now + config_.duration;
  started_ = true;
  // Initial population exists at the start instant; the arrival clock for
  // the rest begins ticking immediately after.
  next_arrival_ =
      now + static_cast<SimTime>(rng_.exponential(
                static_cast<double>(config_.mean_arrival_gap)));
}

double ScenarioEngine::load_multiplier(SimTime now) const {
  // Triangular wave through [1 - depth, 1 + depth]: rises over the first
  // half-period, falls over the second. Pure function of virtual time.
  const SimTime period = kDiurnalPeriod;
  const SimTime phase = (now - start_) % period;
  const double unit =
      phase * 2 < period
          ? static_cast<double>(phase) * 2.0 / static_cast<double>(period)
          : 2.0 - static_cast<double>(phase) * 2.0 / static_cast<double>(period);
  return 1.0 - kDiurnalDepth + 2.0 * kDiurnalDepth * unit;
}

SimTime ScenarioEngine::draw_op_gap(SimTime now) {
  const double gap = rng_.exponential(
      static_cast<double>(config_.mean_op_gap) / load_multiplier(now));
  return std::max<SimTime>(1, static_cast<SimTime>(gap));
}

ScenarioEngine::Op ScenarioEngine::spawn_tenant(SimTime at) {
  const TenantId id = next_tenant_++;
  Tenant t;
  t.home = static_cast<NodeRef>(node_zipf_.next(rng_));
  // Log-uniform working-set size: skewed small with a heavy tail, so one
  // scenario mixes light tenants with a few elephants.
  const double lo = std::log2(static_cast<double>(config_.min_working_set));
  const double hi = std::log2(static_cast<double>(
      std::max(config_.max_working_set, config_.min_working_set)));
  t.working_set = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::exp2(lo + (hi - lo) * rng_.next_double())));
  t.zipf = std::make_unique<ZipfGenerator>(t.working_set, kZipfTheta);
  t.retire_at = std::min<SimTime>(
      horizon_, at + std::max<SimTime>(1, static_cast<SimTime>(rng_.exponential(
                         static_cast<double>(config_.mean_lifetime)))));
  t.next_op = at + draw_op_gap(at);
  t.active = true;
  ++spawned_;
  ++active_;

  Op op;
  op.kind = Op::Kind::kSpawn;
  op.at = at;
  op.tenant = id;
  op.home = t.home;
  op.working_set = t.working_set;
  tenants_.emplace(id, std::move(t));
  return op;
}

ScenarioEngine::Op ScenarioEngine::next() {
  if (!started_) return Op{};

  // Earliest pending event across: the arrival clock, every active
  // tenant's next op, every active tenant's retirement. Ties resolve
  // retire < access (a retiring tenant issues no further ops at the same
  // instant) and lowest tenant id first; the arrival clock loses ties so
  // existing tenants quiesce before new ones appear at the same instant.
  constexpr int kRetire = 0, kAccess = 1, kArrive = 2;
  SimTime best_at = horizon_;
  int best_kind = -1;
  TenantId best_tenant = 0;
  for (const auto& [id, t] : tenants_) {
    if (!t.active) continue;
    if (t.retire_at <= best_at &&
        (best_kind == -1 || t.retire_at < best_at)) {
      best_at = t.retire_at;
      best_kind = kRetire;
      best_tenant = id;
    }
    if (t.next_op < t.retire_at &&
        (best_kind == -1 || t.next_op < best_at)) {
      best_at = t.next_op;
      best_kind = kAccess;
      best_tenant = id;
    }
  }
  if (spawned_ < config_.max_tenants) {
    const SimTime arrive_at =
        spawned_ < config_.initial_tenants ? start_ : next_arrival_;
    if (arrive_at <= horizon_ && (best_kind == -1 || arrive_at < best_at)) {
      best_at = arrive_at;
      best_kind = kArrive;
    }
  }

  if (best_kind == kArrive) {
    if (spawned_ >= config_.initial_tenants)
      next_arrival_ =
          best_at + std::max<SimTime>(1, static_cast<SimTime>(rng_.exponential(
                        static_cast<double>(config_.mean_arrival_gap))));
    return spawn_tenant(best_at);
  }
  if (best_kind == kRetire) {
    Tenant& t = tenants_[best_tenant];
    t.active = false;
    ++retired_;
    --active_;
    Op op;
    op.kind = Op::Kind::kRetire;
    op.at = best_at;
    op.tenant = best_tenant;
    return op;
  }
  if (best_kind == kAccess) {
    Tenant& t = tenants_[best_tenant];
    Op op;
    op.kind = Op::Kind::kAccess;
    op.at = best_at;
    op.tenant = best_tenant;
    op.index = t.zipf->next(rng_);
    op.write = rng_.bernoulli(kWriteFraction);
    t.next_op = best_at + draw_op_gap(best_at);
    return op;
  }

  // Horizon passed and no tenant active: the scenario is exhausted.
  Op op;
  op.kind = Op::Kind::kDone;
  op.at = horizon_;
  return op;
}

}  // namespace dm::sim
