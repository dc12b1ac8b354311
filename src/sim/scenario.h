// Declarative, seeded cluster-scale traffic scenarios (paper §I, §IV).
//
// A ScenarioEngine generates the multi-tenant situation the paper's
// imbalance argument starts from: tenants (VMs / containers / executors)
// arrive and depart over time, each with its own skewed working set, and
// the aggregate load breathes on a diurnal curve. The engine is a *pure
// script generator*: it knows nothing about nodes, KV stores or swap
// paths. Callers pull one Op at a time, advance the simulator to the op's
// virtual timestamp, and execute it against whatever stack is under test
// (an LDMC put/get, a KvStore set/get, a SwapManager touch). That keeps
// the engine below every other layer (it depends only on common/) and lets
// drivers use the synchronous *_sync APIs between ops, exactly like the
// existing soak tests.
//
// Determinism: every draw — arrival gaps, homes, working-set sizes, zipf
// ranks, lifetimes, op pacing — comes from one seeded Rng consumed in a
// fixed order by next(). Two engines with the same Config produce
// byte-identical op streams; the diurnal modulation is a pure function of
// virtual time (triangular wave, no trig, no floating-point accumulation
// across ops).
//
// Tenant homes are zipf-skewed toward low node ids, so large clusters
// reproduce the paper's §I situation: a few overloaded machines while the
// rest sit idle. The placement/harvest/migration machinery under test is
// what has to absorb that skew.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace dm::sim {

class ScenarioEngine {
 public:
  // Tenant / node ids are plain integers here (sim/ sits below net/ and
  // cluster/); NodeRef matches net::NodeId by value.
  using TenantId = std::uint32_t;
  using NodeRef = std::uint32_t;

  struct Config {
    std::uint64_t seed = 1;
    std::uint32_t node_count = 4;
    // Population: `initial_tenants` exist at time start(); further arrivals
    // follow an exponential clock with `mean_arrival_gap` until
    // `max_tenants` have ever been spawned. Each tenant departs after an
    // exponential lifetime (clamped to the scenario horizon).
    std::uint32_t initial_tenants = 4;
    std::uint32_t max_tenants = 16;
    SimTime mean_arrival_gap = 500 * kMilli;
    SimTime mean_lifetime = 10 * kSecond;
    // Working sets: per-tenant size in pages/keys, drawn log-uniformly from
    // [min_working_set, max_working_set]. Accesses within a working set are
    // zipf(0.99)-skewed (YCSB-style hot keys); 35% of them are writes.
    std::uint64_t min_working_set = 32;
    std::uint64_t max_working_set = 256;
    // Tenant homes are zipf(node_skew)-distributed over [0, node_count):
    // low node ids collect a disproportionate share of tenants — the
    // paper's "busy machines next to idle ones". 0 = uniform.
    double node_skew = 0.6;
    // Pacing: per-tenant think time between ops is exponential around
    // `mean_op_gap`, divided by the diurnal multiplier.
    SimTime mean_op_gap = 2 * kMilli;
    // Scenario horizon, relative to start(). No op is generated past it and
    // all tenants retire by it.
    SimTime duration = 30 * kSecond;
  };

  struct Op {
    enum class Kind {
      kSpawn,   // tenant appears: allocate its state on `home`
      kAccess,  // tenant touches `index` (< working_set) in its set
      kRetire,  // tenant departs: tear its state down
      kDone,    // scenario exhausted (at == horizon)
    };
    Kind kind = Kind::kDone;
    SimTime at = 0;  // absolute virtual time the op is due
    TenantId tenant = 0;
    NodeRef home = 0;             // kSpawn only
    std::uint64_t working_set = 0;  // kSpawn only
    std::uint64_t index = 0;        // kAccess only
    bool write = false;             // kAccess only
  };

  // Diurnal load curve: the op-rate multiplier follows a triangular wave
  // through [1 - kDiurnalDepth, 1 + kDiurnalDepth] with this period.
  static constexpr double kDiurnalDepth = 0.5;
  static constexpr SimTime kDiurnalPeriod = 8 * kSecond;

  explicit ScenarioEngine(Config config);

  // Anchors the scenario clock; ops are generated in [now, now + duration].
  void start(SimTime now);

  // Returns the next op in non-decreasing time order. After the horizon,
  // emits one kRetire per still-active tenant (at the horizon), then kDone
  // forever. Callers typically: run_until(op.at), execute, repeat.
  Op next();

  // Diurnal op-rate multiplier at absolute time `now` (exposed for tests).
  double load_multiplier(SimTime now) const;

  // --- accounting -----------------------------------------------------------
  std::uint64_t tenants_spawned() const noexcept { return spawned_; }
  std::uint64_t tenants_retired() const noexcept { return retired_; }
  std::uint32_t active_tenants() const noexcept { return active_; }

 private:
  struct Tenant {
    NodeRef home = 0;
    std::uint64_t working_set = 0;
    SimTime next_op = 0;
    SimTime retire_at = 0;
    bool active = false;
    std::unique_ptr<ZipfGenerator> zipf;
  };

  Op spawn_tenant(SimTime at);
  SimTime draw_op_gap(SimTime now);

  Config config_;
  Rng rng_;
  ZipfGenerator node_zipf_;
  SimTime start_ = 0;
  SimTime horizon_ = 0;
  SimTime next_arrival_ = 0;
  bool started_ = false;
  // Ordered by tenant id so the earliest-deadline scan is deterministic.
  std::map<TenantId, Tenant> tenants_;
  TenantId next_tenant_ = 0;
  std::uint64_t spawned_ = 0;
  std::uint64_t retired_ = 0;
  std::uint32_t active_ = 0;
};

}  // namespace dm::sim
