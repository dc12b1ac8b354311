// Unit tests for the discrete-event simulator and failure injector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/chaos_schedule.h"
#include "sim/scenario.h"
#include "sim/failure_injector.h"
#include "sim/latency_model.h"
#include "sim/periodic_task.h"
#include "sim/simulator.h"

namespace dm::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_FALSE(sim.has_pending());
}

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.schedule_at(100, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, CallbackMaySchedule) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] {
    ++fired;
    sim.schedule_after(5, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 15);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_TRUE(sim.has_pending());
}

TEST(SimulatorTest, RunUntilFlagStopsOnFlag) {
  Simulator sim;
  bool flag = false;
  sim.schedule_at(10, [&] { flag = true; });
  sim.schedule_at(1000, [] {});
  EXPECT_TRUE(sim.run_until_flag(flag));
  EXPECT_EQ(sim.now(), 10);
  EXPECT_TRUE(sim.has_pending());
}

TEST(SimulatorTest, RunUntilFlagReportsDryQueue) {
  Simulator sim;
  bool flag = false;
  sim.schedule_at(10, [] {});
  EXPECT_FALSE(sim.run_until_flag(flag));
}

TEST(SimulatorTest, RunUntilFlagHonorsDeadline) {
  Simulator sim;
  bool flag = false;
  // Self-perpetuating ticker that never sets the flag.
  std::function<void()> tick = [&] { sim.schedule_after(10, tick); };
  sim.schedule_after(10, tick);
  EXPECT_FALSE(sim.run_until_flag(flag, 500));
  EXPECT_GT(sim.now(), 400);
}

// Each event is moved out of the queue to run: neither scheduling nor
// stepping copies the callback or what it captures.
TEST(SimulatorTest, StepMovesEachEventOut) {
  struct Capture {
    int* copies;
    explicit Capture(int* counter) : copies(counter) {}
    Capture(const Capture& other) : copies(other.copies) { ++*copies; }
    Capture(Capture&&) noexcept = default;
  };
  Simulator sim;
  int copies = 0;
  int ran = 0;
  for (int i = 0; i < 8; ++i)
    sim.schedule_at(8 - i, [capture = Capture(&copies), &ran] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 8);
  EXPECT_EQ(copies, 0);
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(SimulatorTest, RunUntilCompleteReturnsTheCompletionStatus) {
  Simulator sim;
  sim.schedule_at(1000, [] {});  // later work stays queued
  const Status s = sim.run_until_complete(
      [&](auto done) {
        // Trailing completion arguments (a disk's completion time) are
        // ignored.
        sim.schedule_at(10, [done] { done(NotFoundError("gone"), 10); });
      },
      StatusCode::kInternal, "lost");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "gone");
  EXPECT_EQ(sim.now(), 10);
  EXPECT_TRUE(sim.has_pending());
}

TEST(SimulatorTest, RunUntilCompleteReturnsAPostTimeErrorAtOnce) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  const Status s = sim.run_until_complete(
      [](auto) { return InvalidArgumentError("bad offset"); },
      StatusCode::kInternal, "lost");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(SimulatorTest, RunUntilCompleteReturnsTheCallersStatusWhenEventsRunDry) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  const Status s = sim.run_until_complete([](auto) {}, StatusCode::kTimeout,
                                          "op lost completion");
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_EQ(s.message(), "op lost completion");
  EXPECT_EQ(sim.executed_events(), 1u);
}

// ---- periodic task -----------------------------------------------------------

TEST(PeriodicTaskTest, FirstTickAtStartOrOnePeriodLaterThenEveryPeriod) {
  Simulator sim;
  std::vector<SimTime> at_start;
  std::vector<SimTime> after_period;
  PeriodicTask now(sim, 100, PeriodicTask::First::kAtStart,
                   [&] { at_start.push_back(sim.now()); });
  PeriodicTask later(sim, 100, PeriodicTask::First::kAfterPeriod,
                     [&] { after_period.push_back(sim.now()); });
  sim.run_until(20);
  now.start();
  later.start();
  EXPECT_EQ(at_start, (std::vector<SimTime>{20}));  // inside start()
  later.start();  // no-op while the chain runs
  sim.run_until(350);
  EXPECT_EQ(at_start, (std::vector<SimTime>{20, 120, 220, 320}));
  EXPECT_EQ(after_period, (std::vector<SimTime>{120, 220, 320}));
}

TEST(PeriodicTaskTest, StopThenStartInsideOnePeriodLeavesOneChain) {
  for (const auto first :
       {PeriodicTask::First::kAtStart, PeriodicTask::First::kAfterPeriod}) {
    Simulator sim;
    std::vector<SimTime> ticks;
    PeriodicTask task(sim, 100, first, [&] { ticks.push_back(sim.now()); });
    task.start();
    sim.run_until(150);
    task.stop();
    task.start();  // the stopped chain's tick at 200 stays queued
    const std::size_t before = ticks.size();
    sim.run_until(1000);
    // One tick every period from the restart, not two.
    EXPECT_EQ(ticks.size() - before, 8u);
    EXPECT_EQ(ticks.back(), 950);
    task.stop();
    sim.run();
    EXPECT_EQ(ticks.back(), 950);
    EXPECT_FALSE(sim.has_pending());
  }
}

TEST(PeriodicTaskTest, DestroyedOwnerRunsNoQueuedTickOrCompletion) {
  // The ticks touch their owner, so a tick run after its destruction is a
  // heap-use-after-free under ASan.
  struct Owner {
    Owner(Simulator& sim, int& counter)
        : ticks(counter),
          task(sim, 100, PeriodicTask::First::kAtStart, [this] { ++ticks; }),
          async(sim, 100, PeriodicTask::First::kAfterPeriod,
                [this](PeriodicTask::Done done) {
                  ++ticks;
                  pending = std::move(done);
                }) {}
    int& ticks;
    PeriodicTask::Done pending;
    PeriodicTask task;
    PeriodicTask async;
  };
  Simulator sim;
  int ticks = 0;
  auto owner = std::make_unique<Owner>(sim, ticks);
  owner->task.start();
  owner->async.start();
  sim.run_until(150);  // task ticks at 0 and 100; async's tick at 100 waits
  EXPECT_EQ(ticks, 3);
  PeriodicTask::Done completion = owner->pending;
  owner.reset();  // task's tick at 200 is queued
  completion();   // the in-flight tick completes after its owner is gone
  sim.run();
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(sim.has_pending());
}

TEST(PeriodicTaskTest, AsyncTickRearmsOnePeriodAfterItsCompletion) {
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTask task(sim, 100, PeriodicTask::First::kAfterPeriod,
                    [&](PeriodicTask::Done done) {
                      ticks.push_back(sim.now());
                      sim.schedule_after(30, std::move(done));
                    });
  task.start();
  sim.run_until(370);
  EXPECT_EQ(ticks, (std::vector<SimTime>{100, 230, 360}));
  // The tick at 360 completes at 390, after stop(), and arms nothing.
  task.stop();
  sim.run();
  EXPECT_EQ(sim.now(), 390);
  EXPECT_EQ(ticks.size(), 3u);
}

// ---- latency model -----------------------------------------------------------

TEST(LatencyModelTest, CostScalesWithBytes) {
  CostModel rdma{1500, 6.0};
  const SimTime small = rdma.cost(64);
  const SimTime page = rdma.cost(4096);
  EXPECT_GT(page, small);
  EXPECT_GE(small, 1500);
}

TEST(LatencyModelTest, TierOrderingHolds) {
  LatencyModel m;
  const SimTime shm = m.shared_memory.cost(4096);
  const SimTime rdma = m.rdma.cost(4096);
  const SimTime disk = m.disk.seek_ns + m.disk.transfer(4096);
  EXPECT_LT(shm, rdma);
  EXPECT_LT(rdma, disk);
  // Paper-scale gaps: shm is ~an order of magnitude under RDMA, RDMA is
  // orders of magnitude under a random disk access.
  EXPECT_GT(rdma / shm, 3);
  EXPECT_GT(disk / rdma, 500);
}

TEST(LatencyModelTest, BatchingAmortizesOverhead) {
  LatencyModel m;
  // One 32 KiB message vs eight 4 KiB messages.
  const SimTime batched = m.rdma.cost(8 * 4096);
  const SimTime individual = 8 * m.rdma.cost(4096);
  EXPECT_LT(batched, individual);
}

// ---- failure injector -----------------------------------------------------------

TEST(FailureInjectorTest, OneShotFires) {
  Simulator sim;
  FailureInjector inject(sim);
  bool fired = false;
  inject.at(100, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 100);
}

TEST(FailureInjectorTest, OutageFailsThenRepairs) {
  Simulator sim;
  FailureInjector inject(sim);
  std::vector<std::pair<SimTime, bool>> events;
  inject.outage(100, 50, [&] { events.emplace_back(sim.now(), false); },
                [&] { events.emplace_back(sim.now(), true); });
  sim.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], (std::pair<SimTime, bool>{100, false}));
  EXPECT_EQ(events[1], (std::pair<SimTime, bool>{150, true}));
}

TEST(FailureInjectorTest, PoissonProducesEventsInWindow) {
  Simulator sim;
  FailureInjector inject(sim);
  Rng rng(3);
  int count = 0;
  SimTime last = 0;
  inject.poisson(rng, 0, 100000, 1000, [&] {
    ++count;
    EXPECT_GE(sim.now(), last);
    last = sim.now();
  });
  sim.run();
  // Mean interval 1000 over 100000 window: expect ~100 events.
  EXPECT_GT(count, 50);
  EXPECT_LT(count, 200);
  EXPECT_LT(last, 100000);
}

// Regression: the action used to be copied into every scheduled firing, so a
// mutable lambda carrying state (crash counters, toggles) saw a fresh copy
// of its initial state each time. The action must be shared.
TEST(FailureInjectorTest, PoissonSharesStatefulActionAcrossFirings) {
  Simulator sim;
  FailureInjector inject(sim);
  Rng rng(7);
  int observed_max = 0;
  int total = 0;
  inject.poisson(rng, 0, 50000, 1000,
                 [&observed_max, &total, counter = 0]() mutable {
                   ++counter;
                   ++total;
                   observed_max = std::max(observed_max, counter);
                 });
  sim.run();
  ASSERT_GT(total, 1);
  // With a per-event copy the counter would reset to 0 before each firing
  // and observed_max would stay 1.
  EXPECT_EQ(observed_max, total);
}

// ---- chaos schedule --------------------------------------------------------

struct ChaosRecorder {
  std::vector<std::pair<SimTime, std::string>> events;

  ChaosSchedule::Hooks hooks(Simulator& sim) {
    ChaosSchedule::Hooks h;
    h.crash_node = [this, &sim](ChaosSchedule::NodeRef n) {
      events.emplace_back(sim.now(), "crash " + std::to_string(n));
    };
    h.recover_node = [this, &sim](ChaosSchedule::NodeRef n) {
      events.emplace_back(sim.now(), "recover " + std::to_string(n));
    };
    h.set_link_up = [this, &sim](ChaosSchedule::NodeRef a,
                                 ChaosSchedule::NodeRef b, bool up) {
      events.emplace_back(sim.now(), std::string(up ? "up " : "down ") +
                                         std::to_string(a) + "-" +
                                         std::to_string(b));
    };
    h.set_latency_scale = [this, &sim](double scale) {
      events.emplace_back(sim.now(),
                          "latency " + std::to_string(scale));
    };
    h.set_message_loss = [this, &sim](double p) {
      events.emplace_back(sim.now(), "loss " + std::to_string(p));
    };
    return h;
  }
};

TEST(ChaosScheduleTest, CrashFiresAndRecoversOnTime) {
  Simulator sim;
  FailureInjector inject(sim);
  ChaosRecorder rec;
  ChaosSchedule chaos(inject, rec.hooks(sim));
  chaos.crash(100, 3, 50);
  sim.run();
  ASSERT_EQ(rec.events.size(), 2u);
  EXPECT_EQ(rec.events[0], (std::pair<SimTime, std::string>{100, "crash 3"}));
  EXPECT_EQ(rec.events[1],
            (std::pair<SimTime, std::string>{150, "recover 3"}));
  EXPECT_EQ(chaos.crashes_fired(), 1u);
  EXPECT_EQ(chaos.skipped_crashes(), 0u);
}

TEST(ChaosScheduleTest, PartitionCutsEveryCrossLinkBothWaysThenHeals) {
  Simulator sim;
  FailureInjector inject(sim);
  ChaosRecorder rec;
  ChaosSchedule chaos(inject, rec.hooks(sim));
  chaos.partition(10, {0, 1}, {2}, 30);
  sim.run();
  // 2 cross pairs x 2 directions, once down and once up.
  std::size_t downs = 0, ups = 0;
  for (const auto& [when, what] : rec.events) {
    if (what.rfind("down ", 0) == 0) {
      EXPECT_EQ(when, 10);
      ++downs;
    } else if (what.rfind("up ", 0) == 0) {
      EXPECT_EQ(when, 40);
      ++ups;
    }
  }
  EXPECT_EQ(downs, 4u);
  EXPECT_EQ(ups, 4u);
  EXPECT_EQ(chaos.partitions_fired(), 1u);
}

TEST(ChaosScheduleTest, LatencyAndLossWindowsRestoreNominal) {
  Simulator sim;
  FailureInjector inject(sim);
  ChaosRecorder rec;
  ChaosSchedule chaos(inject, rec.hooks(sim));
  chaos.latency_spike(100, 8.0, 50);
  chaos.packet_loss(200, 0.25, 50);
  sim.run();
  ASSERT_EQ(rec.events.size(), 4u);
  EXPECT_EQ(rec.events[0].second, "latency " + std::to_string(8.0));
  EXPECT_EQ(rec.events[1].second, "latency " + std::to_string(1.0));
  EXPECT_EQ(rec.events[2].second, "loss " + std::to_string(0.25));
  EXPECT_EQ(rec.events[3].second, "loss " + std::to_string(0.0));
  EXPECT_EQ(chaos.latency_spikes_fired(), 1u);
  EXPECT_EQ(chaos.loss_windows_fired(), 1u);
}

TEST(ChaosScheduleTest, StormIsDeterministicForASeed) {
  auto run_storm = [](std::uint64_t seed) {
    Simulator sim;
    FailureInjector inject(sim);
    ChaosRecorder rec;
    ChaosSchedule chaos(inject, rec.hooks(sim));
    Rng rng(seed);
    chaos.poisson_crash_storm(rng, 0, 200 * kMilli, 10 * kMilli, 2 * kMilli,
                              {1, 2, 3, 4});
    sim.run();
    return rec.events;
  };
  const auto a = run_storm(42);
  const auto b = run_storm(42);
  const auto c = run_storm(43);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(ChaosScheduleTest, GuardVetoesCrashWithoutPerturbingSchedule) {
  Simulator sim;
  FailureInjector inject(sim);
  ChaosRecorder rec;
  auto hooks = rec.hooks(sim);
  hooks.can_crash = [](ChaosSchedule::NodeRef n) { return n != 2; };
  ChaosSchedule chaos(inject, hooks);
  Rng rng(5);
  chaos.poisson_crash_storm(rng, 0, 500 * kMilli, 10 * kMilli, 2 * kMilli,
                            {1, 2, 3});
  sim.run();
  EXPECT_GT(chaos.skipped_crashes(), 0u);
  EXPECT_GT(chaos.crashes_fired(), 0u);
  for (const auto& [when, what] : rec.events) {
    EXPECT_NE(what, "crash 2");
    EXPECT_NE(what, "recover 2");
  }
}

// ---- ScenarioEngine -------------------------------------------------------

ScenarioEngine::Config small_scenario(std::uint64_t seed) {
  ScenarioEngine::Config config;
  config.seed = seed;
  config.node_count = 8;
  config.initial_tenants = 3;
  config.max_tenants = 10;
  config.mean_arrival_gap = 200 * kMilli;
  config.mean_lifetime = 1 * kSecond;
  config.min_working_set = 16;
  config.max_working_set = 64;
  config.mean_op_gap = 1 * kMilli;
  config.duration = 4 * kSecond;
  return config;
}

std::vector<ScenarioEngine::Op> drain(ScenarioEngine& engine) {
  std::vector<ScenarioEngine::Op> ops;
  for (;;) {
    auto op = engine.next();
    if (op.kind == ScenarioEngine::Op::Kind::kDone) break;
    ops.push_back(op);
  }
  return ops;
}

TEST(ScenarioEngineTest, SameConfigYieldsIdenticalOpStream) {
  ScenarioEngine a(small_scenario(99));
  ScenarioEngine b(small_scenario(99));
  a.start(5 * kSecond);
  b.start(5 * kSecond);
  auto ops_a = drain(a);
  auto ops_b = drain(b);
  ASSERT_EQ(ops_a.size(), ops_b.size());
  ASSERT_GT(ops_a.size(), 100u);
  for (std::size_t i = 0; i < ops_a.size(); ++i) {
    EXPECT_EQ(ops_a[i].kind, ops_b[i].kind) << i;
    EXPECT_EQ(ops_a[i].at, ops_b[i].at) << i;
    EXPECT_EQ(ops_a[i].tenant, ops_b[i].tenant) << i;
    EXPECT_EQ(ops_a[i].home, ops_b[i].home) << i;
    EXPECT_EQ(ops_a[i].working_set, ops_b[i].working_set) << i;
    EXPECT_EQ(ops_a[i].index, ops_b[i].index) << i;
    EXPECT_EQ(ops_a[i].write, ops_b[i].write) << i;
  }
  // A different seed must not replay the same schedule.
  ScenarioEngine c(small_scenario(100));
  c.start(5 * kSecond);
  auto ops_c = drain(c);
  bool differs = ops_c.size() != ops_a.size();
  for (std::size_t i = 0; !differs && i < ops_a.size(); ++i)
    differs = ops_a[i].at != ops_c[i].at || ops_a[i].kind != ops_c[i].kind;
  EXPECT_TRUE(differs);
}

TEST(ScenarioEngineTest, OpsAreWellFormedAndTimeOrdered) {
  auto config = small_scenario(7);
  ScenarioEngine engine(config);
  engine.start(0);
  auto ops = drain(engine);
  using Kind = ScenarioEngine::Op::Kind;
  SimTime last = 0;
  std::map<ScenarioEngine::TenantId, std::uint64_t> live;  // tenant -> ws
  for (const auto& op : ops) {
    EXPECT_GE(op.at, last);
    EXPECT_LE(op.at, config.duration);
    last = op.at;
    switch (op.kind) {
      case Kind::kSpawn:
        EXPECT_EQ(live.count(op.tenant), 0u);
        EXPECT_LT(op.home, config.node_count);
        EXPECT_GE(op.working_set, config.min_working_set);
        EXPECT_LE(op.working_set, config.max_working_set);
        live[op.tenant] = op.working_set;
        break;
      case Kind::kAccess:
        ASSERT_EQ(live.count(op.tenant), 1u);
        EXPECT_LT(op.index, live[op.tenant]);
        break;
      case Kind::kRetire:
        EXPECT_EQ(live.erase(op.tenant), 1u);
        break;
      case Kind::kDone:
        break;
    }
  }
  // Every spawned tenant retires by the horizon.
  EXPECT_TRUE(live.empty());
  EXPECT_EQ(engine.tenants_spawned(), engine.tenants_retired());
  EXPECT_LE(engine.tenants_spawned(), config.max_tenants);
  EXPECT_GE(engine.tenants_spawned(), config.initial_tenants);
  EXPECT_EQ(engine.active_tenants(), 0u);
}

TEST(ScenarioEngineTest, DiurnalWaveStaysInBandAndRepeats) {
  ScenarioEngine engine(small_scenario(1));
  engine.start(0);
  const SimTime period = ScenarioEngine::kDiurnalPeriod;
  for (SimTime t = 0; t <= 2 * period; t += 100 * kMilli) {
    const double m = engine.load_multiplier(t);
    EXPECT_GE(m, 1.0 - ScenarioEngine::kDiurnalDepth);
    EXPECT_LE(m, 1.0 + ScenarioEngine::kDiurnalDepth);
    EXPECT_DOUBLE_EQ(m, engine.load_multiplier(t + period));
  }
}

}  // namespace
}  // namespace dm::sim
