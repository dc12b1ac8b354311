// Tests for cluster coordination: placement policies, group directory,
// membership heartbeats, and leader election.
#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "cluster/group.h"
#include "cluster/harvester.h"
#include "cluster/membership.h"
#include "cluster/node.h"
#include "cluster/placement.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/connection_manager.h"
#include "net/fabric.h"
#include "sim/simulator.h"

namespace dm::cluster {
namespace {

// ---- placement policies -------------------------------------------------------

std::vector<CandidateNode> candidates(std::size_t n, std::uint64_t free_each) {
  std::vector<CandidateNode> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back({static_cast<net::NodeId>(i), free_each});
  return out;
}

class PlacementPolicyTest
    : public ::testing::TestWithParam<PlacementPolicyKind> {};

TEST_P(PlacementPolicyTest, PicksDistinctNodes) {
  auto policy = make_placement_policy(GetParam());
  Rng rng(1);
  auto pool = candidates(8, 1 * MiB);
  for (int round = 0; round < 100; ++round) {
    auto picked = policy->pick(pool, 3, 4096, rng);
    ASSERT_TRUE(picked.ok());
    ASSERT_EQ(picked->size(), 3u);
    std::set<net::NodeId> unique(picked->begin(), picked->end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

TEST_P(PlacementPolicyTest, SkipsTooSmallCandidates) {
  auto policy = make_placement_policy(GetParam());
  Rng rng(2);
  std::vector<CandidateNode> pool{{0, 100}, {1, 1 * MiB}, {2, 1 * MiB},
                                  {3, 1 * MiB}};
  for (int round = 0; round < 50; ++round) {
    auto picked = policy->pick(pool, 3, 4096, rng);
    ASSERT_TRUE(picked.ok());
    for (net::NodeId n : *picked) EXPECT_NE(n, 0u);
  }
}

TEST_P(PlacementPolicyTest, FailsWhenNotEnoughEligible) {
  auto policy = make_placement_policy(GetParam());
  Rng rng(3);
  auto pool = candidates(2, 1 * MiB);
  EXPECT_EQ(policy->pick(pool, 3, 4096, rng).status().code(),
            StatusCode::kResourceExhausted);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PlacementPolicyTest,
    ::testing::Values(PlacementPolicyKind::kRandom,
                      PlacementPolicyKind::kRoundRobin,
                      PlacementPolicyKind::kWeightedRoundRobin,
                      PlacementPolicyKind::kPowerOfTwoChoices,
                      PlacementPolicyKind::kLoadAware),
    [](const auto& param_info) {
      std::string name(to_string(param_info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(PlacementTest, RoundRobinCyclesEvenly) {
  auto policy = make_placement_policy(PlacementPolicyKind::kRoundRobin);
  Rng rng(4);
  auto pool = candidates(6, 1 * MiB);
  std::map<net::NodeId, int> counts;
  for (int round = 0; round < 60; ++round) {
    auto picked = policy->pick(pool, 1, 4096, rng);
    ASSERT_TRUE(picked.ok());
    ++counts[picked->front()];
  }
  for (const auto& [node, count] : counts) EXPECT_EQ(count, 10);
}

TEST(PlacementTest, PowerOfTwoBalancesLoad) {
  // Simulated placement over 16 nodes with declining free memory: p2c must
  // keep the spread (max-min) much tighter than random.
  auto run = [](PlacementPolicyKind kind) {
    auto policy = make_placement_policy(kind);
    Rng rng(5);
    std::vector<CandidateNode> pool = candidates(16, 10 * MiB);
    std::vector<std::uint64_t> load(16, 0);
    for (int i = 0; i < 2000; ++i) {
      auto picked = policy->pick(pool, 1, 4096, rng);
      if (!picked.ok()) break;
      const auto n = picked->front();
      load[n] += 4096;
      pool[n].free_bytes -= 4096;
    }
    const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
    return *hi - *lo;
  };
  EXPECT_LE(run(PlacementPolicyKind::kPowerOfTwoChoices),
            run(PlacementPolicyKind::kRandom));
}

TEST(PlacementTest, WeightedRrFavorsFreeNodes) {
  auto policy = make_placement_policy(PlacementPolicyKind::kWeightedRoundRobin);
  Rng rng(6);
  std::vector<CandidateNode> pool{{0, 9 * MiB}, {1, 1 * MiB}};
  int node0 = 0;
  for (int i = 0; i < 1000; ++i) {
    auto picked = policy->pick(pool, 1, 4096, rng);
    ASSERT_TRUE(picked.ok());
    if (picked->front() == 0) ++node0;
  }
  EXPECT_GT(node0, 800);  // ~90% expected
}

// ---- load-aware placement -------------------------------------------------------

TEST(LoadAwareTest, ScoreDiscountsPressure) {
  // Equal free memory: the pressured donor scores strictly lower, and the
  // discount is gentle — 256 window ops halve the score, they don't zero it.
  CandidateNode idle{0, 1 * MiB, 0};
  CandidateNode busy{1, 1 * MiB, 256};
  CandidateNode thrashing{2, 1 * MiB, 100000};
  EXPECT_EQ(load_aware_score(idle), 1 * MiB);
  EXPECT_EQ(load_aware_score(busy), 512 * KiB);
  EXPECT_LT(load_aware_score(thrashing), load_aware_score(busy));
  EXPECT_GE(load_aware_score(thrashing), 1u);  // hot donors stay pickable
}

TEST(LoadAwareTest, ScoreTradesFreeMemoryAgainstPressure) {
  // A busy donor with much more free memory still outranks an idle donor
  // with little: pressure discounts, it does not disqualify.
  CandidateNode small_idle{0, 1 * MiB, 0};
  CandidateNode big_busy{1, 16 * MiB, 256};  // halved -> 8 MiB effective
  EXPECT_GT(load_aware_score(big_busy), load_aware_score(small_idle));
}

TEST(LoadAwareTest, RankOrdersByScoreThenNodeId) {
  std::vector<CandidateNode> pool{
      {7, 2 * MiB, 0},    // score 2 MiB
      {3, 4 * MiB, 256},  // score 2 MiB (tie with node 7 -> id breaks it)
      {5, 8 * MiB, 0},    // score 8 MiB
      {1, 100, 0},        // too small for a 4 KiB region
      {2, 1 * MiB, 0},    // score 1 MiB
  };
  auto ranked = load_aware_rank(pool, 4096);
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0].node, 5u);
  EXPECT_EQ(ranked[1].node, 3u);  // ties resolve by ascending node id
  EXPECT_EQ(ranked[2].node, 7u);
  EXPECT_EQ(ranked[3].node, 2u);
  // Pure function of the snapshot: ranking twice gives the same order.
  auto again = load_aware_rank(pool, 4096);
  for (std::size_t i = 0; i < ranked.size(); ++i)
    EXPECT_EQ(ranked[i].node, again[i].node);
}

TEST(LoadAwareTest, ZeroPressureReproducesPowerOfTwo) {
  // Regression pin for the static behaviour: with every pressure at zero,
  // kLoadAware must consume the rng stream identically to
  // kPowerOfTwoChoices and pick the same winners — turning load-awareness
  // off is a no-op, not a different policy.
  auto load_aware = make_placement_policy(PlacementPolicyKind::kLoadAware);
  auto p2c = make_placement_policy(PlacementPolicyKind::kPowerOfTwoChoices);
  Rng rng_a(17);
  Rng rng_b(17);
  std::vector<CandidateNode> pool;
  for (std::size_t i = 0; i < 16; ++i)
    pool.push_back({static_cast<net::NodeId>(i), (i + 1) * MiB, 0});
  for (int round = 0; round < 200; ++round) {
    auto a = load_aware->pick(pool, 3, 4096, rng_a);
    auto b = p2c->pick(pool, 3, 4096, rng_b);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);
    // Drift the pool deterministically so the pin covers many shapes.
    pool[static_cast<std::size_t>(round) % pool.size()].free_bytes += 64 * KiB;
  }
}

TEST(LoadAwareTest, PressureFlipsTheDuel) {
  // Two candidates, so every pick duels them directly: p2c always keeps
  // the bigger donor, load-aware flips to the smaller one once pressure
  // discounts the bigger below it.
  std::vector<CandidateNode> pool{{0, 8 * MiB, 4 * 256},  // score 8/5 MiB
                                  {1, 4 * MiB, 0}};       // score 4 MiB
  auto load_aware = make_placement_policy(PlacementPolicyKind::kLoadAware);
  auto p2c = make_placement_policy(PlacementPolicyKind::kPowerOfTwoChoices);
  for (int round = 0; round < 50; ++round) {
    Rng rng_a(round);
    Rng rng_b(round);
    auto a = load_aware->pick(pool, 1, 4096, rng_a);
    auto b = p2c->pick(pool, 1, 4096, rng_b);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->front(), 1u);
    EXPECT_EQ(b->front(), 0u);
  }
}

// ---- harvester ------------------------------------------------------------------

NodeLoad make_load(net::NodeId node, std::uint64_t pressure,
                   std::uint64_t hosted = 1 * MiB,
                   std::uint64_t capacity = 4 * MiB,
                   std::uint64_t free_bytes = 3 * MiB) {
  NodeLoad load;
  load.node = node;
  load.donated_capacity = capacity;
  load.donated_free = free_bytes;
  load.hosted_bytes = hosted;
  load.pressure = pressure;
  return load;
}

TEST(HarvesterTest, QuietClusterPlansNothing) {
  Harvester harvester(Harvester::Config{});
  // Everyone below the absolute pressure floor: one stray fault on an
  // otherwise idle cluster must not trigger migrations.
  std::vector<NodeLoad> loads{make_load(0, 1), make_load(1, 0),
                              make_load(2, 2)};
  EXPECT_TRUE(harvester.plan(loads).empty());
  EXPECT_EQ(harvester.plans(), 1u);
  EXPECT_EQ(harvester.migrations_planned(), 0u);
}

TEST(HarvesterTest, HotNodesRankedByPressureThenId) {
  Harvester::Config config;
  config.max_actions_per_tick = 8;
  Harvester harvester(config);
  // Five idle nodes keep the cluster mean low enough (350) that all three
  // loaded nodes clear the 2x-mean hot threshold.
  std::vector<NodeLoad> loads{make_load(0, 0),    make_load(1, 900),
                              make_load(2, 0),    make_load(3, 900),
                              make_load(4, 1000), make_load(5, 0),
                              make_load(6, 0),    make_load(7, 0)};
  auto actions = harvester.plan(loads);
  ASSERT_EQ(actions.size(), 3u);
  EXPECT_EQ(actions[0].node, 4u);  // hottest first
  EXPECT_EQ(actions[1].node, 1u);  // tie at 900 -> ascending node id
  EXPECT_EQ(actions[2].node, 3u);
  for (const auto& action : actions) {
    EXPECT_EQ(action.kind, HarvestAction::Kind::kMigrateOff);
    EXPECT_EQ(action.max_entries, config.migrate_entries_per_action);
  }
}

TEST(HarvesterTest, SkipsDownAndNonHostingNodes) {
  Harvester harvester(Harvester::Config{});
  auto down = make_load(0, 5000);
  down.up = false;
  auto empty_host = make_load(1, 5000, /*hosted=*/0);
  // Idle up nodes drag the mean down so pressure 5000 clears the hot
  // threshold; the down node must not count toward that mean.
  std::vector<NodeLoad> loads{down, empty_host, make_load(2, 5000),
                              make_load(3, 0), make_load(4, 0)};
  auto actions = harvester.plan(loads);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].node, 2u);
}

TEST(HarvesterTest, ReclaimOnlyBelowFreeWatermark) {
  Harvester harvester(Harvester::Config{});
  // Node 0 hot with a nearly-full donated pool (free 1/8 <= 0.25 watermark)
  // -> migrate + reclaim. Node 1 hot with a half-empty pool -> migrate only.
  std::vector<NodeLoad> loads{
      make_load(0, 5000, 1 * MiB, 8 * MiB, 1 * MiB),
      make_load(1, 4000, 1 * MiB, 8 * MiB, 4 * MiB),
      make_load(2, 0),
      make_load(3, 0),
      make_load(4, 0),
      make_load(5, 0),
  };
  auto actions = harvester.plan(loads);
  ASSERT_EQ(actions.size(), 3u);
  EXPECT_EQ(actions[0].kind, HarvestAction::Kind::kMigrateOff);
  EXPECT_EQ(actions[0].node, 0u);
  EXPECT_EQ(actions[1].kind, HarvestAction::Kind::kReclaimSlab);
  EXPECT_EQ(actions[1].node, 0u);
  EXPECT_EQ(actions[2].kind, HarvestAction::Kind::kMigrateOff);
  EXPECT_EQ(actions[2].node, 1u);
  EXPECT_EQ(harvester.reclaims_planned(), 1u);
}

TEST(HarvesterTest, HotRatioComparesAgainstClusterMean) {
  // Pressure 100 everywhere: nobody is 2x the mean, nothing to harvest —
  // uniform load is balance, not heat.
  Harvester harvester(Harvester::Config{});
  std::vector<NodeLoad> uniform{make_load(0, 100), make_load(1, 100),
                                make_load(2, 100), make_load(3, 100)};
  EXPECT_TRUE(harvester.plan(uniform).empty());
  // Same total pressure concentrated on one node: that node is hot.
  std::vector<NodeLoad> skewed{make_load(0, 400), make_load(1, 0),
                               make_load(2, 0), make_load(3, 0)};
  auto actions = harvester.plan(skewed);
  ASSERT_FALSE(actions.empty());
  EXPECT_EQ(actions[0].node, 0u);
}

TEST(HarvesterTest, MaxActionsCapsTheRound) {
  Harvester::Config config;
  config.max_actions_per_tick = 2;
  Harvester harvester(config);
  // Two hot nodes with exhausted pools would plan 2 migrations + 2 reclaims
  // uncapped; the per-tick cap must clip the round at 2 actions.
  std::vector<NodeLoad> loads;
  for (net::NodeId n = 0; n < 8; ++n) {
    const std::uint64_t pressure = n < 2 ? 4000 + n : 0;
    loads.push_back(make_load(n, pressure, 1 * MiB, 8 * MiB, 0));
  }
  auto actions = harvester.plan(loads);
  EXPECT_EQ(actions.size(), 2u);
}

TEST(HarvesterTest, PlanIsDeterministic) {
  std::vector<NodeLoad> loads{make_load(0, 300), make_load(1, 700),
                              make_load(2, 0), make_load(3, 700)};
  Harvester a(Harvester::Config{});
  Harvester b(Harvester::Config{});
  auto plan_a = a.plan(loads);
  auto plan_b = b.plan(loads);
  ASSERT_EQ(plan_a.size(), plan_b.size());
  for (std::size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_EQ(plan_a[i].kind, plan_b[i].kind);
    EXPECT_EQ(plan_a[i].node, plan_b[i].node);
    EXPECT_EQ(plan_a[i].max_entries, plan_b[i].max_entries);
  }
}

// ---- group directory ------------------------------------------------------------

TEST(GroupDirectoryTest, PartitionsEvenly) {
  std::vector<net::NodeId> nodes(32);
  std::iota(nodes.begin(), nodes.end(), 0);
  GroupDirectory dir(nodes, 8);
  EXPECT_EQ(dir.group_count(), 4u);
  std::size_t total = 0;
  for (GroupId g = 0; g < 4; ++g) {
    EXPECT_EQ(dir.members(g).size(), 8u);
    total += dir.members(g).size();
  }
  EXPECT_EQ(total, 32u);
  for (net::NodeId n : nodes) {
    const GroupId g = dir.group_of(n);
    const auto& members = dir.members(g);
    EXPECT_NE(std::find(members.begin(), members.end(), n), members.end());
  }
}

TEST(GroupDirectoryTest, MoveNode) {
  std::vector<net::NodeId> nodes{0, 1, 2, 3};
  GroupDirectory dir(nodes, 2);
  const GroupId from = dir.group_of(3);
  const GroupId to = from == 0 ? 1 : 0;
  dir.move_node(3, to);
  EXPECT_EQ(dir.group_of(3), to);
  EXPECT_EQ(dir.members(to).size(), 3u);
  EXPECT_EQ(dir.members(from).size(), 1u);
}

TEST(GroupDirectoryTest, RegroupPullsFromRichestGroup) {
  std::vector<net::NodeId> nodes{0, 1, 2, 3, 4, 5};
  GroupDirectory dir(nodes, 2);  // 3 groups of 2
  // Group of node 1 has lots of free memory.
  auto free_of = [](net::NodeId n) -> std::uint64_t {
    return n == 1 || n == 4 ? 100 * MiB : 1 * MiB;
  };
  const GroupId starved = dir.group_of(0) ;
  auto moved = dir.regroup_into(starved, free_of);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(dir.group_of(*moved), starved);
}

TEST(GroupDirectoryTest, RegroupFailsWhenNoDonor) {
  std::vector<net::NodeId> nodes{0};
  GroupDirectory dir(nodes, 4);
  EXPECT_FALSE(dir.regroup_into(0, [](net::NodeId) { return 1ULL; })
                   .has_value());
}

// ---- membership + election -------------------------------------------------------

class ClusterFixture : public ::testing::Test {
 protected:
  ClusterFixture()
      : fabric_(sim_), connections_(fabric_) {
    for (net::NodeId id = 0; id < 4; ++id) {
      cluster::Node::Config config;
      config.recv.arena_bytes = 4 * MiB;
      nodes_.push_back(std::make_unique<Node>(sim_, fabric_, connections_, id,
                                              config));
    }
    std::vector<net::NodeId> all{0, 1, 2, 3};
    for (auto& node : nodes_) node->join_group(0, all);
    // Pre-establish control channels (the heartbeats need them).
    for (net::NodeId a = 0; a < 4; ++a) {
      for (net::NodeId b = 0; b < 4; ++b) {
        if (a == b) continue;
        EXPECT_TRUE(connections_.ensure_control_channel(a, b).ok());
      }
    }
  }

  void start_all() {
    for (auto& node : nodes_) {
      node->membership().start();
      node->election()->start();
    }
  }

  sim::Simulator sim_;
  net::Fabric fabric_;
  net::ConnectionManager connections_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

TEST_F(ClusterFixture, HeartbeatsMarkPeersAlive) {
  start_all();
  sim_.run_until(2 * kSecond);
  for (auto& node : nodes_)
    for (net::NodeId peer : node->membership().peers())
      EXPECT_TRUE(node->membership().alive(peer));
}

TEST_F(ClusterFixture, HeartbeatsCarryFreeBytes) {
  start_all();
  sim_.run_until(2 * kSecond);
  // All recv pools are empty, so advertised free == capacity.
  EXPECT_EQ(nodes_[0]->membership().last_known_free(1),
            nodes_[1]->donatable_free_bytes());
}

TEST_F(ClusterFixture, CrashDetectedWithinTimeout) {
  start_all();
  sim_.run_until(2 * kSecond);
  int down_events = 0;
  nodes_[0]->membership().on_peer_down([&](net::NodeId peer) {
    EXPECT_EQ(peer, 3u);
    ++down_events;
  });
  fabric_.set_node_up(3, false);
  sim_.run_until(sim_.now() + 3 * kSecond);
  EXPECT_FALSE(nodes_[0]->membership().alive(3));
  EXPECT_EQ(down_events, 1);
}

TEST_F(ClusterFixture, RecoveryDetected) {
  start_all();
  sim_.run_until(2 * kSecond);
  fabric_.set_node_up(3, false);
  sim_.run_until(sim_.now() + 3 * kSecond);
  ASSERT_FALSE(nodes_[0]->membership().alive(3));

  int up_events = 0;
  nodes_[0]->membership().on_peer_up([&](net::NodeId) { ++up_events; });
  fabric_.set_node_up(3, true);
  sim_.run_until(sim_.now() + 3 * kSecond);
  EXPECT_TRUE(nodes_[0]->membership().alive(3));
  EXPECT_EQ(up_events, 1);
}

TEST_F(ClusterFixture, ElectionConvergesToOneLeader) {
  start_all();
  sim_.run_until(3 * kSecond);
  const net::NodeId leader = nodes_[0]->election()->leader();
  EXPECT_NE(leader, net::kInvalidNode);
  for (auto& node : nodes_)
    EXPECT_EQ(node->election()->leader(), leader);
}

TEST_F(ClusterFixture, LeaderFailureTriggersReelection) {
  start_all();
  sim_.run_until(3 * kSecond);
  const net::NodeId old_leader = nodes_[0]->election()->leader();

  fabric_.set_node_up(old_leader, false);
  sim_.run_until(sim_.now() + 5 * kSecond);

  for (auto& node : nodes_) {
    if (node->id() == old_leader) continue;
    EXPECT_NE(node->election()->leader(), old_leader);
    EXPECT_NE(node->election()->leader(), net::kInvalidNode);
  }
  // Survivors agree.
  net::NodeId agreed = net::kInvalidNode;
  for (auto& node : nodes_) {
    if (node->id() == old_leader) continue;
    if (agreed == net::kInvalidNode) agreed = node->election()->leader();
    EXPECT_EQ(node->election()->leader(), agreed);
  }
}

TEST_F(ClusterFixture, ElectionPrefersMaxFreeMemory) {
  // Give node 2 by far the largest donatable pool by draining others.
  start_all();
  for (auto& node : nodes_) {
    if (node->id() == 2) continue;
    // Consume most of the recv pool so the advertised free drops.
    while (node->recv_pool().used_bytes() + 64 * KiB <=
           node->recv_pool().capacity_bytes() / 8)
      ASSERT_TRUE(node->recv_pool().allocate(65536).ok());
  }
  sim_.run_until(5 * kSecond);
  // Re-run an election now that heartbeats carry the skewed numbers.
  nodes_[0]->election()->start();
  sim_.run_until(sim_.now() + 2 * kSecond);
  EXPECT_EQ(nodes_[0]->election()->leader(), 2u);
}

// ---- virtual server / node -------------------------------------------------------

TEST_F(ClusterFixture, ServerDonationFlowsIntoPool) {
  auto& server = nodes_[0]->add_server(1, ServerKind::kVm, 100 * MiB, 0.10);
  EXPECT_EQ(server.donated_bytes(), 10 * MiB);
  EXPECT_EQ(server.resident_budget(), 90 * MiB);
  EXPECT_EQ(nodes_[0]->shm().donation_of(1), 10 * MiB);
}

}  // namespace
}  // namespace dm::cluster
