// Cluster-level memory harvesting (paper §I, §IV.F).
//
// The paper's imbalance argument cuts both ways: idle nodes should donate
// memory, and a node that *stops* being idle should get its DRAM back
// without a restart. The Harvester is the cluster-side planner for that
// second half. Fed a per-node load snapshot (donated capacity/free bytes,
// hosted bytes, pressure), it decides which nodes are hot relative to the
// cluster and emits two kinds of actions against them:
//
//  * kMigrateOff — live-migrate remote regions hosted *on* the hot node to
//    colder donors (NodeService::migrate_region: copy-then-redirect,
//    crash-safe cutover), relieving the node without shrinking its pool;
//  * kReclaimSlab — additionally drain and deregister one donated slab
//    (§IV.F policy 1 mechanics) when the hot node's donated pool is nearly
//    exhausted, returning the DRAM to its local servers.
//
// The Harvester is a *pure planner*: it owns no nodes, sends no RPCs and
// reads no clocks, so it unit-tests exhaustively and stays in the cluster
// layer. core::DmSystem collects the loads, calls plan() on a periodic
// tick, and executes the actions through the node services. Determinism:
// plan() is a pure function of its input — candidates are ranked by
// (pressure, node id) with no randomness.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/types.h"
#include "net/rdma.h"

namespace dm::cluster {

// One node's load snapshot, as the coordinator sees it.
struct NodeLoad {
  net::NodeId node = net::kInvalidNode;
  bool up = true;
  std::uint64_t donated_capacity = 0;  // receive-pool arena bytes
  std::uint64_t donated_free = 0;      // of which still allocatable
  std::uint64_t hosted_bytes = 0;      // held for remote owners right now
  std::uint64_t pressure = 0;          // local DM demand (window count)
};

struct HarvestAction {
  enum class Kind {
    kMigrateOff,   // push hosted regions off `node` to colder donors
    kReclaimSlab,  // also drain + deregister one of `node`'s slabs
  };
  Kind kind = Kind::kMigrateOff;
  net::NodeId node = net::kInvalidNode;
  std::size_t max_entries = 0;  // migration budget (kMigrateOff)
};

class Harvester {
 public:
  struct Config {
    // A node is hot when its pressure exceeds both the absolute floor and
    // `hot_ratio` times the mean pressure of up nodes. The floor keeps a
    // quiet cluster (mean ~0) from flagging every node with one fault.
    double hot_ratio = 2.0;
    std::uint64_t min_pressure = 16;
    // Per-tick migration budget per hot node (each entry costs one
    // shard read + one single-shard put on the owner).
    std::size_t migrate_entries_per_action = 8;
    // Reclaim a slab only while the hot node's donated pool is this full
    // or more (free fraction at or below the watermark): migrating hosted
    // regions alone already relieves a half-empty pool.
    double reclaim_free_watermark = 0.25;
    // Cap on total actions per plan() call, hottest nodes first.
    std::size_t max_actions_per_tick = 4;
  };

  explicit Harvester(Config config) : config_(config) {}

  const Config& config() const noexcept { return config_; }

  // Plans one harvest round over the snapshot. Pure and deterministic:
  // hot nodes are ranked by (pressure desc, node id asc); down nodes and
  // nodes hosting nothing are never targeted.
  std::vector<HarvestAction> plan(std::span<const NodeLoad> loads);

  // --- accounting -----------------------------------------------------------
  std::uint64_t plans() const noexcept { return plans_; }
  std::uint64_t migrations_planned() const noexcept {
    return migrations_planned_;
  }
  std::uint64_t reclaims_planned() const noexcept { return reclaims_planned_; }

 private:
  Config config_;
  std::uint64_t plans_ = 0;
  std::uint64_t migrations_planned_ = 0;
  std::uint64_t reclaims_planned_ = 0;
};

}  // namespace dm::cluster
