#include "cluster/harvester.h"

#include <algorithm>

namespace dm::cluster {
namespace {

// Don't bother migrating off a node hosting less than this.
constexpr std::uint64_t kMinHostedBytes = 64 * 1024;

}  // namespace

std::vector<HarvestAction> Harvester::plan(std::span<const NodeLoad> loads) {
  ++plans_;

  std::uint64_t total_pressure = 0;
  std::size_t up_nodes = 0;
  for (const auto& load : loads) {
    if (!load.up) continue;
    total_pressure += load.pressure;
    ++up_nodes;
  }
  if (up_nodes == 0) return {};
  const double mean_pressure =
      static_cast<double>(total_pressure) / static_cast<double>(up_nodes);
  const double threshold =
      std::max(static_cast<double>(config_.min_pressure),
               config_.hot_ratio * mean_pressure);

  // Hot nodes that actually host remote regions, hottest first; ties (and
  // the all-equal-pressure case) resolve by node id so two coordinators
  // with the same snapshot plan the same round.
  std::vector<const NodeLoad*> hot;
  for (const auto& load : loads) {
    if (!load.up) continue;
    if (static_cast<double>(load.pressure) < threshold) continue;
    if (load.hosted_bytes < kMinHostedBytes) continue;
    hot.push_back(&load);
  }
  std::sort(hot.begin(), hot.end(),
            [](const NodeLoad* a, const NodeLoad* b) {
              if (a->pressure != b->pressure) return a->pressure > b->pressure;
              return a->node < b->node;
            });

  std::vector<HarvestAction> actions;
  for (const NodeLoad* load : hot) {
    if (actions.size() >= config_.max_actions_per_tick) break;
    HarvestAction migrate;
    migrate.kind = HarvestAction::Kind::kMigrateOff;
    migrate.node = load->node;
    migrate.max_entries = config_.migrate_entries_per_action;
    actions.push_back(migrate);
    ++migrations_planned_;

    const double free_fraction =
        load->donated_capacity == 0
            ? 1.0
            : static_cast<double>(load->donated_free) /
                  static_cast<double>(load->donated_capacity);
    if (free_fraction <= config_.reclaim_free_watermark &&
        actions.size() < config_.max_actions_per_tick) {
      HarvestAction reclaim;
      reclaim.kind = HarvestAction::Kind::kReclaimSlab;
      reclaim.node = load->node;
      actions.push_back(reclaim);
      ++reclaims_planned_;
    }
  }
  return actions;
}

}  // namespace dm::cluster
