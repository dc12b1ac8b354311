// Background re-replication (§IV.D hardening).
//
// Degraded-mode writes and node failures leave entries below their intended
// placement: remote stripes holding fewer than their k + r shards (for
// k = 1, fewer copies), and disk-fallback entries awaiting re-promotion to
// remote memory. The RepairService is the per-node janitor that finds them
// and restores the invariant: a periodic scan walks every local virtual
// server's memory map for repair candidates and tops each one up through
// NodeService::repair_entry (which rebuilds the missing shards and places
// them with the same Rdmc::put as the failure path).
//
// Repairs within one scan run serially — the point is steady background
// convergence, not a recovery storm that competes with foreground traffic.
// Metrics land in the owning service's registry: "repair.scans",
// "repair.requeued" (candidates picked up), "repair.completed",
// "repair.failed", "repair.skipped_overlap".
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/units.h"
#include "core/node_service.h"
#include "sim/periodic_task.h"

namespace dm::core {

class RepairService {
 public:
  struct Config {
    // Opt-in: the periodic scan changes background event timing, so
    // deployments (and deterministic tests) enable it explicitly.
    bool enabled = false;
    SimTime scan_period = 500 * kMilli;
    // Per-scan repair budget; anything beyond it waits for the next scan
    // (bounds the bandwidth repair steals from foreground traffic).
    std::size_t max_repairs_per_scan = 16;
  };

  RepairService(NodeService& service, Config config);

  RepairService(const RepairService&) = delete;
  RepairService& operator=(const RepairService&) = delete;

  // Starts the periodic scan, first one period later (no-op unless
  // Config::enabled, or when the scan already runs).
  void start() {
    if (config_.enabled) scans_.start();
  }
  // Ends the periodic scan; a scan in flight runs to its end.
  void stop() noexcept { scans_.stop(); }

  // One scan pass: collect candidates, repair up to the budget, then invoke
  // `done` (exposed for deterministic tests; the next periodic scan comes
  // one period after it). Overlapping calls are skipped.
  void scan_tick(std::function<void()> done = {});

  const Config& config() const noexcept { return config_; }

 private:
  struct WorkItem {
    cluster::ServerId server;
    mem::EntryId entry;
  };

  void run_one(std::shared_ptr<std::vector<WorkItem>> work, std::size_t index,
               std::shared_ptr<std::function<void()>> done);

  NodeService& service_;
  Config config_;
  bool scan_active_ = false;
  sim::PeriodicTask scans_;
};

}  // namespace dm::core
