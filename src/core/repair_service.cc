#include "core/repair_service.h"

#include "common/status.h"
#include "core/ldmc.h"
#include "core/node_service.h"

namespace dm::core {

RepairService::RepairService(NodeService& service, Config config)
    : service_(service), config_(config),
      scans_(service.node().simulator(), config.scan_period,
             sim::PeriodicTask::First::kAfterPeriod,
             [this](sim::PeriodicTask::Done done) {
               scan_tick(std::move(done));
             }) {}

void RepairService::scan_tick(std::function<void()> done) {
  if (scan_active_) {
    // The previous scan's repair chain is still in flight (e.g. blocked on
    // RPC timeouts to a dead node); don't pile a second one on top.
    ++service_.metrics().counter("repair.skipped_overlap");
    if (done) done();
    return;
  }
  ++service_.metrics().counter("repair.scans");
  auto work = std::make_shared<std::vector<WorkItem>>();
  service_.for_each_client([&](cluster::ServerId server, Ldmc& client) {
    for (mem::EntryId entry : client.map().repair_candidates()) {
      if (work->size() >= config_.max_repairs_per_scan) return;
      work->push_back({server, entry});
    }
  });
  if (work->empty()) {
    if (done) done();
    return;
  }
  service_.metrics().counter("repair.requeued") += work->size();
  scan_active_ = true;
  run_one(std::move(work), 0,
          std::make_shared<std::function<void()>>(std::move(done)));
}

void RepairService::run_one(std::shared_ptr<std::vector<WorkItem>> work,
                            std::size_t index,
                            std::shared_ptr<std::function<void()>> done) {
  if (index >= work->size()) {
    scan_active_ = false;
    if (*done) (*done)();
    return;
  }
  const WorkItem item = (*work)[index];
  service_.repair_entry(item.server, item.entry,
                        [this, work, index, done](const Status& s) {
                          if (s.ok())
                            ++service_.metrics().counter("repair.completed");
                          else
                            ++service_.metrics().counter("repair.failed");
                          run_one(work, index + 1, done);
                        });
}

}  // namespace dm::core
