// perfbench driver: one seeded workload instance, end to end.
//
//   perfbench_driver --workload <ml_scan|kv_zipf_ec|cluster_churn>
//                    --seed <n> [--trace]
//
// Builds the cluster, runs the workload's op script through the public
// APIs of core::DmSystem, swap::SwapManager and sim::ScenarioEngine,
// checks every page it reads back against the workload's content
// generator, and prints every number it measured as one JSON line:
//   "virt"  virtual-time figures and counts, exact for a given seed;
//   "host"  host-clock figures (wall seconds, ns per call, peak RSS);
//   "bases" numerator and base of every ratio.
// perfbench/run.py runs this binary several times per workload and
// reports medians; perfbench/README.md defines every metric.
//
// --trace attaches obs::SpanTracer to the system and the swap managers for
// the measured phase, drains it into obs::Profiler after every op, and
// times the per-op calls (touch, run_until) on the host clock. Untraced
// runs keep the op loop free of both.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/placement.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "compress/page_compressor.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "ec/rs_codec.h"
#include "mem/memory_map.h"
#include "metric_math.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/app_catalog.h"
#include "workloads/driver.h"

namespace {

using namespace dm;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Footprint samples are taken at these many evenly spaced points of the
// op script (the last one at its end).
constexpr int kFootprintSamples = 10;

// ---------------------------------------------------------------------------
// Host-clock spans owned by the benchmark, one site per public call.

enum class Site { kBuild, kStart, kCreateServer, kTouch, kRunUntil, kRemove,
                  kCrash, kCount };
constexpr std::array<const char*, static_cast<std::size_t>(Site::kCount)>
    kSiteNames = {"build", "start", "create_server", "touch", "run_until",
                  "remove_sync", "crash_node"};

struct HostSpans {
  std::array<std::uint64_t, kSiteNames.size()> calls{};
  std::array<std::uint64_t, kSiteNames.size()> ns{};
  std::uint64_t site_ns(Site site) const {
    return ns[static_cast<std::size_t>(site)];
  }
  std::uint64_t site_calls(Site site) const {
    return calls[static_cast<std::size_t>(site)];
  }
};

// Times one call into `spans`. The per-op calls (touch, run_until) are
// timed in traced runs only and get a null sink otherwise.
class HostSpan {
 public:
  HostSpan(HostSpans* spans, Site site) : spans_(spans), site_(site) {
    if (spans_ != nullptr) start_ = Clock::now();
  }
  ~HostSpan() {
    if (spans_ == nullptr) return;
    const auto index = static_cast<std::size_t>(site_);
    ++spans_->calls[index];
    spans_->ns[index] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

 private:
  HostSpans* spans_;
  Site site_;
  Clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Virtual-time tracing: span tracer + profiler, fault roots kept apart from
// background traces.

class Tracing {
 public:
  explicit Tracing(core::DmSystem& system)
      : tracer_(system.simulator()), profiler_(system.simulator()) {
    system.set_span_sink(&tracer_);
  }
  void attach(swap::SwapManager& manager) { manager.set_span_sink(&tracer_); }
  void begin_window() { profiler_.begin_window(); }

  void drain() {
    for (const auto& done : tracer_.drain_completed()) {
      profiler_.ingest(done);
      if (done.root_name != "swap.fault") {
        ++background_traces_;
        continue;
      }
      ++fault_traces_;
      for (const auto& [subsystem, ns] : done.breakdown.by_subsystem)
        fault_ns_[subsystem] += ns;
    }
  }

  std::uint64_t fault_traces() const noexcept { return fault_traces_; }
  std::uint64_t background_traces() const noexcept {
    return background_traces_;
  }
  const std::map<std::string, SimTime>& fault_ns() const noexcept {
    return fault_ns_;
  }
  std::uint64_t site_calls(const std::string& site) const {
    const auto it = profiler_.sites().find(site);
    return it == profiler_.sites().end() ? 0 : it->second.calls;
  }
  const obs::SpanTracer& tracer() const noexcept { return tracer_; }

 private:
  obs::SpanTracer tracer_;
  obs::Profiler profiler_;
  std::uint64_t fault_traces_ = 0;
  std::uint64_t background_traces_ = 0;
  std::map<std::string, SimTime> fault_ns_;
};

// ---------------------------------------------------------------------------
// Everything one run measures.

struct Output {
  std::map<std::string, double> virt;
  std::map<std::string, double> host;
  std::map<std::string, std::pair<double, double>> bases;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  // Check failures (wrong bytes, codec errors): any one fails the run.
  std::vector<std::string> errors;
  // The first few failed-op statuses, for the report.
  std::vector<std::string> op_errors;

  void ratio(const std::string& name, perfbench::Ratio r) {
    virt[name] = r.value();
    bases[name] = {r.num, r.base};
  }
};

// Counter / histogram sums over every hub source ("net", "node.<id>",
// "tenant.<id>") for one metric name, as deltas over the measured phase.
class HubDelta {
 public:
  HubDelta(const MetricsRegistry& before, const MetricsRegistry& after)
      : before_(before), after_(after) {}

  double counter(std::string_view name) const {
    return static_cast<double>(sum(after_, name) - sum(before_, name));
  }
  // Merged histogram of every source whose metric name starts with `name`.
  Histogram histogram(std::string_view name) const {
    Histogram now = merge(after_, name);
    return now.delta_since(merge(before_, name));
  }

 private:
  static bool matches(const std::string& full, std::string_view name,
                      bool prefix) {
    // full = "<source>.<metric>"; the source part is "net", "node.<n>" or
    // "tenant.<n>".
    const auto dot = full.find('.');
    if (dot == std::string::npos) return false;
    std::string_view rest(full);
    rest.remove_prefix(dot + 1);
    if (full.compare(0, dot, "net") != 0) {
      const auto second = rest.find('.');
      if (second == std::string_view::npos) return false;
      rest.remove_prefix(second + 1);
    }
    return prefix ? rest.substr(0, name.size()) == name : rest == name;
  }
  static std::uint64_t sum(const MetricsRegistry& registry,
                           std::string_view name) {
    std::uint64_t total = 0;
    for (const auto& [full, value] : registry.counters())
      if (matches(full, name, false)) total += value;
    return total;
  }
  static Histogram merge(const MetricsRegistry& registry,
                         std::string_view name) {
    Histogram merged;
    for (const auto& [full, hist] : registry.histograms())
      if (matches(full, name, true)) merged.merge(hist);
    return merged;
  }

  const MetricsRegistry& before_;
  const MetricsRegistry& after_;
};

// The op loop's state and the measurements every workload shares.
class Bench {
 public:
  Bench(std::uint64_t seed, bool traced)
      : seed_(seed), traced_(traced), started_(Clock::now()) {}

  std::uint64_t seed() const noexcept { return seed_; }
  bool traced() const noexcept { return traced_; }
  HostSpans* op_spans() noexcept { return traced_ ? &spans_ : nullptr; }

  std::unique_ptr<core::DmSystem> build(const core::DmSystem::Config& config) {
    std::unique_ptr<core::DmSystem> system;
    {
      HostSpan span(&spans_, Site::kBuild);
      system = std::make_unique<core::DmSystem>(config);
    }
    HostSpan span(&spans_, Site::kStart);
    system->start();
    return system;
  }

  core::Ldmc& create_server(core::DmSystem& system, std::size_t node,
                            std::uint64_t bytes, core::LdmcOptions options) {
    HostSpan span(&spans_, Site::kCreateServer);
    return system.create_server(node, bytes, options);
  }

  std::unique_ptr<swap::SwapManager> make_manager(
      core::DmSystem& system, core::Ldmc& client,
      const swap::SwapManager::Config& config, swap::PageContentFn content,
      const std::string& prefix) {
    auto manager =
        std::make_unique<swap::SwapManager>(client, config, std::move(content));
    system.hub().add(prefix, &manager->metrics());
    if (tracing_) {
      tracing_->attach(*manager);
    } else if (traced_) {
      untraced_managers_.push_back(manager.get());
    }
    return manager;
  }

  // Carries the simulator to `deadline` on behalf of the op loop
  // (compute charge or open-loop wait).
  void run_until(sim::Simulator& sim, SimTime deadline) {
    const std::uint64_t before = sim.executed_events();
    {
      HostSpan span(op_spans(), Site::kRunUntil);
      sim.run_until(deadline);
    }
    background_events_ += sim.executed_events() - before;
  }

  Status touch(swap::SwapManager& manager, std::uint64_t page, bool write) {
    HostSpan span(op_spans(), Site::kTouch);
    return manager.touch(page, write);
  }

  Status remove(core::Ldmc& client, mem::EntryId entry) {
    HostSpan span(&spans_, Site::kRemove);
    return client.remove_sync(entry);
  }

  void crash(core::DmSystem& system, std::size_t node) {
    HostSpan span(&spans_, Site::kCrash);
    system.crash_node(node);
  }

  // Marks the end of set-up: everything after this is the measured phase.
  void begin_measured(core::DmSystem& system, double preload_s) {
    preload_s_ = preload_s;
    setup_s_ = seconds_since(started_);
    auto& sim = system.simulator();
    virt_start_ = sim.now();
    events_start_ = sim.executed_events();
    regroups_start_ = system.regroups();
    hub_start_ = system.hub().merged();
    if (traced_) {
      // Tracing covers the measured phase only: set-up and preload traces
      // would otherwise pile up unread and count as fault traces.
      tracing_ = std::make_unique<Tracing>(system);
      for (swap::SwapManager* manager : untraced_managers_)
        tracing_->attach(*manager);
      untraced_managers_.clear();
    }
    measured_started_ = Clock::now();
  }

  // One touch op's outcome; `due` is when the op was due to start.
  void record_op(const Status& status, SimTime due, SimTime done) {
    ++attempted_;
    if (status.ok()) {
      latency_.record(done - due);
    } else {
      latency_.record_failure();
      if (op_errors_.size() < 5) op_errors_.push_back(status.to_string());
    }
  }
  void record_late(SimTime late) { late_.record(late); }

  // Called between ops: pending-queue peak and tracer drain.
  void between_ops(sim::Simulator& sim) {
    pending_peak_ = std::max<std::uint64_t>(pending_peak_, sim.pending_count());
    if (tracing_) tracing_->drain();
  }

  void sample_footprint(std::uint64_t held, std::uint64_t logical) {
    footprint_.num += static_cast<double>(held);
    footprint_.base += static_cast<double>(logical);
  }

  // Benchmark bookkeeping inside the measured phase (footprint samples,
  // read-back checks): its host time is left out of host_s.
  class Unmeasured {
   public:
    explicit Unmeasured(Bench& bench) : bench_(bench), start_(Clock::now()) {}
    ~Unmeasured() { bench_.unmeasured_s_ += seconds_since(start_); }
    Unmeasured(const Unmeasured&) = delete;
    Unmeasured& operator=(const Unmeasured&) = delete;

   private:
    Bench& bench_;
    Clock::time_point start_;
  };

  void mismatch(std::string what) {
    ++mismatches_;
    if (errors_.size() < 10) errors_.push_back(std::move(what));
  }

  // Stops the measured clock and gathers every metric. `end` is the
  // virtual time the op script finished; `swap_totals` sums the
  // SwapManager accessors over every manager the run created.
  struct SwapTotals {
    std::uint64_t swap_ins = 0;
    std::uint64_t swap_outs = 0;
  };
  void end_measured(core::DmSystem& system, SimTime end, SwapTotals totals,
                    Output& out);

  // Host cost of the codecs the fault path calls, which the driver cannot
  // reach from outside: timed on pages generated the way the workload
  // generates them.
  void time_codecs(const swap::PageContentFn& content, bool compression,
                   bool ec, Output& out) const;

 private:
  std::uint64_t seed_;
  bool traced_;
  Clock::time_point started_;
  HostSpans spans_;
  std::unique_ptr<Tracing> tracing_;
  // Managers created before the measured phase, attached when it begins.
  std::vector<swap::SwapManager*> untraced_managers_;
  double preload_s_ = 0;
  double setup_s_ = 0;
  SimTime virt_start_ = 0;
  std::uint64_t events_start_ = 0;
  std::uint64_t regroups_start_ = 0;
  MetricsRegistry hub_start_;
  Clock::time_point measured_started_;
  double unmeasured_s_ = 0;
  std::uint64_t background_events_ = 0;
  std::uint64_t pending_peak_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t mismatches_ = 0;
  perfbench::LatencySamples latency_;
  perfbench::LatencySamples late_;
  perfbench::Ratio footprint_;
  std::vector<std::string> errors_;
  std::vector<std::string> op_errors_;
};

void Bench::end_measured(core::DmSystem& system, SimTime end,
                         SwapTotals totals, Output& out) {
  const double host_s = seconds_since(measured_started_) - unmeasured_s_;
  auto& sim = system.simulator();
  if (tracing_) tracing_->drain();
  const MetricsRegistry hub_end = system.hub().merged();
  const HubDelta hub(hub_start_, hub_end);
  auto& v = out.virt;
  auto& h = out.host;

  // End to end.
  const auto ops = static_cast<double>(attempted_);
  v["virt_elapsed_s"] = static_cast<double>(end - virt_start_) / kSecond;
  v["virt_op_p50_ns"] = latency_.percentile(0.50);
  v["virt_op_p99_ns"] = latency_.percentile(0.99);
  v["virt_op_p999_ns"] = latency_.percentile(0.999);
  v["virt_op_p999_ok_ns"] = latency_.percentile_ok(0.999);
  v["virt_op_samples"] = static_cast<double>(latency_.total());
  out.ratio("op_fail_ratio",
            {static_cast<double>(latency_.failed()), ops});
  out.ratio("dm_footprint_ratio", footprint_);
  h["host_s"] = host_s;
  h["setup_s"] = setup_s_;

  // sim
  const auto events =
      static_cast<double>(sim.executed_events() - events_start_);
  v["sim.events"] = events;
  v["sim.background_events"] = static_cast<double>(background_events_);
  v["sim.pending_peak"] = static_cast<double>(pending_peak_);
  h["sim.host_ns_per_event"] = events > 0 ? host_s * 1e9 / events : 0.0;

  // net
  v["net.fabric_messages"] = hub.counter("fabric.messages");
  v["net.fabric_bytes"] = hub.counter("fabric.bytes_transferred");
  v["net.rpc_calls"] = hub.counter("rpc.calls");
  v["net.rpc_retries"] = hub.counter("rpc.retries");
  v["net.rpc_timeouts"] = hub.counter("rpc.timeouts");
  v["net.rpc_errors"] = hub.counter("rpc.errors");

  // mem
  const double puts_shm = hub.counter("ldms.put_shm");
  const double puts_remote = hub.counter("ldms.put_remote");
  const double puts_disk = hub.counter("ldms.put_disk");
  v["mem.shm_puts"] = hub.counter("shm.puts");
  v["mem.shm_gets"] = hub.counter("shm.gets");
  v["mem.shm_evictions"] = hub.counter("shm.evictions");
  v["mem.shm_rejects"] = hub.counter("shm.put_rejected_arena") +
                         hub.counter("shm.put_rejected_capacity");
  out.ratio("mem.shm_put_share",
            {puts_shm, puts_shm + puts_remote + puts_disk +
                           hub.counter("ldms.put_nvm")});

  // storage
  v["storage.disk_reads"] = hub.counter("disk.reads");
  v["storage.disk_writes"] = hub.counter("disk.writes");
  v["storage.disk_seeks"] = hub.counter("disk.seeks");

  // compress
  const double logical = hub.counter("swap.logical_bytes");
  v["compress.pages_compressed"] = logical / compress::kPageSize;
  out.ratio("compress.ratio", {logical, hub.counter("swap.compressed_bytes")});

  // ec
  v["ec.encodes"] = hub.counter("ec.encodes");
  v["ec.reads"] = hub.counter("ec.reads");
  v["ec.degraded_reads"] = hub.counter("ec.degraded_reads");
  v["ec.shards_repaired"] = hub.counter("ec.shards_repaired");
  v["ec.corrupt_shards"] = hub.counter("ec.corrupt_shards");

  // core
  v["core.puts_shm"] = puts_shm;
  v["core.puts_remote"] = puts_remote;
  v["core.puts_disk"] = puts_disk;
  const double overflow = hub.counter("ldms.remote_overflow_to_disk");
  v["core.remote_overflow_to_disk"] = overflow;
  v["core.spilled_to_remote"] = hub.counter("ldms.spilled_to_remote");
  v["core.read_failovers"] = hub.counter("rdmc.read_failovers");
  v["core.repaired_entries"] = hub.counter("ldms.repaired_entries");
  v["core.remote_get_p99_ns"] =
      static_cast<double>(hub.histogram("ldms.get_ns.remote").p99());
  v["core.put_p99_ns"] =
      static_cast<double>(hub.histogram("ldms.put_ns.").p99());
  h["core.build_s"] = spans_.site_ns(Site::kBuild) / 1e9;
  h["core.start_s"] = spans_.site_ns(Site::kStart) / 1e9;

  // cluster
  v["cluster.placement_decisions"] = hub.counter("placement.decisions");
  v["cluster.placement_failures"] = hub.counter("placement.failures");
  v["cluster.rebalance_moves"] = hub.counter("placement.rebalance_moves");
  v["cluster.harvest_offloads"] = hub.counter("harvest.offload_requests");
  v["cluster.reclaimed_pages"] = hub.counter("harvest.reclaimed_pages");
  v["cluster.regroups"] =
      static_cast<double>(system.regroups() - regroups_start_);
  v["cluster.migrated_entries"] = hub.counter("ldms.migrated_entries");
  v["cluster.migrate_failures"] = hub.counter("ldms.migrate_put_failed") +
                                  hub.counter("ldms.migrate_read_failed");
  v["cluster.migrate_p99_ns"] =
      static_cast<double>(hub.histogram("cluster.migrate_ns").p99());
  out.ratio("cluster.remote_share", {puts_remote, puts_remote + overflow});

  // swap
  const Histogram faults = hub.histogram("swap.fault_ns.");
  v["swap.touches"] = ops;
  v["swap.faults"] = static_cast<double>(faults.count());
  out.ratio("swap.fault_ratio", {static_cast<double>(faults.count()), ops});
  v["swap.swap_ins"] = static_cast<double>(totals.swap_ins);
  v["swap.swap_outs"] = static_cast<double>(totals.swap_outs);
  v["swap.pbs_batch_ins"] = hub.counter("swap.pbs_batch_ins");
  v["swap.single_page_ins"] = hub.counter("swap.single_page_ins");
  v["swap.clean_drops"] = hub.counter("swap.clean_drops");
  v["swap.fault_p50_ns"] = static_cast<double>(faults.p50());
  v["swap.fault_p99_ns"] = static_cast<double>(faults.p99());
  v["swap.swapout_p99_ns"] =
      static_cast<double>(hub.histogram("swap.swapout_ns").p99());

  // workloads (this driver)
  v["workloads.ops"] = ops;
  v["workloads.late_p99_ns"] = late_.total() > 0 ? late_.percentile(0.99) : 0;
  h["workloads.preload_s"] = preload_s_;

  if (tracing_ != nullptr) {
    // Per-layer share of the mean fault, from fault-rooted traces only.
    // Span subsystems map onto src/ layers: "remote" is the serving node's
    // RPC dispatch into core::NodeService, "disk" is storage.
    static const std::map<std::string, std::string> kLayerOf = {
        {"swap", "swap"}, {"compress", "compress"}, {"net", "net"},
        {"remote", "core"}, {"ec", "ec"}, {"disk", "storage"},
        {"cxl", "cxl"}};
    std::map<std::string, double> per_layer = {
        {"swap", 0}, {"compress", 0}, {"net", 0}, {"core", 0}, {"ec", 0},
        {"storage", 0}};
    const auto traces = static_cast<double>(tracing_->fault_traces());
    double attributed = 0;
    for (const auto& [subsystem, ns] : tracing_->fault_ns()) {
      const auto it = kLayerOf.find(subsystem);
      const std::string layer = it == kLayerOf.end() ? "other" : it->second;
      const double mean = traces > 0 ? static_cast<double>(ns) / traces : 0;
      per_layer[layer] += mean;
      attributed += mean;
    }
    for (const auto& [layer, ns] : per_layer)
      v[layer + ".fault_virt_ns"] = ns;
    const double measured = faults.mean();
    v["check.fault_traces"] = traces;
    v["check.fault_attribution_drift"] =
        measured > 0 ? std::abs(attributed - measured) / measured : 0.0;
    v["compress.pages_decompressed"] = static_cast<double>(
        tracing_->site_calls("compress.decompress.page"));
    v["obs.spans"] =
        static_cast<double>(tracing_->tracer().spans_recorded());
    v["obs.traces_evicted"] =
        static_cast<double>(tracing_->tracer().traces_evicted());
    v["obs.background_traces"] =
        static_cast<double>(tracing_->background_traces());

    h["sim.background_host_s"] = spans_.site_ns(Site::kRunUntil) / 1e9;
    const auto touches = spans_.site_calls(Site::kTouch);
    h["swap.host_ns_per_touch"] =
        touches > 0 ? static_cast<double>(spans_.site_ns(Site::kTouch)) /
                          static_cast<double>(touches)
                    : 0.0;
    for (std::size_t i = 0; i < kSiteNames.size(); ++i) {
      h[std::string("span.") + kSiteNames[i] + "_s"] = spans_.ns[i] / 1e9;
      v[std::string("span.") + kSiteNames[i] + "_calls"] =
          static_cast<double>(spans_.calls[i]);
    }
  }
  out.attempted = attempted_;
  out.failed = latency_.failed();
  out.mismatches += mismatches_;
  out.errors.insert(out.errors.end(), errors_.begin(), errors_.end());
  out.op_errors = op_errors_;
}

void Bench::time_codecs(const swap::PageContentFn& content, bool compression,
                        bool ec, Output& out) const {
  constexpr std::size_t kPages = 256;
  constexpr int kRounds = 5;
  auto median = [](std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
  };
  compress::PageCompressor compressor(compress::GranularityMode::kFour);
  std::vector<std::vector<std::byte>> pages(
      kPages, std::vector<std::byte>(compress::kPageSize));
  for (std::size_t p = 0; p < kPages; ++p) content(p, pages[p]);

  double compress_ns = 0;
  double decompress_ns = 0;
  std::vector<compress::CompressedPage> packed(kPages);
  if (compression) {
    std::vector<double> c_rounds;
    std::vector<double> d_rounds;
    auto restored = pages;
    for (int round = 0; round < kRounds; ++round) {
      auto t0 = Clock::now();
      for (std::size_t p = 0; p < kPages; ++p)
        packed[p] = compressor.compress(pages[p]);
      c_rounds.push_back(seconds_since(t0) * 1e9 / kPages);
      bool decoded = true;
      t0 = Clock::now();
      for (std::size_t p = 0; p < kPages; ++p)
        decoded &= compressor.decompress(packed[p], restored[p]).ok();
      d_rounds.push_back(seconds_since(t0) * 1e9 / kPages);
      if (!decoded || restored != pages)
        out.errors.push_back("codec timing: decompress mismatch");
    }
    compress_ns = median(c_rounds);
    decompress_ns = median(d_rounds);
  }
  out.host["compress.host_ns_per_page"] = compress_ns;
  out.host["compress.host_ns_per_decompress"] = decompress_ns;

  double encode_ns = 0;
  double reconstruct_ns = 0;
  if (ec) {
    // A stripe payload is one swap-out batch: 8 pages, compressed.
    auto codec = ec::RsCodec::make(4, 2);
    if (!codec.ok()) {
      out.errors.push_back("codec timing: " + codec.status().to_string());
      return;
    }
    std::vector<std::vector<std::byte>> payloads;
    for (std::size_t b = 0; b + 8 <= kPages; b += 8) {
      std::vector<std::byte> payload;
      for (std::size_t p = b; p < b + 8; ++p) {
        const auto& bytes = compression ? packed[p].data : pages[p];
        payload.insert(payload.end(), bytes.begin(), bytes.end());
      }
      payloads.push_back(std::move(payload));
    }
    std::vector<double> e_rounds;
    std::vector<double> r_rounds;
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::vector<std::vector<std::byte>>> stripes;
      auto t0 = Clock::now();
      for (const auto& payload : payloads) {
        auto shards = codec->encode(payload);
        if (!shards.ok()) {
          out.errors.push_back("codec timing: encode failed");
          return;
        }
        stripes.push_back(std::move(*shards));
      }
      e_rounds.push_back(seconds_since(t0) * 1e9 /
                         static_cast<double>(payloads.size()));
      // A degraded read after one host crash: one data shard missing.
      for (auto& stripe : stripes) stripe[1].clear();
      t0 = Clock::now();
      for (auto& stripe : stripes)
        if (!codec->reconstruct(stripe).ok())
          out.errors.push_back("codec timing: reconstruct failed");
      r_rounds.push_back(seconds_since(t0) * 1e9 /
                         static_cast<double>(stripes.size()));
    }
    encode_ns = median(e_rounds);
    reconstruct_ns = median(r_rounds);
  }
  out.host["ec.host_ns_per_encode"] = encode_ns;
  out.host["ec.host_ns_per_reconstruct"] = reconstruct_ns;
}

// Reads page `page` back through `manager` and compares it with the
// generator's bytes. Returns false on a failed read or a mismatch.
bool page_matches(swap::SwapManager& manager, std::uint64_t page,
                  const swap::PageContentFn& content,
                  std::vector<std::byte>& expect) {
  auto bytes = manager.resident_bytes(page);
  if (!bytes.ok()) return false;
  content(page, expect);
  return std::equal(bytes->begin(), bytes->end(), expect.begin(),
                    expect.end());
}

std::function<bool(net::NodeId)> node_up(core::DmSystem& system) {
  return [&system](net::NodeId node) { return system.fabric().node_up(node); };
}

// ---------------------------------------------------------------------------
// Closed-loop single-client workloads: ml_scan and kv_zipf_ec.

struct ClosedLoopSpec {
  std::string_view app;
  std::size_t nodes = 4;
  std::uint64_t pages = 0;
  std::uint64_t ops = 0;  // 0 = app.iterations passes over `pages`
  bool kv = false;        // zipf keys with a 90/10 read/write mix
  bool preload = false;   // touch every page once before measuring
  bool ec = false;        // RS(4,2) remote memory, crash at one third
  std::uint64_t server_bytes = 6 * MiB;
};

Output run_closed_loop(Bench& bench, const ClosedLoopSpec& spec) {
  Output out;
  const workloads::AppSpec app = *workloads::find_app(spec.app);
  auto setup = swap::make_system(swap::SystemKind::kFastSwap, spec.pages / 2);
  core::DmSystem::Config config;
  config.node_count = spec.nodes;
  config.node.shm.arena_bytes = 32 * MiB;
  config.node.recv.arena_bytes = 32 * MiB;
  config.node.disk.capacity_bytes = 128 * MiB;
  config.service = setup.service;
  if (spec.ec) {
    setup.ldmc.shm_fraction = 0.0;
    setup.ldmc.allow_disk = false;
    config.service.rdmc.ec_k = 4;
    config.service.rdmc.ec_r = 2;
    config.service.rdmc.min_shards = 4;
    config.repair.enabled = true;
    config.repair.scan_period = 100 * kMilli;
    config.repair.max_repairs_per_scan = 256;
  }
  auto system = bench.build(config);
  auto& sim = system->simulator();
  core::Ldmc& client =
      bench.create_server(*system, 0, spec.server_bytes, setup.ldmc);
  const swap::PageContentFn content =
      workloads::content_for(app, bench.seed());
  auto manager =
      bench.make_manager(*system, client, setup.swap, content, "tenant.0");

  const auto preload_started = Clock::now();
  if (spec.preload) {
    for (std::uint64_t p = 0; p < spec.pages; ++p) {
      const Status status = manager->touch(p, false);
      if (!status.ok()) {
        out.errors.push_back("preload: " + status.to_string());
        return out;
      }
    }
  }
  const double preload_s = spec.preload ? seconds_since(preload_started) : 0;

  // The op script, generated from the seed before the first op.
  Rng rng(mix64(bench.seed()));
  std::vector<std::pair<std::uint64_t, bool>> script;
  if (spec.kv) {
    ZipfGenerator keys(spec.pages, app.zipf_theta);
    for (std::uint64_t i = 0; i < spec.ops; ++i) {
      const bool write = rng.bernoulli(0.1);
      script.emplace_back(keys.next(rng), write);
    }
  } else {
    for (int pass = 0; pass < app.iterations; ++pass)
      for (std::uint64_t p = 0; p < spec.pages; ++p)
        script.emplace_back(p, rng.bernoulli(0.25));
  }
  const std::size_t crash_at = spec.ec ? script.size() / 3 : script.size();
  const std::size_t sample_every = script.size() / kFootprintSamples;

  bench.begin_measured(*system, preload_s);
  for (std::size_t i = 0; i < script.size(); ++i) {
    if (i == crash_at) {
      // The busiest shard host other than the client's own node.
      std::size_t victim = 1;
      for (std::size_t n = 1; n < system->node_count(); ++n)
        if (system->service(n).rdms().hosted_blocks() >
            system->service(victim).rdms().hosted_blocks())
          victim = n;
      bench.crash(*system, victim);
    }
    // Closed loop: the op is due once the app's compute charge after the
    // previous op has elapsed; the charge itself is not op latency.
    bench.run_until(sim, sim.now() + app.cpu_ns_per_access);
    const SimTime due = sim.now();
    const Status status =
        bench.touch(*manager, script[i].first, script[i].second);
    bench.record_op(status, due, sim.now());
    bench.between_ops(sim);
    if ((i + 1) % sample_every == 0) {
      Bench::Unmeasured pause(bench);
      bench.sample_footprint(
          perfbench::held_bytes(client.map(), node_up(*system)),
          manager->backed_count() * swap::kPageBytes);
    }
  }
  bench.end_measured(*system, sim.now(),
                     {manager->swap_ins(), manager->swap_outs()}, out);
  if (bench.traced())
    bench.time_codecs(content, setup.swap.compression !=
                                   swap::CompressionMode::kOff,
                      spec.ec, out);

  // Correctness: every page of the working set reads back byte for byte.
  std::vector<std::byte> expect(swap::kPageBytes);
  for (std::uint64_t p = 0; p < spec.pages; ++p) {
    const Status status = manager->touch(p, false);
    if (!status.ok() || !page_matches(*manager, p, content, expect)) {
      out.mismatches++;
      if (out.errors.size() < 10)
        out.errors.push_back(
            "page " + std::to_string(p) + " read back " +
            (status.ok() ? "wrong bytes" : status.to_string()));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Open-loop 128-node churn (the adaptive soak of bench_cluster_scale).

Output run_cluster_churn(Bench& bench) {
  Output out;
  constexpr std::size_t kNodes = 128;
  auto setup = swap::make_system(swap::SystemKind::kFastSwap, 48);
  setup.service.rdmc.placement = cluster::PlacementPolicyKind::kLoadAware;
  setup.swap.compression = swap::CompressionMode::kOff;
  setup.service.eviction.enabled = true;

  core::DmSystem::Config config;
  config.node_count = kNodes;
  config.group_size = 16;
  config.node.shm.arena_bytes = 256 * KiB;
  config.node.recv.arena_bytes = 1 * MiB;
  config.node.disk.capacity_bytes = 24 * MiB;
  config.service = setup.service;
  config.harvest_enabled = true;
  config.harvest_period = 500 * kMilli;
  config.harvest.hot_ratio = 3.0;
  config.harvest.min_pressure = 64;
  config.harvest.migrate_entries_per_action = 8;
  config.harvest.max_actions_per_tick = 2;
  config.harvest.reclaim_free_watermark = 0.45;
  config.regroup_low_watermark = 0.5;
  config.regroup_check_period = 500 * kMilli;
  auto system = bench.build(config);
  auto& sim = system->simulator();
  // One idle tenant per node funds the donated pools.
  for (std::size_t n = 0; n < kNodes; ++n)
    (void)bench.create_server(*system, n, 8 * MiB, {});

  sim::ScenarioEngine::Config scenario;
  scenario.seed = bench.seed();
  scenario.node_count = kNodes;
  scenario.initial_tenants = kNodes / 8;
  scenario.max_tenants = kNodes / 4;
  scenario.mean_arrival_gap = 250 * kMilli;
  scenario.mean_lifetime = 8 * kSecond;
  scenario.min_working_set = 96;
  scenario.max_working_set = 384;
  scenario.node_skew = 0.8;
  scenario.mean_op_gap = 2 * kMilli;
  scenario.duration = 10 * kSecond;
  sim::ScenarioEngine engine(scenario);
  const workloads::AppSpec app = *workloads::find_app("LogisticRegression");

  struct Tenant {
    core::Ldmc* client = nullptr;
    std::unique_ptr<swap::SwapManager> manager;
    swap::PageContentFn content;
    std::uint64_t working_set = 0;
  };
  std::map<sim::ScenarioEngine::TenantId, Tenant> tenants;
  // Retired tenants' swap registries stay in the hub so end-of-run deltas
  // still count their work.
  std::deque<MetricsRegistry> retired;
  Bench::SwapTotals totals;
  std::vector<std::byte> expect(swap::kPageBytes);

  // Footprint samples at fixed fractions of the scenario span.
  auto sample = [&] {
    Bench::Unmeasured pause(bench);
    std::uint64_t held = 0;
    std::uint64_t logical = 0;
    for (const auto& [id, tenant] : tenants) {
      held += perfbench::held_bytes(tenant.client->map(), node_up(*system));
      logical += tenant.manager->backed_count() * swap::kPageBytes;
    }
    bench.sample_footprint(held, logical);
  };

  bench.begin_measured(*system, 0.0);
  engine.start(sim.now());
  const SimTime horizon = sim.now() + scenario.duration;
  const SimTime sample_gap = scenario.duration / kFootprintSamples;
  SimTime next_sample = sim.now() + sample_gap;
  for (;;) {
    const auto op = engine.next();
    while (next_sample <= op.at && next_sample <= horizon) {
      if (next_sample > sim.now()) bench.run_until(sim, next_sample);
      sample();
      next_sample += sample_gap;
    }
    if (op.kind == sim::ScenarioEngine::Op::Kind::kDone) break;
    if (op.at > sim.now()) bench.run_until(sim, op.at);
    bench.record_late(sim.now() - op.at);
    switch (op.kind) {
      case sim::ScenarioEngine::Op::Kind::kSpawn: {
        auto& tenant = tenants[op.tenant];
        tenant.client = &bench.create_server(*system, op.home % kNodes,
                                             4 * MiB, setup.ldmc);
        tenant.content =
            workloads::content_for(app, mix64(bench.seed() * 1000 + op.tenant));
        tenant.working_set = op.working_set;
        tenant.manager = bench.make_manager(
            *system, *tenant.client, setup.swap, tenant.content,
            "tenant." + std::to_string(op.tenant));
        break;
      }
      case sim::ScenarioEngine::Op::Kind::kAccess: {
        auto it = tenants.find(op.tenant);
        if (it == tenants.end()) break;
        const Status status = bench.touch(*it->second.manager, op.index,
                                          op.write);
        bench.record_op(status, op.at, sim.now());
        break;
      }
      case sim::ScenarioEngine::Op::Kind::kRetire: {
        auto it = tenants.find(op.tenant);
        if (it == tenants.end()) break;
        Tenant& tenant = it->second;
        {
          // Correctness: every resident page still holds the generator's
          // bytes (read in place, so the schedule is unchanged).
          Bench::Unmeasured pause(bench);
          for (std::uint64_t p = 0; p < tenant.working_set; ++p)
            if (tenant.manager->is_resident(p) &&
                !page_matches(*tenant.manager, p, tenant.content, expect))
              bench.mismatch("tenant " + std::to_string(op.tenant) +
                             " page " + std::to_string(p) +
                             " wrong at retirement");
        }
        // Free every backing entry (sorted for a deterministic RPC order).
        std::vector<mem::EntryId> entries;
        tenant.client->map().for_each(
            [&entries](mem::EntryId id, const mem::EntryLocation&) {
              entries.push_back(id);
            });
        std::sort(entries.begin(), entries.end());
        for (mem::EntryId id : entries) {
          const Status status = bench.remove(*tenant.client, id);
          if (!status.ok())
            bench.mismatch("retire remove: " + status.to_string());
        }
        const std::string prefix = "tenant." + std::to_string(op.tenant);
        totals.swap_ins += tenant.manager->swap_ins();
        totals.swap_outs += tenant.manager->swap_outs();
        retired.push_back(tenant.manager->metrics());
        system->hub().remove(prefix);
        system->hub().add(prefix, &retired.back());
        tenants.erase(it);
        break;
      }
      case sim::ScenarioEngine::Op::Kind::kDone:
        break;
    }
    bench.between_ops(sim);
  }
  for (const auto& [id, tenant] : tenants) {
    totals.swap_ins += tenant.manager->swap_ins();
    totals.swap_outs += tenant.manager->swap_outs();
  }
  bench.end_measured(*system, sim.now(), totals, out);
  if (bench.traced())
    bench.time_codecs(workloads::content_for(app, bench.seed()), false, false,
                      out);
  return out;
}

// ---------------------------------------------------------------------------

void print_json(const std::string& workload, std::uint64_t seed, bool traced,
                const Output& out) {
  auto number = [](double x) {
    if (!std::isfinite(x)) return std::string("null");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return std::string(buf);
  };
  auto quoted = [](const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return q + "\"";
  };
  auto dict = [&](const std::map<std::string, double>& m) {
    std::string s = "{";
    for (const auto& [k, x] : m)
      s += (s.size() > 1 ? ", " : "") + quoted(k) + ": " + number(x);
    return s + "}";
  };
  std::string bases = "{";
  for (const auto& [k, nb] : out.bases)
    bases += (bases.size() > 1 ? ", " : "") + quoted(k) + ": [" +
             number(nb.first) + ", " + number(nb.second) + "]";
  bases += "}";
  auto list = [&](const std::vector<std::string>& items) {
    std::string s = "[";
    for (const auto& e : items) s += (s.size() > 1 ? ", " : "") + quoted(e);
    return s + "]";
  };

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto host = out.host;
  host["host_peak_rss_mib"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"attempted\": %llu, "
      "\"failed\": %llu, \"mismatches\": %llu, \"virt\": %s, \"host\": %s, "
      "\"bases\": %s, \"errors\": %s, \"op_errors\": %s}\n",
      quoted(workload).c_str(), static_cast<unsigned long long>(seed),
      traced ? 1 : 0, static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed),
      static_cast<unsigned long long>(out.mismatches), dict(out.virt).c_str(),
      dict(host).c_str(), bases.c_str(), list(out.errors).c_str(),
      list(out.op_errors).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != argv[i] && *end == '\0';
    } else if (arg == "--trace") {
      traced = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (!have_seed) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "[--trace]\n");
    return 2;
  }
  Bench bench(seed, traced);
  Output out;
  if (workload == "ml_scan") {
    // Fig 6/7: LogisticRegression scan, 50% resident, 4 nodes.
    out = run_closed_loop(bench, {.app = "LogisticRegression",
                                  .nodes = 4,
                                  .pages = 8192});
  } else if (workload == "kv_zipf_ec") {
    // Fig 8/9 ETC mix over RS(4,2) remote memory on 8 nodes, with a crash.
    out = run_closed_loop(bench, {.app = "Memcached",
                                  .nodes = 8,
                                  .pages = 2048,
                                  .ops = 200000,
                                  .kv = true,
                                  .preload = true,
                                  .ec = true,
                                  .server_bytes = 2 * MiB});
  } else if (workload == "cluster_churn") {
    out = run_cluster_churn(bench);
  } else {
    std::fprintf(stderr,
                 "unknown workload '%s' (ml_scan, kv_zipf_ec, "
                 "cluster_churn)\n",
                 workload.c_str());
    return 2;
  }
  print_json(workload, seed, traced, out);
  return 0;
}
