// dm_top — cluster observability console for the simulated DM system.
//
// Builds a seeded cluster, drives a mixed put/get workload across every
// node, and renders the operator view assembled by the MetricsHub: a
// per-node table of tier hits and access-latency percentiles, the RPC
// round-trip summary, and (on request) the raw machine-readable exports.
//
// Usage:
//   dm_top [--nodes N] [--servers-per-node N] [--ops N] [--seed S]
//          [--json] [--prom] [--trace-out FILE] [--flight-dir DIR]
//          [--slo SPEC]... [--chaos]
//
// --json / --prom dump the merged snapshot in JSON / Prometheus text
// exposition format instead of the table (both are deterministic for a
// fixed seed, so they diff cleanly across runs).
//
// Diagnosis mode (see README "Diagnosing a slow fault"):
//   --trace-out FILE   attach a causal span tracer and write the Chrome
//                      trace-event JSON (load in Perfetto / about:tracing);
//                      also prints the slowest trace's critical path.
//   --flight-dir DIR   keep per-node flight-recorder rings and dump
//                      flight_<node>.json into DIR at exit (and at every
//                      injected fault when --chaos is on).
//   --slo SPEC         evaluate a declarative SLO (repeatable), e.g.
//                      "p99 rpc.rtt < 40us over 200ms"; alerts print on
//                      exit and the process exits 1 if any page fired.
//   --chaos            crash a node mid-workload (with recovery), so the
//                      fault machinery above has something to show.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "core/node_service.h"
#include "obs/flight_recorder.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "sim/chaos_schedule.h"
#include "sim/failure_injector.h"

namespace {

using namespace dm;

struct Options {
  std::size_t nodes = 4;
  std::size_t servers_per_node = 1;
  std::uint64_t ops = 400;
  std::uint64_t seed = 42;
  bool json = false;
  bool prom = false;
  std::string trace_out;
  std::string flight_dir;
  std::vector<std::string> slos;
  bool chaos = false;
};

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "dm_top: bad value for %s: %s\n", flag, s);
    std::exit(2);
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dm_top: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--nodes") == 0) {
      opt.nodes = parse_u64(next("--nodes"), "--nodes");
    } else if (std::strcmp(argv[i], "--servers-per-node") == 0) {
      opt.servers_per_node =
          parse_u64(next("--servers-per-node"), "--servers-per-node");
    } else if (std::strcmp(argv[i], "--ops") == 0) {
      opt.ops = parse_u64(next("--ops"), "--ops");
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opt.seed = parse_u64(next("--seed"), "--seed");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json = true;
    } else if (std::strcmp(argv[i], "--prom") == 0) {
      opt.prom = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      opt.trace_out = next("--trace-out");
    } else if (std::strcmp(argv[i], "--flight-dir") == 0) {
      opt.flight_dir = next("--flight-dir");
    } else if (std::strcmp(argv[i], "--slo") == 0) {
      opt.slos.emplace_back(next("--slo"));
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      opt.chaos = true;
    } else {
      std::fprintf(stderr,
                   "usage: dm_top [--nodes N] [--servers-per-node N] "
                   "[--ops N] [--seed S] [--json] [--prom] "
                   "[--trace-out FILE] [--flight-dir DIR] [--slo SPEC]... "
                   "[--chaos]\n");
      std::exit(2);
    }
  }
  return opt;
}

std::string ns_str(std::uint64_t ns) {
  char buf[32];
  if (ns >= 1000000)
    std::snprintf(buf, sizeof(buf), "%.1fms", static_cast<double>(ns) / 1e6);
  else if (ns >= 1000)
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  else
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(ns));
  return buf;
}

// One "top" frame: per node, tier-hit counters and get-latency
// percentiles pulled from the merged hub snapshot.
void render_table(core::DmSystem& system) {
  const MetricsRegistry merged = system.hub().merged();
  std::printf("t=%.3fms  sources=%zu\n",
              static_cast<double>(system.simulator().now()) / 1e6,
              system.hub().source_count());
  std::printf(
      "%-5s %9s %9s %9s %9s | %-21s %-21s %-21s\n", "node", "put:shm",
      "remote", "disk", "nvm", "get shm p50/p99", "get remote p50/p99",
      "get disk p50/p99");
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    const std::string p = "node." + std::to_string(system.node(i).id());
    auto counter = [&](const char* name) {
      return merged.counter_value(p + "." + name);
    };
    auto quantiles = [&](const char* tier) {
      const Histogram* h =
          merged.find_histogram(p + ".ldms.get_ns." + tier);
      if (h == nullptr || h->count() == 0) return std::string("-");
      return ns_str(h->p50()) + "/" + ns_str(h->p99());
    };
    std::printf("%-5u %9llu %9llu %9llu %9llu | %-21s %-21s %-21s\n",
                system.node(i).id(),
                static_cast<unsigned long long>(counter("ldms.put_shm")),
                static_cast<unsigned long long>(counter("ldms.put_remote")),
                static_cast<unsigned long long>(counter("ldms.put_disk")),
                static_cast<unsigned long long>(counter("ldms.put_nvm")),
                quantiles("shm").c_str(), quantiles("remote").c_str(),
                quantiles("disk").c_str());
  }
  // Cluster-wide RPC round-trips, one row per labeled method.
  std::printf("\nrpc round-trips (all nodes):\n");
  bool any = false;
  for (const auto& [name, h] : merged.histograms()) {
    const auto pos = name.find(".rpc.rtt.");
    if (pos == std::string::npos || h.count() == 0) continue;
    // Aggregate across nodes by method label.
    any = true;
  }
  if (any) {
    // Merge per-node histograms by method label for a compact summary.
    std::map<std::string, Histogram> by_method;
    for (const auto& [name, h] : merged.histograms()) {
      const auto pos = name.find(".rpc.rtt.");
      if (pos == std::string::npos) continue;
      by_method[name.substr(pos + 9)].merge(h);
    }
    for (const auto& [method, h] : by_method) {
      if (h.count() == 0) continue;
      std::printf("  %-18s calls=%-8llu p50=%-10s p99=%-10s max=%s\n",
                  method.c_str(),
                  static_cast<unsigned long long>(h.count()),
                  ns_str(h.p50()).c_str(), ns_str(h.p99()).c_str(),
                  ns_str(h.max()).c_str());
    }
  } else {
    std::printf("  (none recorded)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  core::DmSystem::Config config;
  config.node_count = opt.nodes;
  // Small shm arena so the default workload spills across tiers and the
  // table shows remote/disk traffic, not just shm hits.
  config.node.shm.arena_bytes = 256 * KiB;
  config.node.recv.arena_bytes = 16 * MiB;
  config.node.disk.capacity_bytes = 64 * MiB;
  config.seed = opt.seed;
  core::DmSystem system(config);
  system.start();

  // Diagnosis instrumentation (all optional; absent flags leave the run
  // byte-identical to an uninstrumented one).
  const bool want_spans = !opt.trace_out.empty() || !opt.flight_dir.empty();
  std::unique_ptr<obs::SpanTracer> tracer;
  std::unique_ptr<obs::FlightRecorder> flight;
  if (want_spans) {
    tracer = std::make_unique<obs::SpanTracer>(system.simulator());
    if (!opt.flight_dir.empty()) {
      flight = std::make_unique<obs::FlightRecorder>(system.simulator());
      tracer->set_flight_recorder(flight.get());
    }
    system.set_span_sink(tracer.get());
  }
  std::unique_ptr<obs::SloMonitor> slo;
  if (!opt.slos.empty()) {
    slo = std::make_unique<obs::SloMonitor>(system.simulator(),
                                            system.hub());
    for (const std::string& spec : opt.slos) {
      const Status added = slo->add_spec(spec);
      if (!added.ok()) {
        std::fprintf(stderr, "dm_top: bad --slo spec \"%s\": %s\n",
                     spec.c_str(), added.to_string().c_str());
        return 2;
      }
    }
    slo->start();
  }
  std::unique_ptr<sim::ChaosSchedule> chaos;
  if (opt.chaos) {
    if (flight != nullptr) {
      // Crash-time dump: snapshot every ring the moment the fault fires,
      // before repair traffic overwrites the recent history.
      system.failures().set_fault_listener([&](std::string_view label) {
        (void)flight->dump_all(opt.flight_dir, std::string(label));
      });
    }
    sim::ChaosSchedule::Hooks hooks;
    hooks.crash_node = [&](sim::ChaosSchedule::NodeRef n) {
      system.crash_node(n);
    };
    hooks.recover_node = [&](sim::ChaosSchedule::NodeRef n) {
      system.recover_node(n);
    };
    chaos = std::make_unique<sim::ChaosSchedule>(system.failures(),
                                                 std::move(hooks));
  }

  // One server per node; a mixed shm/remote split (paper's FS-1:1 point)
  // so both the shm and remote tier columns move.
  core::LdmcOptions mixed;
  mixed.shm_fraction = 0.5;
  std::vector<core::Ldmc*> clients;
  for (std::size_t n = 0; n < opt.nodes; ++n)
    for (std::size_t s = 0; s < opt.servers_per_node; ++s)
      clients.push_back(&system.create_server(n, 8 * MiB, mixed));

  Rng rng(mix64(opt.seed ^ 0x70D0ULL));
  std::vector<std::byte> page(4096);
  std::vector<std::byte> out(4096);
  for (std::uint64_t op = 0; op < opt.ops; ++op) {
    if (chaos != nullptr && op == opt.ops / 2) {
      // Crash the last node halfway through the ops, now. The ops take a
      // few virtual ms, so its recovery 100 ms later lands in the settle
      // window below.
      chaos->crash(system.simulator().now(),
                   static_cast<sim::ChaosSchedule::NodeRef>(
                       system.node(opt.nodes - 1).id()),
                   100 * kMilli);
    }
    auto& client = *clients[op % clients.size()];
    const mem::EntryId entry = op / clients.size();
    for (auto& b : page)
      b = static_cast<std::byte>(rng.next_below(256));
    if (!client.put_sync(entry, page).ok()) continue;
    if (op % 3 == 0) (void)client.get_sync(entry, out);
  }
  system.run_for(100 * kMilli);  // let heartbeats settle

  int exit_code = 0;
  if (tracer != nullptr && !opt.trace_out.empty()) {
    std::ofstream file(opt.trace_out,
                       std::ios::binary | std::ios::trunc);
    if (!file) {
      std::fprintf(stderr, "dm_top: cannot write %s\n",
                   opt.trace_out.c_str());
      return 2;
    }
    file << tracer->chrome_trace_json();
  }
  if (flight != nullptr) {
    // Explicit operator request: dump every ring as it stands at exit.
    (void)flight->dump_all(opt.flight_dir, "dm_top");
  }
  if (slo != nullptr) {
    const std::string alerts = slo->alerts_text();
    std::printf("\nslo alerts (%zu):\n%s", slo->alerts().size(),
                alerts.empty() ? "  (none)\n" : alerts.c_str());
    for (const auto& alert : slo->alerts())
      if (alert.page) exit_code = 1;
  }

  if (opt.json) {
    std::fputs(system.hub().snapshot_json().c_str(), stdout);
    return exit_code;
  }
  if (opt.prom) {
    std::fputs(system.hub().prometheus_text().c_str(), stdout);
    return exit_code;
  }
  render_table(system);

  if (tracer != nullptr) {
    // Critical path of the slowest completed trace: where did the virtual
    // time actually go? (The same accounting the profiler aggregates.)
    std::uint64_t slowest_trace = 0;
    obs::SpanTracer::Breakdown slowest;
    for (std::uint64_t trace : tracer->completed_traces()) {
      obs::SpanTracer::Breakdown b = tracer->breakdown(trace);
      if (slowest_trace == 0 || b.total > slowest.total) {
        slowest_trace = trace;
        slowest = std::move(b);
      }
    }
    if (slowest_trace != 0) {
      const auto* spans = tracer->spans(slowest_trace);
      const std::string root =
          spans != nullptr && !spans->empty() ? (*spans)[0].name : "?";
      std::printf("\nslowest trace %s (%s, %s total), critical path:\n",
                  obs::span_trace_label(slowest_trace).c_str(),
                  root.c_str(),
                  ns_str(static_cast<std::uint64_t>(slowest.total)).c_str());
      for (const auto& [subsystem, ns] : slowest.by_subsystem)
        std::printf("  %-10s %s\n", subsystem.c_str(),
                    ns_str(static_cast<std::uint64_t>(ns)).c_str());
    }
  }
  return exit_code;
}
