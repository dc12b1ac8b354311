// Tests for the causal span substrate: SpanTracer parenting and critical-path
// breakdown, Chrome trace export determinism, completed-trace eviction, the
// flight recorder's rings and dump files, and end-to-end span chains through
// DmSystem swapping (a write-back flush's chain must cross the swapping and
// serving node, and no fault's chain may hold swap-out work).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "core/node_service.h"
#include "mem/memory_map.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "sim/simulator.h"
#include "sim/span_sink.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/app_catalog.h"
#include "workloads/driver.h"

namespace dm {
namespace {

// ---- SpanTracer mechanics ---------------------------------------------------

TEST(SpanTracer, ParentingFollowsNesting) {
  sim::Simulator sim;
  obs::SpanTracer tracer(sim);
  const std::uint64_t trace = 7;
  const std::uint64_t root = tracer.begin_span(trace, 0, "swap", "swap.fault");
  const std::uint64_t child = tracer.begin_span(trace, 0, "net", "rpc.get");
  tracer.end_span(child);
  tracer.end_span(root);

  const auto* spans = tracer.spans(trace);
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->size(), 2u);
  EXPECT_EQ((*spans)[0].parent, 0u);
  EXPECT_EQ((*spans)[0].depth, 0u);
  EXPECT_EQ((*spans)[1].parent, root);
  EXPECT_EQ((*spans)[1].depth, 1u);
  EXPECT_EQ(tracer.completed_traces(), std::vector<std::uint64_t>{trace});
}

TEST(SpanTracer, UntracedSpansAreDropped) {
  sim::Simulator sim;
  obs::SpanTracer tracer(sim);
  EXPECT_EQ(tracer.begin_span(0, 0, "swap", "swap.fault"), 0u);
  tracer.end_span(0);  // must be a safe no-op
  EXPECT_EQ(tracer.spans_recorded(), 0u);
  EXPECT_EQ(tracer.spans_dropped(), 1u);
  EXPECT_TRUE(tracer.completed_traces().empty());
}

TEST(SpanTracer, BreakdownAttributesEveryInstantExactlyOnce) {
  sim::Simulator sim;
  obs::SpanTracer tracer(sim);
  const std::uint64_t trace = 9;
  std::uint64_t root = 0, child = 0;
  // Root [0, 400); child [100, 300) on another subsystem. Self times:
  // swap = 400 - 200 = 200, net = 200.
  sim.schedule_after(0, [&] {
    // dm-lint: allow(span-unclosed) — closed by a later scheduled event.
    root = tracer.begin_span(trace, 0, "swap", "swap.fault");
  });
  sim.schedule_after(100, [&] {
    // dm-lint: allow(span-unclosed) — closed by a later scheduled event.
    child = tracer.begin_span(trace, 0, "net", "rpc.get");
  });
  sim.schedule_after(300, [&] { tracer.end_span(child); });
  sim.schedule_after(400, [&] { tracer.end_span(root); });
  sim.run_until(kMilli);

  const obs::SpanTracer::Breakdown b = tracer.breakdown(trace);
  EXPECT_EQ(b.total, 400);
  EXPECT_EQ(b.by_subsystem.at("swap"), 200);
  EXPECT_EQ(b.by_subsystem.at("net"), 200);
  SimTime sum = 0;
  for (const auto& [subsystem, ns] : b.by_subsystem) sum += ns;
  EXPECT_EQ(sum, b.total);
  EXPECT_EQ(b.span_counts.at("swap.swap.fault"), 1u);
  EXPECT_EQ(b.span_counts.at("net.rpc.get"), 1u);
}

TEST(SpanTracer, CompletedTraceEvictionIsFifoAndCounted) {
  sim::Simulator sim;
  obs::SpanTracer tracer(sim);
  const std::uint64_t last = obs::SpanTracer::kMaxTraces + 1;
  for (std::uint64_t trace = 1; trace <= last; ++trace) {
    const std::uint64_t span = tracer.begin_span(trace, 0, "swap", "x");
    tracer.end_span(span);
  }
  EXPECT_EQ(tracer.traces_evicted(), 1u);
  const auto completed = tracer.completed_traces();
  ASSERT_EQ(completed.size(), obs::SpanTracer::kMaxTraces);
  EXPECT_EQ(completed.front(), 2u);
  EXPECT_EQ(completed.back(), last);
  EXPECT_EQ(tracer.spans(1), nullptr);  // oldest trace evicted
}

TEST(SpanTracer, ChromeTraceJsonIsDeterministic) {
  auto build = [] {
    sim::Simulator sim;
    obs::SpanTracer tracer(sim);
    std::uint64_t a = 0, b = 0;
    // dm-lint: allow(span-unclosed) — closed by later scheduled events.
    sim.schedule_after(10, [&] { a = tracer.begin_span(5, 1, "swap", "swap.fault"); });
    // dm-lint: allow(span-unclosed) — closed by later scheduled events.
    sim.schedule_after(20, [&] { b = tracer.begin_span(5, 2, "remote", "rpc.get"); });
    sim.schedule_after(30, [&] { tracer.end_span(b); });
    sim.schedule_after(40, [&] { tracer.end_span(a); });
    sim.run_until(kMilli);
    return tracer.chrome_trace_json();
  };
  const std::string first = build();
  EXPECT_EQ(first, build());
  EXPECT_NE(first.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(first.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(first.find("swap.fault"), std::string::npos);
  EXPECT_NE(first.find("\"pid\": 1"), std::string::npos);  // pid = node id
  EXPECT_NE(first.find("\"pid\": 2"), std::string::npos);
}

TEST(SpanTracer, DrainCompletedFeedsProfilerOnce) {
  sim::Simulator sim;
  obs::SpanTracer tracer(sim);
  sim.schedule_after(0, [&] {
    const std::uint64_t span = tracer.begin_span(3, 0, "swap", "swap.fault");
    sim.schedule_after(250, [&tracer, span] { tracer.end_span(span); });
  });
  sim.run_until(kMilli);

  obs::Profiler profiler(sim);
  EXPECT_EQ(profiler.ingest_all(tracer), 1u);
  EXPECT_EQ(profiler.ingest_all(tracer), 0u);  // drained
  ASSERT_EQ(profiler.roots().count("swap.fault"), 1u);
  EXPECT_EQ(profiler.roots().at("swap.fault").count, 1u);
  EXPECT_EQ(profiler.roots().at("swap.fault").total_ns, 250);
  EXPECT_EQ(profiler.by_subsystem().at("swap"), 250);
}

// ---- sim::span_completion ---------------------------------------------------

// Passive sink recording when each span opened and every close it got.
struct RecordingSink final : sim::SpanSink {
  explicit RecordingSink(sim::Simulator& simulator) : sim(simulator) {}
  std::uint64_t begin_span(std::uint64_t, std::uint32_t, std::string_view,
                           std::string_view) override {
    begins.push_back(sim.now());
    return begins.size();
  }
  void end_span(std::uint64_t span) override {
    ends.emplace_back(span, sim.now());
  }
  void event(std::uint64_t, std::uint32_t, std::string_view,
             std::string_view) override {}
  sim::Simulator& sim;
  std::vector<SimTime> begins;
  std::vector<std::pair<std::uint64_t, SimTime>> ends;
};

TEST(SpanCompletion, ClosesOnceWhenTheCompletionFires) {
  sim::Simulator sim;
  RecordingSink sink(sim);
  using Done = std::function<void(std::vector<int>, int)>;
  Done done;
  std::vector<int> got;
  sim.schedule_at(100, [&] {
    done = sim::span_completion(&sink, 7, 0, "net", "fabric.write",
                                Done([&](std::vector<int> v, int tail) {
                                  got = std::move(v);
                                  got.push_back(tail);
                                }));
  });
  sim.schedule_at(350, [&] { done({1, 2}, 3); });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sink.begins, std::vector<SimTime>{100});
  ASSERT_EQ(sink.ends.size(), 1u);
  EXPECT_EQ(sink.ends[0].first, 1u);
  EXPECT_EQ(sink.ends[0].second, 350);
}

TEST(SpanCompletion, UntracedOrSinklessCompletionRunsWithoutASpan) {
  sim::Simulator sim;
  obs::SpanTracer tracer(sim);
  int fired = 0;
  using Done = std::function<void()>;
  Done untraced = sim::span_completion(&tracer, 0, 0, "net", "fabric.write",
                                       Done([&] { ++fired; }));
  Done sinkless = sim::span_completion(nullptr, 7, 0, "net", "fabric.write",
                                       Done([&] { ++fired; }));
  untraced();
  sinkless();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(tracer.spans_recorded(), 0u);
  EXPECT_EQ(tracer.spans_dropped(), 0u);
}

// ---- FlightRecorder ---------------------------------------------------------

TEST(FlightRecorder, RingIsBoundedPerNode) {
  sim::Simulator sim;
  obs::FlightRecorder recorder(sim);
  const int capacity = static_cast<int>(obs::FlightRecorder::kCapacityPerNode);
  for (int i = 0; i < capacity + 6; ++i)
    recorder.record_event(i, 1, 0, "test", "event " + std::to_string(i));
  EXPECT_EQ(recorder.record_count(0), obs::FlightRecorder::kCapacityPerNode);
  EXPECT_EQ(recorder.dropped(0), 6u);
  // Oldest-first dump keeps only the newest `capacity` records.
  const std::string json = recorder.dump_json(0, "test");
  const auto event = [](int i) {
    return "\"event " + std::to_string(i) + "\"";
  };
  EXPECT_EQ(json.find(event(5)), std::string::npos);
  EXPECT_NE(json.find(event(6)), std::string::npos);
  EXPECT_NE(json.find(event(capacity + 5)), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"test\""), std::string::npos);
}

TEST(FlightRecorder, TracerForwardsClosedSpansPerNode) {
  sim::Simulator sim;
  obs::SpanTracer tracer(sim);
  obs::FlightRecorder recorder(sim);
  tracer.set_flight_recorder(&recorder);

  const std::uint64_t a = tracer.begin_span(11, 0, "swap", "swap.fault");
  const std::uint64_t b = tracer.begin_span(11, 2, "remote", "rpc.get");
  tracer.end_span(b);
  tracer.end_span(a);
  tracer.event(11, 0, "chaos", "crash scheduled");

  EXPECT_EQ(recorder.node_count(), 2u);
  EXPECT_EQ(recorder.record_count(0), 2u);  // span + event on node 0
  EXPECT_EQ(recorder.record_count(2), 1u);
  EXPECT_NE(recorder.dump_json(0, "x").find("swap.fault"), std::string::npos);
  EXPECT_NE(recorder.dump_json(2, "x").find("rpc.get"), std::string::npos);
}

TEST(FlightRecorder, DumpAllWritesOneFilePerNode) {
  sim::Simulator sim;
  obs::FlightRecorder recorder(sim);
  recorder.record_event(10, 1, 0, "test", "a");
  recorder.record_event(20, 1, 3, "test", "b");

  const std::string dir = testing::TempDir() + "flight_dump_test";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  EXPECT_EQ(recorder.dump_all(dir, "unit-test"), 2u);
  for (const int node : {0, 3}) {
    std::ifstream in(dir + "/flight_" + std::to_string(node) + ".json");
    ASSERT_TRUE(in.good()) << "missing flight_" << node << ".json";
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("\"reason\": \"unit-test\""),
              std::string::npos);
  }
}

// ---- end-to-end: spans across a real swap fault -----------------------------

TEST(SpanIntegration, SwapFaultTraceCrossesNodes) {
  auto setup = swap::make_system(swap::SystemKind::kFastSwap, 8);
  setup.ldmc.shm_fraction = 0.0;  // place every page remotely: spans must
                                  // cross the wire for this test to mean much
  core::DmSystem::Config config;
  config.node_count = 2;
  config.node.shm.arena_bytes = 4 * MiB;
  config.node.recv.arena_bytes = 8 * MiB;
  config.service = setup.service;
  config.seed = 99;
  core::DmSystem system(config);

  obs::SpanTracer tracer(system.simulator());
  system.set_span_sink(&tracer);
  system.start();

  auto& client = system.create_server(0, 4 * MiB, setup.ldmc);
  workloads::AppSpec app = *workloads::find_app("LogisticRegression");
  swap::SwapManager manager(client, setup.swap,
                            workloads::content_for(app, 99));
  manager.set_span_sink(&tracer);

  // Two passes over more pages than fit residently: the first pass swaps
  // pages out to the remote backend, the second faults them back in.
  for (int pass = 0; pass < 2; ++pass)
    for (std::uint64_t p = 0; p < 48; ++p) ASSERT_TRUE(manager.touch(p).ok());
  ASSERT_TRUE(manager.wb_barrier().ok());
  system.run_for(100 * kMilli);

  // Swap-out runs on the swap worker, off the faulting thread: each flush
  // is its own trace, rooted in swap.writeback, and its put crosses to the
  // remote host. No fault-rooted trace holds swap-out work — no LZ pass,
  // no block allocation, no write verb.
  bool cross_node_writeback = false;
  bool writeback_allocs = false;
  std::size_t fault_traces = 0;
  for (const std::uint64_t trace : tracer.completed_traces()) {
    const auto* spans = tracer.spans(trace);
    if (spans == nullptr || spans->empty()) continue;
    const std::string& root = (*spans)[0].name;
    if (root == "swap.writeback") {
      for (const auto& span : *spans) {
        if (span.node != (*spans)[0].node) cross_node_writeback = true;
        if (span.name == "rpc.alloc_block") writeback_allocs = true;
      }
    } else if (root == "swap.fault") {
      ++fault_traces;
      for (const auto& span : *spans) {
        EXPECT_NE(span.name, "compress.page") << "trace " << trace;
        EXPECT_NE(span.name, "rpc.alloc_block") << "trace " << trace;
        EXPECT_NE(span.name, "fabric.write") << "trace " << trace;
      }
    }
  }
  EXPECT_TRUE(cross_node_writeback)
      << "no write-back trace crossed nodes; completed="
      << tracer.completed_traces().size();
  EXPECT_TRUE(writeback_allocs);
  EXPECT_GT(fault_traces, 0u);

  // The critical-path invariant holds for every completed trace.
  for (const std::uint64_t trace : tracer.completed_traces()) {
    const obs::SpanTracer::Breakdown b = tracer.breakdown(trace);
    SimTime sum = 0;
    for (const auto& [subsystem, ns] : b.by_subsystem) sum += ns;
    EXPECT_EQ(sum, b.total) << "trace " << trace;
  }
}

// A read that skips a crashed first copy posts no verb to it, so only the
// point event shows the hop: exactly one, on the reader's ring, on the
// read's trace, naming the crashed host.
TEST(SpanIntegration, SkippedCopyPutsOneFailoverEventOnReadersRing) {
  core::DmSystem::Config config;
  config.node_count = 5;
  config.node.shm.arena_bytes = 4 * MiB;
  config.node.recv.arena_bytes = 8 * MiB;
  config.service.rdmc.ec_r = 2;  // 3 copies
  core::DmSystem system(config);
  obs::SpanTracer tracer(system.simulator());
  obs::FlightRecorder recorder(system.simulator());
  tracer.set_flight_recorder(&recorder);
  system.set_span_sink(&tracer);
  system.start();
  core::LdmcOptions options;
  options.shm_fraction = 0.0;
  options.allow_disk = false;
  auto& client = system.create_server(0, 64 * MiB, options);

  const std::vector<std::byte> page(4096, std::byte{0x3c});
  ASSERT_TRUE(client.put_sync(5, page).ok());
  const auto loc = client.map().lookup(5);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->replicas.size(), 3u);
  const net::NodeId dead = loc->replicas.front().node;
  system.crash_node(dead);

  recorder.clear();
  const net::TraceId trace = system.node(0).next_trace_id();
  std::vector<std::byte> out(page.size());
  ASSERT_TRUE(client.get_sync(5, out, trace).ok());
  EXPECT_EQ(out, page);

  // dump_json writes one record per line.
  std::istringstream ring(recorder.dump_json(0, "test"));
  std::vector<std::string> failovers;
  for (std::string line; std::getline(ring, line);)
    if (line.find("\"subsystem\": \"rdmc.read_failover\"") !=
        std::string::npos)
      failovers.push_back(line);
  ASSERT_EQ(failovers.size(), 1u);
  EXPECT_NE(failovers[0].find("\"kind\": \"event\""), std::string::npos);
  EXPECT_NE(failovers[0].find("\"trace\": \"" +
                              obs::span_trace_label(trace) + "\""),
            std::string::npos)
      << failovers[0];
  EXPECT_NE(failovers[0].find("skip node" + std::to_string(dead) + ","),
            std::string::npos)
      << failovers[0];
}

// A shm-first put that may not go remote and finds the pool full falls to
// the device tier on the put's own trace, so its disk.write span is there.
TEST(SpanIntegration, FullPoolFallsToDiskOnThePutsTrace) {
  core::DmSystem::Config config;
  config.node_count = 2;
  config.node.shm.arena_bytes = 64 * KiB;
  config.node.recv.arena_bytes = 8 * MiB;
  core::DmSystem system(config);
  obs::SpanTracer tracer(system.simulator());
  system.set_span_sink(&tracer);
  system.start();
  core::LdmcOptions options;  // shm_fraction 1: every put tries shm first
  options.allow_remote = false;
  auto& client = system.create_server(0, 64 * MiB, options);

  const std::vector<std::byte> page(4096, std::byte{0x5a});
  mem::EntryId id = 0;
  while (client.puts_to_disk() == 0) {
    ASSERT_LT(id, 64u) << "the shared pool never filled";
    ASSERT_TRUE(client.put_sync(id++, page).ok());
  }
  const net::TraceId trace = system.node(0).next_trace_id();
  ASSERT_TRUE(client.put_sync(id, page, trace).ok());
  const auto loc = client.map().lookup(id);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->tier, mem::Tier::kDisk);

  const auto* spans = tracer.spans(trace);
  ASSERT_NE(spans, nullptr) << "the put's trace holds no span";
  std::size_t disk_writes = 0;
  for (const auto& span : *spans)
    if (span.subsystem == "disk" && span.name == "disk.write") ++disk_writes;
  EXPECT_EQ(disk_writes, 1u);
}

// Rebuilding a lost shard of a k > 1 stripe is a decode: a traced repair
// spans it the way a degraded read does.
TEST(SpanIntegration, TracedShardRepairSpansItsDecode) {
  core::DmSystem::Config config;
  config.node_count = 5;
  config.node.recv.arena_bytes = 8 * MiB;
  config.service.rdmc.ec_k = 2;
  config.service.rdmc.ec_r = 1;
  core::DmSystem system(config);
  obs::SpanTracer tracer(system.simulator());
  system.set_span_sink(&tracer);
  system.start();
  core::LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);
  ASSERT_TRUE(client.put_sync(1, std::vector<std::byte>(4096, std::byte{7}))
                  .ok());
  const auto loc = client.map().lookup(1);
  ASSERT_TRUE(loc.ok());
  for (std::size_t i = 0; i < system.node_count(); ++i)
    if (system.node(i).id() == loc->replicas.back().node)
      system.crash_node(i);

  const net::TraceId trace = system.node(0).next_trace_id();
  bool repaired = false;
  system.service(0).repair_entry(
      client.server(), 1,
      [&](const Status& s) {
        EXPECT_TRUE(s.ok()) << s;
        repaired = true;
      },
      trace);
  ASSERT_TRUE(system.simulator().run_until_flag(repaired));
  EXPECT_EQ(system.service(0).metrics().counter_value("ec.shards_repaired"),
            1u);

  const auto* spans = tracer.spans(trace);
  ASSERT_NE(spans, nullptr) << "the repair's trace holds no span";
  std::size_t decodes = 0;
  for (const auto& span : *spans)
    if (span.subsystem == "ec" && span.name == "ec.decode") ++decodes;
  EXPECT_EQ(decodes, 1u);
}

TEST(SpanIntegration, AttachedSinkDoesNotPerturbEventOrder) {
  auto run = [](bool traced) {
    core::DmSystem::Config config;
    config.node_count = 2;
    config.node.shm.arena_bytes = 4 * MiB;
    config.node.recv.arena_bytes = 8 * MiB;
    config.seed = 41;
    core::DmSystem system(config);
    obs::SpanTracer tracer(system.simulator());
    if (traced) system.set_span_sink(&tracer);
    system.start();
    auto& client = system.create_server(0, 2 * MiB);
    std::vector<std::byte> page(4096, std::byte{0x5a});
    for (mem::EntryId id = 0; id < 32; ++id)
      EXPECT_TRUE(client.put_sync(id, page).ok());
    system.run_for(200 * kMilli);
    return system.hub().snapshot_json();
  };
  // Span recording is passive: metrics snapshots must be byte-identical
  // with and without the sink attached.
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace dm
