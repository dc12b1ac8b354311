// Tests for the observability layer: MetricsHub aggregation and export
// determinism, causal trace-id propagation through the RPC layer's span
// tree, and histogram percentile boundary behaviour.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/dm_system.h"
#include "net/connection_manager.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "net/wire.h"
#include "obs/metrics_hub.h"
#include "obs/span.h"
#include "sim/simulator.h"

namespace dm {
namespace {

// ---- histogram percentile boundaries ----------------------------------------

TEST(HistogramPercentiles, EmptyHistogramIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.percentile(1.0), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramPercentiles, SingleSampleAllQuantilesAgree) {
  Histogram h;
  h.record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  EXPECT_EQ(h.mean(), 42.0);
  // Every quantile of a single-sample distribution lands in the same
  // bucket; the reported bound must cover the sample within the
  // histogram's ~13% relative error.
  const std::uint64_t p0 = h.percentile(0.0);
  const std::uint64_t p50 = h.percentile(0.5);
  const std::uint64_t p100 = h.percentile(1.0);
  EXPECT_EQ(p0, p50);
  EXPECT_EQ(p50, p100);
  EXPECT_GE(p100, 42u);
  EXPECT_LE(p100, 48u);  // next geometric bucket bound at most 42 * 1.25
}

TEST(HistogramPercentiles, BoundaryQuantilesBracketTheData) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_GE(h.percentile(0.0), h.min());
  EXPECT_GE(h.percentile(1.0), h.max());   // upper bucket bound covers max
  EXPECT_LE(h.percentile(1.0), 1250u);     // within one geometric bucket
  EXPECT_LE(h.percentile(0.0), h.percentile(0.5));
  EXPECT_LE(h.percentile(0.5), h.percentile(1.0));
}

// Pinned interpolation regressions: exact values for the bucket-boundary
// fix (interpolate within the bucket, clamp to observed [min, max]). If a
// histogram parameter changes these must be re-derived, deliberately.
TEST(HistogramPercentiles, PinnedSingleSampleIsExact) {
  Histogram h;
  h.record(42);
  EXPECT_EQ(h.percentile(0.0), 42u);
  EXPECT_EQ(h.p50(), 42u);
  EXPECT_EQ(h.p99(), 42u);
  EXPECT_EQ(h.percentile(1.0), 42u);
}

TEST(HistogramPercentiles, PinnedUniformThousand) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.percentile(0.0), 1u);
  EXPECT_EQ(h.p50(), 501u);
  EXPECT_EQ(h.percentile(0.9), 902u);
  EXPECT_EQ(h.p99(), 1000u);   // clamped to observed max
  EXPECT_EQ(h.percentile(1.0), 1000u);
}

TEST(HistogramPercentiles, PinnedSkewedTailDoesNotDragMedian) {
  Histogram h;
  h.record(100);
  h.record(100);
  h.record(100);
  h.record(5000);
  // Median interpolates inside the 100s bucket (bounds [96, 112)) instead
  // of snapping to the bucket top or being dragged toward the outlier.
  EXPECT_EQ(h.p50(), 107u);
  EXPECT_EQ(h.percentile(0.75), 112u);
  EXPECT_EQ(h.p99(), 112u);  // 3rd of 4 samples: still in the 100s bucket
  EXPECT_EQ(h.max(), 5000u);
}

// ---- MetricsHub aggregation -------------------------------------------------

TEST(MetricsHub, MergesRegistriesUnderPrefixes) {
  MetricsRegistry rpc, pool, net;
  rpc.counter("rpc.calls") += 7;
  pool.counter("rpc.calls") += 3;  // same name, same prefix: sums
  pool.counter("shm.hits") += 5;
  net.counter("fabric.writes") += 2;
  rpc.histogram("rpc.rtt.heartbeat").record(100);
  pool.histogram("rpc.rtt.heartbeat").record(300);

  obs::MetricsHub hub;
  hub.add("node.0", &rpc);
  hub.add("node.0", &pool);
  hub.add("net", &net);
  EXPECT_EQ(hub.source_count(), 3u);

  const MetricsRegistry merged = hub.merged();
  EXPECT_EQ(merged.counter_value("node.0.rpc.calls"), 10u);
  EXPECT_EQ(merged.counter_value("node.0.shm.hits"), 5u);
  EXPECT_EQ(merged.counter_value("net.fabric.writes"), 2u);
  const Histogram* h = merged.find_histogram("node.0.rpc.rtt.heartbeat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->min(), 100u);
  EXPECT_EQ(h->max(), 300u);

  hub.remove("node.0");
  EXPECT_EQ(hub.source_count(), 1u);
  EXPECT_EQ(hub.merged().counter_value("node.0.rpc.calls"), 0u);
}

TEST(MetricsHub, ExportsContainMergedNames) {
  MetricsRegistry reg;
  reg.counter("swap.faults") += 4;
  reg.histogram("swap.fault_ns.backend").record(1234);

  obs::MetricsHub hub;
  hub.add("node.3", &reg);
  const std::string json = hub.snapshot_json();
  EXPECT_NE(json.find("\"node.3.swap.faults\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"node.3.swap.fault_ns.backend\""), std::string::npos);
  const std::string prom = hub.prometheus_text();
  EXPECT_NE(prom.find("dm_node_3_swap_faults 4"), std::string::npos);
}

TEST(MetricsHub, EmptyHubAndEmptyRegistriesExportCleanly) {
  obs::MetricsHub hub;
  // No sources at all: exports are well-formed and empty of metrics.
  EXPECT_EQ(hub.source_count(), 0u);
  const std::string json = hub.snapshot_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_TRUE(json.ends_with("\n"));
  EXPECT_TRUE(hub.prometheus_text().empty());

  // Registered but never-touched registries contribute nothing either.
  MetricsRegistry empty_a, empty_b;
  hub.add("node.0", &empty_a);
  hub.add("node.1", &empty_b);
  hub.add("node.2", nullptr);  // null registries are ignored, not stored
  EXPECT_EQ(hub.source_count(), 2u);
  EXPECT_TRUE(hub.prometheus_text().empty());
  EXPECT_EQ(hub.merged().counters().size(), 0u);
}

TEST(MetricsHub, NamesNeedingEscapingStayParseable) {
  MetricsRegistry reg;
  reg.counter("weird\"name\\with.quotes") += 1;
  reg.counter("swap.fault-retries/total") += 2;

  obs::MetricsHub hub;
  hub.add("node.0", &reg);
  // JSON: quote and backslash are escaped, the document stays one
  // key-per-line and parseable.
  const std::string json = hub.snapshot_json();
  EXPECT_NE(json.find("weird\\\"name\\\\with.quotes"), std::string::npos);
  // Prometheus: every non-[a-zA-Z0-9_] character sanitizes to '_'.
  const std::string prom = hub.prometheus_text();
  EXPECT_NE(prom.find("dm_node_0_weird_name_with_quotes 1"),
            std::string::npos);
  EXPECT_NE(prom.find("dm_node_0_swap_fault_retries_total 2"),
            std::string::npos);
}

TEST(MetricsHub, SameCounterNameUnderDifferentPrefixesStaysSeparate) {
  MetricsRegistry node_a, node_b;
  node_a.counter("swap.faults") += 11;
  node_b.counter("swap.faults") += 31;

  obs::MetricsHub hub;
  hub.add("node.0", &node_a);
  hub.add("node.1", &node_b);

  const MetricsRegistry merged = hub.merged();
  EXPECT_EQ(merged.counter_value("node.0.swap.faults"), 11u);
  EXPECT_EQ(merged.counter_value("node.1.swap.faults"), 31u);
  EXPECT_EQ(merged.counter_value("swap.faults"), 0u);  // no unprefixed merge

  const std::string prom = hub.prometheus_text();
  EXPECT_NE(prom.find("dm_node_0_swap_faults 11"), std::string::npos);
  EXPECT_NE(prom.find("dm_node_1_swap_faults 31"), std::string::npos);
}

// ---- snapshot determinism across seeded runs --------------------------------

std::string run_seeded_workload(std::uint64_t seed) {
  core::DmSystem::Config config;
  config.node_count = 3;
  config.node.shm.arena_bytes = 4 * MiB;
  config.node.recv.arena_bytes = 8 * MiB;
  config.seed = seed;
  core::DmSystem system(config);
  system.start();
  auto& client = system.create_server(0, 4 * MiB);

  Rng rng(mix64(seed ^ 0x0B5ULL));
  std::vector<std::byte> page(4096);
  std::vector<std::byte> out(4096);
  for (mem::EntryId id = 0; id < 48; ++id) {
    for (auto& b : page) b = static_cast<std::byte>(rng.next_below(256));
    EXPECT_TRUE(client.put_sync(id, page).ok());
    if (id % 2 == 0) {
      EXPECT_TRUE(client.get_sync(id, out).ok());
    }
  }
  system.run_for(500 * kMilli);  // several heartbeat rounds
  return system.hub().snapshot_json();
}

TEST(MetricsHub, SnapshotJsonIsByteIdenticalAcrossIdenticalRuns) {
  const std::string a = run_seeded_workload(1234);
  const std::string b = run_seeded_workload(1234);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // And per-tier latency histograms actually populated.
  EXPECT_NE(a.find("node.0.ldms.put_ns."), std::string::npos);
  EXPECT_NE(a.find("node.0.ldms.get_ns."), std::string::npos);
}

// ---- trace-id propagation ---------------------------------------------------

TEST(Tracing, TraceIdPropagatesAcrossRpcHop) {
  sim::Simulator sim;
  net::Fabric fabric(sim);
  fabric.add_node(0);
  fabric.add_node(1);
  net::RpcEndpoint ep0(sim, 0), ep1(sim, 1);
  net::ConnectionManager cm(fabric);
  cm.register_endpoint(&ep0);
  cm.register_endpoint(&ep1);
  ASSERT_TRUE(cm.ensure_control_channel(0, 1).ok());

  obs::SpanTracer spans(sim);
  ep0.set_span_sink(&spans);
  ep1.set_span_sink(&spans);
  ep0.label_method(5, "double");
  ep1.label_method(5, "double");

  const net::TraceId trace = net::make_trace_id(0, 17);
  net::TraceId seen_in_handler = net::kNoTrace;
  ep1.handle(5, [&](net::NodeId, net::WireReader& r)
                 -> StatusOr<std::vector<std::byte>> {
    seen_in_handler = ep1.current_trace_id();
    const std::uint64_t x = r.u64();
    net::WireWriter w;
    w.put_u64(x * 2);
    return std::move(w).take();
  });

  net::WireWriter req;
  req.put_u64(21);
  bool done = false;
  ep0.call(1, 5, std::move(req).take(), 10 * kMilli,
           [&](StatusOr<std::vector<std::byte>> resp) {
             ASSERT_TRUE(resp.ok());
             done = true;
           },
           trace);
  ASSERT_TRUE(sim.run_until_flag(done));

  // The callee observed the caller's trace id, and the hop is one closed
  // span tree on that id: the caller's call on node 0 from send to reply,
  // with the dispatch on node 1 nested under it.
  EXPECT_EQ(seen_in_handler, trace);
  EXPECT_EQ(net::trace_origin(trace), 0u);
  EXPECT_EQ(net::trace_seq(trace), 17u);
  EXPECT_EQ(spans.completed_traces(), std::vector<std::uint64_t>{trace});
  const auto* chain = spans.spans(trace);
  ASSERT_NE(chain, nullptr);
  ASSERT_EQ(chain->size(), 2u);
  const obs::SpanTracer::Span& caller = (*chain)[0];
  const obs::SpanTracer::Span& callee = (*chain)[1];
  EXPECT_EQ(caller.node, 0u);
  EXPECT_EQ(caller.subsystem, "net");
  EXPECT_EQ(caller.name, "rpc.double");
  EXPECT_EQ(caller.parent, 0u);
  EXPECT_EQ(callee.node, 1u);
  EXPECT_EQ(callee.subsystem, "remote");
  EXPECT_EQ(callee.name, "rpc.double");
  EXPECT_EQ(callee.parent, caller.id);
  EXPECT_EQ(callee.trace, caller.trace);
  EXPECT_LE(caller.begin, callee.begin);
  EXPECT_LE(callee.end, caller.end);
  EXPECT_LT(caller.begin, caller.end);
}

TEST(Tracing, RpcAllocatesTraceIdWhenCallerPassesNone) {
  sim::Simulator sim;
  net::Fabric fabric(sim);
  fabric.add_node(0);
  fabric.add_node(1);
  net::RpcEndpoint ep0(sim, 0), ep1(sim, 1);
  net::ConnectionManager cm(fabric);
  cm.register_endpoint(&ep0);
  cm.register_endpoint(&ep1);
  ASSERT_TRUE(cm.ensure_control_channel(0, 1).ok());

  net::TraceId seen = net::kNoTrace;
  ep1.handle(9, [&](net::NodeId, net::WireReader&)
                 -> StatusOr<std::vector<std::byte>> {
    seen = ep1.current_trace_id();
    return std::vector<std::byte>{};
  });
  bool done = false;
  ep0.call(1, 9, {}, 10 * kMilli,
           [&](StatusOr<std::vector<std::byte>> resp) {
             ASSERT_TRUE(resp.ok());
             done = true;
           });
  ASSERT_TRUE(sim.run_until_flag(done));
  EXPECT_NE(seen, net::kNoTrace);
  EXPECT_EQ(net::trace_origin(seen), 0u);  // first hop stamps the caller
}

}  // namespace
}  // namespace dm
