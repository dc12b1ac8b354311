// Tests for the simulated RDMA fabric, wire codec, RPC layer and connection
// manager: real data movement, RC semantics, failure behaviour.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/units.h"
#include "net/connection_manager.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "net/wire.h"
#include "sim/simulator.h"
#include "sim/span_sink.h"

namespace dm::net {
namespace {

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((i * 31 + seed) & 0xff);
  return v;
}

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : fabric_(sim_) {
    fabric_.add_node(0);
    fabric_.add_node(1);
    fabric_.add_node(2);
  }

  sim::Simulator sim_;
  Fabric fabric_;
};

// ---- wire codec ---------------------------------------------------------------

TEST(WireTest, RoundTripsScalarsAndBytes) {
  WireWriter w;
  w.put_u8(7);
  w.put_u32(123456);
  w.put_u64(~0ULL);
  w.put_string("hello");
  w.put_double(2.5);
  auto buf = std::move(w).take();

  WireReader r(buf);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 123456u);
  EXPECT_EQ(r.u64(), ~0ULL);
  EXPECT_EQ(r.string(), "hello");
  EXPECT_EQ(r.f64(), 2.5);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, TruncatedReadFailsSafely) {
  WireWriter w;
  w.put_u32(5);
  auto buf = std::move(w).take();
  WireReader r(buf);
  (void)r.u64();  // larger than available
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.status().ok());
}

TEST(WireTest, TruncatedBytesFailsSafely) {
  WireWriter w;
  w.put_u32(1000);  // length prefix with no payload
  auto buf = std::move(w).take();
  WireReader r(buf);
  auto b = r.bytes();
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(r.ok());
}

// ---- memory registration ---------------------------------------------------------

TEST_F(FabricTest, RegisterAndDeregister) {
  std::vector<std::byte> region(4096);
  auto rkey = fabric_.register_memory(0, region);
  ASSERT_TRUE(rkey.ok());
  EXPECT_EQ(fabric_.registered_region_count(0), 1u);
  EXPECT_EQ(fabric_.registered_bytes(0), 4096u);
  EXPECT_TRUE(fabric_.deregister_memory(0, *rkey).ok());
  EXPECT_EQ(fabric_.registered_region_count(0), 0u);
  EXPECT_EQ(fabric_.deregister_memory(0, *rkey).code(),
            StatusCode::kNotFound);
}

TEST_F(FabricTest, RegisterOnUnknownNodeFails) {
  std::vector<std::byte> region(64);
  EXPECT_FALSE(fabric_.register_memory(99, region).ok());
}

// ---- one-sided verbs -------------------------------------------------------------

TEST_F(FabricTest, WriteMovesRealBytes) {
  std::vector<std::byte> region(8192);
  auto rkey = fabric_.register_memory(1, region);
  ASSERT_TRUE(rkey.ok());
  auto qp = fabric_.connect(0, 1);
  ASSERT_TRUE(qp.ok());

  auto payload = pattern(4096);
  bool completed = false;
  Completion completion;
  ASSERT_TRUE((*qp)->post_write(*rkey, 1024, payload,
                                [&](const Completion& c) {
                                  completion = c;
                                  completed = true;
                                })
                  .ok());
  ASSERT_TRUE(sim_.run_until_flag(completed));
  EXPECT_TRUE(completion.status.ok());
  EXPECT_EQ(completion.bytes, 4096u);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         region.begin() + 1024));
  EXPECT_GT(sim_.now(), 0);
}

TEST_F(FabricTest, ReadFetchesRealBytes) {
  std::vector<std::byte> region = pattern(8192, 9);
  auto rkey = fabric_.register_memory(1, region);
  ASSERT_TRUE(rkey.ok());
  auto qp = fabric_.connect(0, 1);
  ASSERT_TRUE(qp.ok());

  std::vector<std::byte> dest(2048);
  bool completed = false;
  Status status;
  ASSERT_TRUE((*qp)->post_read(*rkey, 4096, dest,
                               [&](const Completion& c) {
                                 status = c.status;
                                 completed = true;
                               })
                  .ok());
  ASSERT_TRUE(sim_.run_until_flag(completed));
  EXPECT_TRUE(status.ok());
  EXPECT_TRUE(std::equal(dest.begin(), dest.end(), region.begin() + 4096));
}

TEST_F(FabricTest, WritePastRegionEndFailsCompletion) {
  std::vector<std::byte> region(1024);
  auto rkey = fabric_.register_memory(1, region);
  auto qp = fabric_.connect(0, 1);
  auto payload = pattern(512);
  bool completed = false;
  Status status;
  ASSERT_TRUE((*qp)->post_write(*rkey, 1000, payload,
                                [&](const Completion& c) {
                                  status = c.status;
                                  completed = true;
                                })
                  .ok());
  ASSERT_TRUE(sim_.run_until_flag(completed));
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE((*qp)->in_error());
}

TEST_F(FabricTest, BatchedWriteCheaperThanPerPage) {
  std::vector<std::byte> region(64 * 1024);
  auto rkey1 = fabric_.register_memory(1, region);
  auto qp1 = fabric_.connect(0, 1);
  ASSERT_TRUE(rkey1.ok() && qp1.ok());

  // Eight individual 4 KiB writes.
  int pending = 8;
  for (int i = 0; i < 8; ++i) {
    auto payload = pattern(4096, i);
    ASSERT_TRUE((*qp1)->post_write(*rkey1, i * 4096, payload,
                                   [&](const Completion&) { --pending; })
                    .ok());
  }
  while (pending > 0) ASSERT_TRUE(sim_.step());
  const SimTime per_page = sim_.now();

  // One 32 KiB write on a fresh fabric.
  sim::Simulator sim2;
  Fabric fabric2(sim2);
  fabric2.add_node(0);
  fabric2.add_node(1);
  std::vector<std::byte> region2(64 * 1024);
  auto rkey2 = fabric2.register_memory(1, region2);
  auto qp2 = fabric2.connect(0, 1);
  auto big = pattern(8 * 4096);
  bool completed = false;
  ASSERT_TRUE((*qp2)->post_write(*rkey2, 0, big,
                                 [&](const Completion&) { completed = true; })
                  .ok());
  ASSERT_TRUE(sim2.run_until_flag(completed));
  EXPECT_LT(sim2.now(), per_page);
}

// ---- two-sided + RPC --------------------------------------------------------------

TEST_F(FabricTest, SendDeliversToReceiveHandler) {
  auto qp = fabric_.connect(0, 1);
  ASSERT_TRUE(qp.ok());
  QueuePair* peer = fabric_.peer_of(*qp);
  ASSERT_NE(peer, nullptr);

  std::vector<std::byte> received;
  NodeId from = kInvalidNode;
  peer->set_receive_handler([&](NodeId f, std::span<const std::byte> m) {
    from = f;
    received.assign(m.begin(), m.end());
  });
  auto msg = pattern(100);
  bool acked = false;
  ASSERT_TRUE((*qp)->post_send(msg, [&](const Completion&) { acked = true; })
                  .ok());
  ASSERT_TRUE(sim_.run_until_flag(acked));
  EXPECT_EQ(from, 0u);
  EXPECT_EQ(received, msg);
}

TEST_F(FabricTest, RpcRoundTrip) {
  RpcEndpoint ep0(sim_, 0), ep1(sim_, 1);
  ConnectionManager cm(fabric_);
  cm.register_endpoint(&ep0);
  cm.register_endpoint(&ep1);
  ASSERT_TRUE(cm.ensure_control_channel(0, 1).ok());

  ep1.handle(5, [](NodeId from, WireReader& r)
                 -> StatusOr<std::vector<std::byte>> {
    EXPECT_EQ(from, 0u);
    const std::uint64_t x = r.u64();
    WireWriter w;
    w.put_u64(x * 2);
    return std::move(w).take();
  });

  WireWriter req;
  req.put_u64(21);
  bool done = false;
  std::uint64_t answer = 0;
  ep0.call(1, 5, std::move(req).take(), 10 * kMilli,
           [&](StatusOr<std::vector<std::byte>> resp) {
             ASSERT_TRUE(resp.ok());
             WireReader r(*resp);
             answer = r.u64();
             done = true;
           });
  ASSERT_TRUE(sim_.run_until_flag(done));
  EXPECT_EQ(answer, 42u);
  EXPECT_EQ(ep0.inflight(), 0u);
}

TEST_F(FabricTest, RpcUnknownMethodReturnsError) {
  RpcEndpoint ep0(sim_, 0), ep1(sim_, 1);
  ConnectionManager cm(fabric_);
  cm.register_endpoint(&ep0);
  cm.register_endpoint(&ep1);
  ASSERT_TRUE(cm.ensure_control_channel(0, 1).ok());

  bool done = false;
  Status status;
  ep0.call(1, 99, {}, 10 * kMilli, [&](StatusOr<std::vector<std::byte>> r) {
    status = r.status();
    done = true;
  });
  ASSERT_TRUE(sim_.run_until_flag(done));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(FabricTest, RpcToUnconnectedPeerFails) {
  RpcEndpoint ep0(sim_, 0);
  bool done = false;
  Status status;
  ep0.call(1, 1, {}, 10 * kMilli, [&](StatusOr<std::vector<std::byte>> r) {
    status = r.status();
    done = true;
  });
  ASSERT_TRUE(sim_.run_until_flag(done));
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(FabricTest, RpcHandlerErrorPropagates) {
  RpcEndpoint ep0(sim_, 0), ep1(sim_, 1);
  ConnectionManager cm(fabric_);
  cm.register_endpoint(&ep0);
  cm.register_endpoint(&ep1);
  ASSERT_TRUE(cm.ensure_control_channel(0, 1).ok());
  ep1.handle(3, [](NodeId, WireReader&) -> StatusOr<std::vector<std::byte>> {
    return ResourceExhaustedError("pool full");
  });
  bool done = false;
  Status status;
  ep0.call(1, 3, {}, 10 * kMilli, [&](StatusOr<std::vector<std::byte>> r) {
    status = r.status();
    done = true;
  });
  ASSERT_TRUE(sim_.run_until_flag(done));
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

// ---- failures ---------------------------------------------------------------------

TEST_F(FabricTest, WriteToDownNodeFailsAndErrorsQp) {
  std::vector<std::byte> region(4096);
  auto rkey = fabric_.register_memory(1, region);
  auto qp = fabric_.connect(0, 1);
  fabric_.set_node_up(1, false);

  // QP was marked error when the node went down.
  EXPECT_TRUE((*qp)->in_error());
  auto payload = pattern(64);
  EXPECT_EQ((*qp)->post_write(*rkey, 0, payload, {}).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FabricTest, InFlightWriteToCrashingNodeFails) {
  std::vector<std::byte> region(4096);
  auto rkey = fabric_.register_memory(1, region);
  auto qp = fabric_.connect(0, 1);
  auto payload = pattern(4096);
  bool completed = false;
  Status status;
  ASSERT_TRUE((*qp)->post_write(*rkey, 0, payload,
                                [&](const Completion& c) {
                                  status = c.status;
                                  completed = true;
                                })
                  .ok());
  fabric_.set_node_up(1, false);  // crash before delivery
  ASSERT_TRUE(sim_.run_until_flag(completed));
  EXPECT_FALSE(status.ok());
  // The write must not have landed.
  EXPECT_TRUE(std::all_of(region.begin(), region.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
}

// A read whose target dies, or whose link back is cut, before its request
// arrives fails the way every fabric failure does: one error completion
// the 50 µs detection delay after the request finds the fault, the QP in
// error, and one fabric.op_errors.
TEST_F(FabricTest, FailedReadCompletesAfterTheDetectionDelayAndCounts) {
  for (const bool target_dies : {true, false}) {
    SCOPED_TRACE(target_dies ? "target down" : "link back cut");
    sim::Simulator sim;
    Fabric fabric(sim);
    fabric.add_node(0);
    fabric.add_node(1);
    std::vector<std::byte> region = pattern(4096, 3);
    auto rkey = fabric.register_memory(1, region);
    auto qp = fabric.connect(0, 1);
    ASSERT_TRUE(rkey.ok() && qp.ok());
    std::vector<std::byte> dest(1024);
    int completions = 0;
    Completion completion;
    ASSERT_TRUE((*qp)->post_read(*rkey, 0, dest,
                                 [&](const Completion& c) {
                                   completion = c;
                                   ++completions;
                                 })
                    .ok());
    if (target_dies)
      fabric.set_node_up(1, false);
    else
      fabric.set_link_up(1, 0, false);
    ASSERT_TRUE(sim.step());  // the request arrives and finds the fault
    const SimTime found = sim.now();
    sim.run();
    ASSERT_EQ(completions, 1);
    EXPECT_FALSE(completion.status.ok());
    EXPECT_EQ(completion.completed_at, found + 50 * kMicro);
    EXPECT_TRUE((*qp)->in_error());
    EXPECT_EQ(fabric.metrics().counter_value("fabric.op_errors"), 1u);
  }
}

TEST_F(FabricTest, LinkDownFailsPath) {
  fabric_.set_link_up(0, 1, false);
  EXPECT_FALSE(fabric_.connect(0, 1).ok());
  EXPECT_TRUE(fabric_.connect(0, 2).ok());
  fabric_.set_link_up(0, 1, true);
  EXPECT_TRUE(fabric_.connect(0, 1).ok());
}

TEST_F(FabricTest, ConnectionManagerRepairsAfterRecovery) {
  RpcEndpoint ep0(sim_, 0), ep1(sim_, 1);
  ConnectionManager cm(fabric_);
  cm.register_endpoint(&ep0);
  cm.register_endpoint(&ep1);
  auto qp = cm.ensure_data_channel(0, 1);
  ASSERT_TRUE(qp.ok());

  fabric_.set_node_up(1, false);
  EXPECT_TRUE((*qp)->in_error());
  EXPECT_FALSE(cm.ensure_data_channel(0, 1).ok());

  fabric_.set_node_up(1, true);
  auto repaired = cm.ensure_data_channel(0, 1);
  ASSERT_TRUE(repaired.ok());
  EXPECT_FALSE((*repaired)->in_error());
}

TEST_F(FabricTest, ConnectionManagerCountsEstablishesAndFailedRepairs) {
  RpcEndpoint ep0(sim_, 0), ep1(sim_, 1);
  ConnectionManager cm(fabric_);
  cm.register_endpoint(&ep0);
  cm.register_endpoint(&ep1);

  ASSERT_TRUE(cm.ensure_data_channel(0, 1).ok());
  fabric_.set_node_up(1, false);
  EXPECT_FALSE(cm.ensure_data_channel(0, 1).ok());  // repair attempt fails
  fabric_.set_node_up(1, true);
  EXPECT_TRUE(cm.ensure_data_channel(0, 1).ok());

  // The first establish and the re-establish succeed; the repair fails.
  EXPECT_EQ(cm.metrics().counter_value("cm.established"), 2u);
  EXPECT_EQ(cm.metrics().counter_value("cm.establish_failed"), 1u);
}

// Passive sink recording each span's site, node and virtual interval.
struct VerbSpans final : sim::SpanSink {
  struct Span {
    std::uint64_t trace = 0;
    std::uint32_t node = 0;
    std::string site;
    SimTime begin = 0;
    SimTime end = -1;  // -1 while open
  };
  explicit VerbSpans(sim::Simulator& simulator) : sim(simulator) {}
  std::uint64_t begin_span(std::uint64_t trace, std::uint32_t node,
                           std::string_view subsystem,
                           std::string_view name) override {
    spans.push_back({trace, node,
                     std::string(subsystem) + "/" + std::string(name),
                     sim.now()});
    return spans.size();
  }
  void end_span(std::uint64_t span) override {
    spans.at(span - 1).end = sim.now();
  }
  void event(std::uint64_t, std::uint32_t, std::string_view,
             std::string_view) override {}
  sim::Simulator& sim;
  std::vector<Span> spans;
};

TEST_F(FabricTest, TracedVerbsSpanFromPostToCompletion) {
  VerbSpans sink(sim_);
  fabric_.set_span_sink(&sink);
  std::vector<std::byte> region(4096);
  auto rkey = fabric_.register_memory(1, region);
  auto qp = fabric_.connect(0, 1);
  ASSERT_TRUE(rkey.ok() && qp.ok());
  const auto payload = pattern(512);

  // Untraced verbs open no span.
  bool plain = false;
  ASSERT_TRUE((*qp)->post_write(*rkey, 0, payload,
                                [&](const Completion&) { plain = true; })
                  .ok());
  ASSERT_TRUE(sim_.run_until_flag(plain));
  EXPECT_TRUE(sink.spans.empty());

  const TraceId trace = make_trace_id(0, 5);
  const SimTime write_posted = sim_.now();
  SimTime write_done = -1;
  bool wrote = false;
  ASSERT_TRUE((*qp)->post_write(*rkey, 0, payload,
                                [&](const Completion& c) {
                                  write_done = c.completed_at;
                                  wrote = true;
                                },
                                trace)
                  .ok());
  ASSERT_TRUE(sim_.run_until_flag(wrote));

  std::vector<std::byte> back(payload.size());
  const SimTime read_posted = sim_.now();
  SimTime read_done = -1;
  bool read = false;
  ASSERT_TRUE((*qp)->post_read(*rkey, 0, back,
                               [&](const Completion& c) {
                                 read_done = c.completed_at;
                                 read = true;
                               },
                               trace)
                  .ok());
  ASSERT_TRUE(sim_.run_until_flag(read));
  EXPECT_EQ(back, payload);

  ASSERT_EQ(sink.spans.size(), 2u);
  const VerbSpans::Span& w = sink.spans[0];
  const VerbSpans::Span& r = sink.spans[1];
  EXPECT_EQ(w.site, "net/fabric.write");
  EXPECT_EQ(r.site, "net/fabric.read");
  for (const VerbSpans::Span* span : {&w, &r}) {
    EXPECT_EQ(span->trace, trace);
    EXPECT_EQ(span->node, 0u);  // the posting node
  }
  EXPECT_EQ(w.begin, write_posted);
  EXPECT_EQ(w.end, write_done);
  EXPECT_EQ(r.begin, read_posted);
  EXPECT_EQ(r.end, read_done);
  EXPECT_LT(w.begin, w.end);
  EXPECT_LT(r.begin, r.end);
}

TEST_F(FabricTest, RcCompletionsStayInOrderPerQp) {
  std::vector<std::byte> region(64 * 1024);
  auto rkey = fabric_.register_memory(1, region);
  auto qp = fabric_.connect(0, 1);
  ASSERT_TRUE(rkey.ok() && qp.ok());
  std::vector<int> completions;
  int remaining = 4;
  for (int i = 0; i < 4; ++i) {
    // Varying sizes: without the ordering rule small late messages could
    // complete before earlier large ones.
    auto payload = pattern(i % 2 == 0 ? 16384 : 128, i);
    ASSERT_TRUE((*qp)->post_write(*rkey, 0, payload,
                                  [&, i](const Completion&) {
                                    completions.push_back(i);
                                    --remaining;
                                  })
                    .ok());
  }
  while (remaining > 0) ASSERT_TRUE(sim_.step());
  EXPECT_EQ(completions, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace dm::net
