// Adversarial/fuzz tests: torn control-plane messages, garbage RPC frames,
// random fault storms, and random operation sequences checked against
// reference models. Everything is seeded and deterministic.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "core/node_service.h"
#include "core/repair_service.h"
#include "mem/memory_map.h"
#include "net/connection_manager.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "net/wire.h"
#include "sim/failure_injector.h"
#include "sim/simulator.h"
#include "workloads/page_content.h"

namespace dm::net {
namespace {

class FuzzFixture : public ::testing::Test {
 protected:
  FuzzFixture() : fabric_(sim_), cm_(fabric_), ep0_(sim_, 0), ep1_(sim_, 1) {
    fabric_.add_node(0);
    fabric_.add_node(1);
    cm_.register_endpoint(&ep0_);
    cm_.register_endpoint(&ep1_);
    EXPECT_TRUE(cm_.ensure_control_channel(0, 1).ok());
  }

  sim::Simulator sim_;
  Fabric fabric_;
  ConnectionManager cm_;
  RpcEndpoint ep0_, ep1_;
};

// Deliver random garbage frames straight into an endpoint's receive path:
// must never crash, and must never fabricate a successful reply.
TEST_F(FuzzFixture, GarbageFramesAreIgnoredSafely) {
  auto qp = cm_.ensure_data_channel(0, 1);
  ASSERT_TRUE(qp.ok());
  // Route the raw frames into ep1's RPC dispatcher (as if a buggy or
  // malicious peer wrote junk on the control channel).
  ep1_.attach_channel(fabric_.peer_of(*qp));
  Rng rng(1234);
  int spurious_replies = 0;
  ep0_.handle(1, [&](NodeId, WireReader&) -> StatusOr<std::vector<std::byte>> {
    return std::vector<std::byte>{};
  });
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::byte> frame(rng.next_below(64));
    for (auto& b : frame) b = static_cast<std::byte>(rng.next_u64() & 0xff);
    // Inject via a raw QP send into ep1's dispatcher.
    bool sent = false;
    ASSERT_TRUE((*qp)->post_send(frame, [&](const Completion&) {
      sent = true;
    }).ok());
    ASSERT_TRUE(sim_.run_until_flag(sent));
  }
  sim_.run_until(sim_.now() + kSecond);
  EXPECT_EQ(spurious_replies, 0);
  EXPECT_EQ(ep0_.inflight(), 0u);
  EXPECT_EQ(ep1_.inflight(), 0u);
}

// Truncated *valid-looking* request frames (kind/callid/method but cut
// payloads): server must drop them; the client's call times out cleanly.
TEST_F(FuzzFixture, TruncatedRequestsTimeOutCleanly) {
  ep1_.handle(7, [](NodeId, WireReader& r) -> StatusOr<std::vector<std::byte>> {
    (void)r.u64();
    DM_RETURN_IF_ERROR(r.status());
    return std::vector<std::byte>{};
  });
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    // A legitimate call with randomly truncated payload bytes still settles
    // (ok or error), exactly once.
    WireWriter w;
    w.put_u64(rng.next_u64());
    auto payload = std::move(w).take();
    payload.resize(rng.next_below(payload.size() + 1));
    int settled = 0;
    ep0_.call(1, 7, payload, 10 * kMilli,
              [&](StatusOr<std::vector<std::byte>>) { ++settled; });
    sim_.run_until(sim_.now() + 20 * kMilli);
    ASSERT_EQ(settled, 1) << "call " << i;
  }
  EXPECT_EQ(ep0_.inflight(), 0u);
}

// Every RPC issued during a random crash/recover storm settles exactly once.
TEST_F(FuzzFixture, CallsAlwaysSettleUnderFaultStorm) {
  ep1_.handle(3, [](NodeId, WireReader&) -> StatusOr<std::vector<std::byte>> {
    return std::vector<std::byte>{};
  });
  Rng rng(42);
  sim::FailureInjector inject(sim_);
  // Node 1 flaps every ~5 ms over a 500 ms window.
  bool up = true;
  inject.poisson(rng, 0, 500 * kMilli, 5 * kMilli, [&]() {
    up = !up;
    fabric_.set_node_up(1, up);
  });

  int issued = 0;
  int settled = 0;
  for (SimTime t = 0; t < 500 * kMilli; t += kMilli) {
    sim_.schedule_at(t, [&]() {
      ++issued;
      ep0_.call(1, 3, {}, 8 * kMilli,
                [&](StatusOr<std::vector<std::byte>>) { ++settled; });
    });
  }
  sim_.run_until(2 * kSecond);
  fabric_.set_node_up(1, true);
  sim_.run_until(sim_.now() + kSecond);
  EXPECT_EQ(issued, 500);
  EXPECT_EQ(settled, issued);  // exactly-once settlement
  EXPECT_EQ(ep0_.inflight(), 0u);
}

// One-sided ops during flapping: each posted op completes exactly once and
// successful writes always leave the exact payload in the region.
TEST_F(FuzzFixture, OneSidedOpsCompleteExactlyOnceUnderFaults) {
  std::vector<std::byte> region(64 * KiB);
  auto rkey = fabric_.register_memory(1, region);
  ASSERT_TRUE(rkey.ok());
  Rng rng(7);

  int outstanding = 0;
  int completions = 0;
  int successes = 0;
  std::map<std::uint64_t, std::vector<std::byte>> expected;

  QueuePair* qp = nullptr;
  for (int i = 0; i < 400; ++i) {
    if (qp == nullptr || qp->in_error()) {
      fabric_.set_node_up(1, true);
      auto fresh = cm_.ensure_data_channel(0, 1);
      ASSERT_TRUE(fresh.ok());
      qp = *fresh;
    }
    const std::uint64_t offset = rng.next_below(15) * 4096;
    std::vector<std::byte> payload(4096);
    for (auto& b : payload) b = static_cast<std::byte>(rng.next_u64() & 0xff);
    ++outstanding;
    auto copy = payload;
    ASSERT_TRUE(qp->post_write(
                       *rkey, offset, payload,
                       [&, offset, copy](const Completion& c) {
                         ++completions;
                         if (c.status.ok()) {
                           ++successes;
                           expected[offset] = copy;
                         }
                       })
                    .ok());
    if (rng.bernoulli(0.1)) fabric_.set_node_up(1, false);
    sim_.run_until(sim_.now() + 100 * kMicro);
  }
  fabric_.set_node_up(1, true);
  sim_.run_until(sim_.now() + kSecond);
  EXPECT_EQ(completions, outstanding);
  EXPECT_GT(successes, 0);
  // Note: with concurrent writes to the same offset the last *successful*
  // completion wins; our sequential post/drain loop guarantees ordering.
  for (const auto& [offset, bytes] : expected) {
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(),
                           region.begin() + static_cast<std::ptrdiff_t>(offset)))
        << "offset " << offset;
  }
}

}  // namespace
}  // namespace dm::net

// ---- system-level property invariants under random faults -------------------

namespace dm::core {
namespace {

std::vector<std::byte> fuzz_page(std::uint64_t id) {
  std::vector<std::byte> bytes(4096);
  workloads::fill_page(bytes, id, 0.5, 7);
  return bytes;
}

// Random operation sequence against a cluster whose node 2 flaps randomly,
// checked against a shadow model. Property invariants:
//   (1) every acknowledged live key stays readable with correct bytes once
//       the cluster heals;
//   (2) no committed remote location ever holds more replicas than the
//       configured replication factor (repair/top-up must not over-shoot).
TEST(SystemPropertyFuzz, LiveKeysReadableAndReplicasBounded) {
  DmSystem::Config config;
  config.node_count = 4;
  config.node.shm.arena_bytes = 2 * MiB;
  config.node.recv.arena_bytes = 8 * MiB;
  config.node.disk.capacity_bytes = 64 * MiB;
  config.service.rdmc.ec_r = 1;  // 2 copies
  config.service.rdmc.min_shards = 1;
  config.rpc_retry.max_attempts = 2;
  config.repair.enabled = true;
  DmSystem system(config);
  system.start();
  LdmcOptions options;
  options.shm_fraction = 0.3;
  auto& client = system.create_server(0, 64 * MiB, options);

  // Flap only node 2: nodes 1 and 3 stay up, so with the min-replicas floor
  // of 1 every remote entry keeps at least one live copy. The storm starts
  // now (start()'s warm-up has run past t = 0) and spans the 40 rounds.
  Rng flap_rng(9001);
  bool node2_up = true;
  const SimTime storm = system.simulator().now();
  system.failures().poisson(flap_rng, storm, storm + 400 * kMilli,
                            40 * kMilli, [&]() {
    node2_up = !node2_up;
    if (node2_up)
      system.recover_node(2);
    else
      system.crash_node(2);
  });

  Rng op_rng(4242);
  std::map<mem::EntryId, std::uint64_t> shadow;
  mem::EntryId next_key = 1;
  const std::size_t replication =
      config.service.rdmc.ec_k + config.service.rdmc.ec_r;
  for (int round = 0; round < 40; ++round) {
    const std::uint64_t dice = op_rng.next_below(10);
    if (dice < 6 || shadow.empty()) {
      const mem::EntryId key = next_key++;
      if (client.put_sync(key, fuzz_page(key)).ok()) shadow[key] = key;
    } else if (dice < 8) {
      auto it = shadow.begin();
      std::advance(it, op_rng.next_below(shadow.size()));
      std::vector<std::byte> out(4096);
      (void)client.get_sync(it->first, out);  // transient failures allowed
    } else {
      // Removes are only safe against reachable tiers mid-storm (freeing a
      // remote replica on a down host is not atomic); local tiers always are.
      auto it = shadow.begin();
      std::advance(it, op_rng.next_below(shadow.size()));
      auto loc = client.map().lookup(it->first);
      if (loc.ok() && loc->tier != mem::Tier::kRemote &&
          client.remove_sync(it->first).ok())
        shadow.erase(it);
    }
    // Invariant (2) holds at every step, not just at the end.
    client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
      EXPECT_LE(loc.replicas.size(), replication);
    });
    system.run_for(10 * kMilli);
  }

  // Heal and converge: membership re-detects node 2, repair scans restore
  // placement.
  if (!node2_up) system.recover_node(2);
  system.run_for(15 * kSecond);
  for (int round = 0; round < 4; ++round) {
    bool scanned = false;
    system.repair(0).scan_tick([&]() { scanned = true; });
    ASSERT_TRUE(system.simulator().run_until_flag(scanned));
    system.run_for(500 * kMilli);
  }

  ASSERT_GT(shadow.size(), 10u);
  for (const auto& [key, content] : shadow) {
    std::vector<std::byte> out(4096);
    ASSERT_TRUE(client.get_sync(key, out).ok()) << "key " << key;
    EXPECT_EQ(out, fuzz_page(content)) << "key " << key;
  }
  client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
    EXPECT_LE(loc.replicas.size(), replication);
  });
}


// Seeded EC fuzz: the same adversarial shape as the replication property
// fuzz, but every remote put is a (k=2, r=1) stripe and node 2 flaps under
// a Poisson schedule. Invariants:
//   (1) no committed stripe ever exceeds k+r shards, and shard indices
//       within a stripe are always unique;
//   (2) once the cluster heals, every acknowledged key reads back
//       byte-exact (through reconstruction where a shard is still absent).
TEST(SystemPropertyFuzz, EcStripesBoundedAndKeysReadable) {
  constexpr std::size_t kEcK = 2;
  constexpr std::size_t kEcR = 1;
  DmSystem::Config config;
  config.node_count = 5;
  config.node.shm.arena_bytes = 2 * MiB;
  config.node.recv.arena_bytes = 8 * MiB;
  config.node.disk.capacity_bytes = 64 * MiB;
  config.service.rdmc.ec_k = kEcK;
  config.service.rdmc.ec_r = kEcR;
  config.service.rdmc.min_shards = kEcK;
  config.rpc_retry.max_attempts = 2;
  config.repair.enabled = true;
  DmSystem system(config);
  system.start();
  LdmcOptions options;
  options.shm_fraction = 0.3;
  auto& client = system.create_server(0, 64 * MiB, options);

  // Flap only node 2: the other hosts stay up, so every stripe keeps at
  // least k live shards and remains readable throughout. The storm starts
  // now (start()'s warm-up has run past t = 0) and spans the 40 rounds.
  Rng flap_rng(31337);
  bool node2_up = true;
  const SimTime storm = system.simulator().now();
  system.failures().poisson(flap_rng, storm, storm + 400 * kMilli,
                            40 * kMilli, [&]() {
    node2_up = !node2_up;
    if (node2_up)
      system.recover_node(2);
    else
      system.crash_node(2);
  });

  Rng op_rng(0xEC);
  std::map<mem::EntryId, std::uint64_t> shadow;
  mem::EntryId next_key = 1;
  for (int round = 0; round < 40; ++round) {
    const std::uint64_t dice = op_rng.next_below(10);
    if (dice < 6 || shadow.empty()) {
      const mem::EntryId key = next_key++;
      if (client.put_sync(key, fuzz_page(key)).ok()) shadow[key] = key;
    } else if (dice < 8) {
      auto it = shadow.begin();
      std::advance(it, op_rng.next_below(shadow.size()));
      std::vector<std::byte> out(4096);
      (void)client.get_sync(it->first, out);  // transient failures allowed
    } else {
      auto it = shadow.begin();
      std::advance(it, op_rng.next_below(shadow.size()));
      auto loc = client.map().lookup(it->first);
      if (loc.ok() && loc->tier != mem::Tier::kRemote &&
          client.remove_sync(it->first).ok())
        shadow.erase(it);
    }
    // Invariant (1) holds at every step, not just at the end.
    client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
      if (loc.tier != mem::Tier::kRemote) return;
      EXPECT_LE(loc.replicas.size(),
                static_cast<std::size_t>(loc.ec_k) + loc.ec_r);
      std::set<std::uint32_t> shards;
      for (const auto& replica : loc.replicas) shards.insert(replica.shard);
      EXPECT_EQ(shards.size(), loc.replicas.size());
    });
    system.run_for(10 * kMilli);
  }

  if (!node2_up) system.recover_node(2);
  system.run_for(15 * kSecond);
  for (int round = 0; round < 4; ++round) {
    bool scanned = false;
    system.repair(0).scan_tick([&]() { scanned = true; });
    ASSERT_TRUE(system.simulator().run_until_flag(scanned));
    system.run_for(500 * kMilli);
  }

  ASSERT_GT(shadow.size(), 10u);
  for (const auto& [key, content] : shadow) {
    std::vector<std::byte> out(4096);
    ASSERT_TRUE(client.get_sync(key, out).ok()) << "key " << key;
    EXPECT_EQ(out, fuzz_page(content)) << "key " << key;
  }
}

}  // namespace
}  // namespace dm::core
