// Erasure-coding battery (Hydra-style resilient remote memory).
//
// Part 1 exercises the pure Reed–Solomon codec: GF(2^8) field axioms, the
// systematic-matrix structure, round-trip identity across every supported
// (k, r) shape, reconstruction from *every* r-subset of losses, corrupted
// shard detection, and a seeded codec fuzz loop. Part 2 drives the codec
// through the cluster: EC puts stripe across distinct nodes, degraded reads
// reconstruct around crashes and partitions, the repair scan re-encodes
// lost shards, and the whole path stays deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "core/node_service.h"
#include "core/repair_service.h"
#include "ec/gf256.h"
#include "ec/rs_codec.h"
#include "mem/memory_map.h"
#include "workloads/page_content.h"

namespace dm::ec {
namespace {

std::vector<std::byte> pattern_bytes(std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> bytes(len);
  for (auto& b : bytes) b = static_cast<std::byte>(rng.next_below(256));
  return bytes;
}

// --- GF(2^8) field axioms ----------------------------------------------------

TEST(Gf256Test, MultiplicativeInversesExhaustive) {
  for (int a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf_mul(ua, gf_inv(ua)), 1) << "a=" << a;
    EXPECT_EQ(gf_div(ua, ua), 1) << "a=" << a;
    EXPECT_EQ(gf_div(1, ua), gf_inv(ua)) << "a=" << a;
  }
  EXPECT_EQ(gf_mul(0, 77), 0);
  EXPECT_EQ(gf_mul(77, 0), 0);
  EXPECT_EQ(gf_mul(1, 213), 213);
}

TEST(Gf256Test, RingAxiomsSampled) {
  Rng rng(41);
  for (int i = 0; i < 4096; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_below(256));
    const auto b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto c = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_EQ(gf_mul(a, b), gf_mul(b, a));
    EXPECT_EQ(gf_mul(a, gf_mul(b, c)), gf_mul(gf_mul(a, b), c));
    // Distributivity over the field's addition (xor).
    EXPECT_EQ(gf_mul(a, static_cast<std::uint8_t>(b ^ c)),
              gf_mul(a, b) ^ gf_mul(a, c));
  }
}

TEST(Gf256Test, PowMatchesRepeatedMultiplication) {
  Rng rng(43);
  for (int i = 0; i < 256; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_below(256));
    const std::size_t n = rng.next_below(12);
    std::uint8_t expect = 1;
    for (std::size_t j = 0; j < n; ++j) expect = gf_mul(expect, a);
    EXPECT_EQ(gf_pow(a, n), expect) << "a=" << int(a) << " n=" << n;
  }
}

TEST(Gf256Test, MulAddMatchesScalarLoop) {
  Rng rng(47);
  std::vector<std::uint8_t> in(513), out(513), expect(513);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  expect = out;
  const std::uint8_t coeff = 0x8e;
  for (std::size_t i = 0; i < in.size(); ++i)
    expect[i] = static_cast<std::uint8_t>(expect[i] ^ gf_mul(coeff, in[i]));
  gf_mul_add(coeff, in.data(), out.data(), in.size());
  EXPECT_EQ(out, expect);
}

// --- codec construction and structure ---------------------------------------

TEST(RsCodecTest, MakeRejectsInvalidShapes) {
  EXPECT_FALSE(RsCodec::make(0, 2).ok());
  EXPECT_FALSE(RsCodec::make(200, 56).ok());
  EXPECT_TRUE(RsCodec::make(1, 0).ok());
  EXPECT_TRUE(RsCodec::make(128, 127).ok());
}

TEST(RsCodecTest, SystematicMatrixTopIsIdentity) {
  auto codec = RsCodec::make(5, 3);
  ASSERT_TRUE(codec.ok());
  for (std::size_t i = 0; i < 5; ++i) {
    auto row = codec->matrix_row(i);
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_EQ(row[j], i == j ? 1 : 0) << "row " << i << " col " << j;
  }
  // k = 1 is replication: every coding row is all ones, so each parity
  // shard is a verbatim copy of the data shard.
  auto copies = RsCodec::make(1, 4);
  ASSERT_TRUE(copies.ok());
  for (std::size_t i = 0; i < 5; ++i) {
    auto row = copies->matrix_row(i);
    ASSERT_EQ(row.size(), 1u);
    EXPECT_EQ(row[0], 1) << "row " << i;
  }
}

TEST(RsCodecTest, ShardSizeArithmetic) {
  EXPECT_EQ(RsCodec::shard_size(4096, 4), 1024u);
  EXPECT_EQ(RsCodec::shard_size(4096, 3), 1366u);  // ceil
  EXPECT_EQ(RsCodec::shard_size(1, 8), 1u);
  EXPECT_EQ(RsCodec::shard_size(0, 4), 1u);  // never zero-sized shards
}

// --- round-trip identity across supported shapes -----------------------------

TEST(RsCodecTest, RoundTripIdentityAcrossShapes) {
  const std::size_t ks[] = {1, 2, 3, 4, 6, 8, 10, 16};
  const std::size_t rs[] = {0, 1, 2, 3, 4};
  const std::size_t lens[] = {1, 7, 1024, 4096, 4097};
  for (std::size_t k : ks) {
    for (std::size_t r : rs) {
      auto codec = RsCodec::make(k, r);
      ASSERT_TRUE(codec.ok()) << "k=" << k << " r=" << r;
      for (std::size_t len : lens) {
        const auto data = pattern_bytes(len, k * 131 + r * 17 + len);
        auto shards = codec->encode(data);
        ASSERT_TRUE(shards.ok());
        ASSERT_EQ(shards->size(), k + r);
        const std::size_t want = RsCodec::shard_size(len, k);
        for (const auto& shard : *shards) EXPECT_EQ(shard.size(), want);
        auto back = codec->decode(*shards, len);
        ASSERT_TRUE(back.ok()) << "k=" << k << " r=" << r << " len=" << len;
        EXPECT_EQ(*back, data) << "k=" << k << " r=" << r << " len=" << len;
      }
    }
  }
}

// --- reconstruction from every r-subset of losses ----------------------------

void every_loss_subset(std::size_t k, std::size_t r) {
  auto codec = RsCodec::make(k, r);
  ASSERT_TRUE(codec.ok());
  const auto data = pattern_bytes(4096, 1000 * k + r);
  auto encoded = codec->encode(data);
  ASSERT_TRUE(encoded.ok());
  const std::size_t total = k + r;
  // Every subset of shard indices with size <= r, enumerated by bitmask.
  for (std::uint32_t mask = 0; mask < (1u << total); ++mask) {
    const auto losses =
        static_cast<std::size_t>(__builtin_popcount(mask));
    if (losses == 0 || losses > r) continue;
    auto shards = *encoded;
    for (std::size_t i = 0; i < total; ++i)
      if (mask & (1u << i)) shards[i].clear();
    ASSERT_TRUE(codec->reconstruct(shards).ok())
        << "k=" << k << " r=" << r << " mask=" << mask;
    for (std::size_t i = 0; i < total; ++i)
      EXPECT_EQ(shards[i], (*encoded)[i])
          << "k=" << k << " r=" << r << " mask=" << mask << " shard " << i;
    auto back = codec->decode(shards, data.size());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, data);
  }
  // One loss beyond r is unrecoverable and must say so (not garbage).
  if (r + 1 <= total) {
    auto shards = *encoded;
    for (std::size_t i = 0; i <= r; ++i) shards[i].clear();
    EXPECT_EQ(codec->reconstruct(shards).code(), StatusCode::kDataLoss);
  }
}

TEST(RsCodecTest, ReconstructsFromEveryLossSubset12) {
  every_loss_subset(1, 2);
}
TEST(RsCodecTest, ReconstructsFromEveryLossSubset21) {
  every_loss_subset(2, 1);
}
TEST(RsCodecTest, ReconstructsFromEveryLossSubset42) {
  every_loss_subset(4, 2);
}
TEST(RsCodecTest, ReconstructsFromEveryLossSubset33) {
  every_loss_subset(3, 3);
}

// --- corruption detection ----------------------------------------------------

TEST(RsCodecTest, VerifyDetectsSingleByteCorruptionInEveryShard) {
  auto codec = RsCodec::make(4, 2);
  ASSERT_TRUE(codec.ok());
  const auto data = pattern_bytes(2048, 99);
  auto shards = codec->encode(data);
  ASSERT_TRUE(shards.ok());
  auto clean = codec->verify(*shards);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(*clean);
  Rng rng(17);
  for (std::size_t s = 0; s < shards->size(); ++s) {
    auto corrupted = *shards;
    const std::size_t at = rng.next_below(corrupted[s].size());
    corrupted[s][at] ^= std::byte{0x40};
    auto flagged = codec->verify(corrupted);
    ASSERT_TRUE(flagged.ok());
    EXPECT_FALSE(*flagged) << "corruption in shard " << s << " missed";
  }
}

TEST(RsCodecTest, VerifyRequiresAllShards) {
  auto codec = RsCodec::make(3, 2);
  ASSERT_TRUE(codec.ok());
  auto shards = codec->encode(pattern_bytes(512, 5));
  ASSERT_TRUE(shards.ok());
  (*shards)[1].clear();
  EXPECT_EQ(codec->verify(*shards).status().code(),
            StatusCode::kInvalidArgument);
}

// --- seeded codec fuzz -------------------------------------------------------

TEST(RsCodecFuzz, RandomShapesLossesAndLengthsRoundTrip) {
  Rng rng(0xEC0DEC);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t k = 1 + rng.next_below(10);
    const std::size_t r = rng.next_below(5);
    const std::size_t len = 1 + rng.next_below(8192);
    auto codec = RsCodec::make(k, r);
    ASSERT_TRUE(codec.ok());
    const auto data = pattern_bytes(len, 0xF00D + iter);
    auto shards = codec->encode(data);
    ASSERT_TRUE(shards.ok());
    // Drop a random subset of at most r shards.
    const std::size_t losses = rng.next_below(r + 1);
    std::set<std::size_t> dropped;
    while (dropped.size() < losses)
      dropped.insert(rng.next_below(k + r));
    for (std::size_t i : dropped) (*shards)[i].clear();
    auto back = codec->decode(*shards, len);
    ASSERT_TRUE(back.ok())
        << "iter=" << iter << " k=" << k << " r=" << r << " len=" << len;
    EXPECT_EQ(*back, data) << "iter=" << iter;
  }
}

}  // namespace
}  // namespace dm::ec

// ---- Part 2: the codec wired through the cluster ----------------------------

namespace dm::core {
namespace {

std::vector<std::byte> page_data(std::uint64_t id, double r = 0.5) {
  std::vector<std::byte> bytes(4096);
  workloads::fill_page(bytes, id, r, 7);
  return bytes;
}

DmSystem::Config ec_config(std::size_t nodes, std::size_t k, std::size_t r,
                           std::size_t min_shards = 0) {
  DmSystem::Config config;
  config.node_count = nodes;
  config.node.shm.arena_bytes = 4 * MiB;
  config.node.recv.arena_bytes = 8 * MiB;
  config.node.disk.capacity_bytes = 64 * MiB;
  config.service.rdmc.ec_k = k;
  config.service.rdmc.ec_r = r;
  config.service.rdmc.min_shards = min_shards;
  return config;
}

LdmcOptions remote_only() {
  LdmcOptions options;
  options.shm_fraction = 0.0;
  options.allow_disk = false;
  return options;
}

// An EC put stripes k+r shards across k+r *distinct* nodes, records the
// stripe shape and per-shard checksums in the committed location, and the
// fault-free read returns exact bytes without any decode.
TEST(EcSystemTest, PutStripesAcrossDistinctNodesAndReadsBack) {
  DmSystem system(ec_config(7, 4, 2));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());

  const auto data = page_data(1);
  ASSERT_TRUE(client.put_sync(1, data).ok());
  auto loc = client.map().lookup(1);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->tier, mem::Tier::kRemote);
  EXPECT_EQ(loc->ec_k, 4);
  EXPECT_EQ(loc->ec_r, 2);
  EXPECT_FALSE(loc->degraded);
  ASSERT_EQ(loc->replicas.size(), 6u);
  ASSERT_EQ(loc->shard_checksums.size(), 6u);
  std::set<net::NodeId> hosts;
  std::set<std::uint32_t> shards;
  for (const auto& replica : loc->replicas) {
    hosts.insert(replica.node);
    shards.insert(replica.shard);
    // 4 KiB across k=4 -> 1 KiB shards, not whole copies.
    EXPECT_EQ(replica.block_size, 1024u);
  }
  EXPECT_EQ(hosts.size(), 6u);   // one shard per node
  EXPECT_EQ(shards.size(), 6u);  // every shard index placed exactly once

  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(1, out).ok());
  EXPECT_EQ(out, data);
  // Fault-free: served by direct shard reads, no reconstruction.
  EXPECT_EQ(system.service(0).metrics().counter_value("ec.degraded_reads"),
            0u);
  EXPECT_GE(system.service(0).metrics().counter_value("ec.encodes"), 1u);
}

// Crash any r shard hosts: every entry remains readable with exact bytes
// via reconstruction, and the decode is visible in the ec.* metrics.
TEST(EcSystemTest, DegradedReadReconstructsAfterShardHostCrashes) {
  DmSystem system(ec_config(7, 4, 2));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());

  const auto data = page_data(2);
  ASSERT_TRUE(client.put_sync(2, data).ok());
  auto loc = client.map().lookup(2);
  ASSERT_TRUE(loc.ok());

  // Crash the hosts of two *data* shards (worst case for the fast path).
  std::vector<net::NodeId> victims;
  for (const auto& replica : loc->replicas)
    if (replica.shard < 2) victims.push_back(replica.node);
  ASSERT_EQ(victims.size(), 2u);
  for (net::NodeId victim : victims)
    for (std::size_t i = 0; i < system.node_count(); ++i)
      if (system.node(i).id() == victim) system.crash_node(i);

  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(2, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_GE(system.service(0).metrics().counter_value("ec.degraded_reads"),
            1u);
}

// A partitioned (up but unreachable) shard host also falls back to the
// degraded path — the fast path discovers the failure in flight.
TEST(EcSystemTest, DegradedReadReconstructsAroundPartition) {
  DmSystem system(ec_config(6, 2, 2));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());

  const auto data = page_data(3);
  ASSERT_TRUE(client.put_sync(3, data).ok());
  auto loc = client.map().lookup(3);
  ASSERT_TRUE(loc.ok());
  const net::NodeId self = system.node(0).id();
  net::NodeId shard0_host = net::kInvalidNode;
  for (const auto& replica : loc->replicas)
    if (replica.shard == 0) shard0_host = replica.node;
  ASSERT_NE(shard0_host, net::kInvalidNode);
  system.fabric().set_link_up(self, shard0_host, false);
  system.fabric().set_link_up(shard0_host, self, false);

  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(3, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_GE(system.service(0).metrics().counter_value("ec.degraded_reads"),
            1u);

  system.fabric().set_link_up(self, shard0_host, true);
  system.fabric().set_link_up(shard0_host, self, true);
}

// Sub-page reads on the fast path: a range that lives inside one shard
// reads only that shard, byte-exact.
TEST(EcSystemTest, RangeReadsServeFromCoveringShards) {
  DmSystem system(ec_config(7, 4, 2));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());
  const auto data = page_data(4);
  ASSERT_TRUE(client.put_sync(4, data).ok());

  // Within shard 1 (bytes 1024..2047), and straddling shards 2/3.
  std::vector<std::byte> mid(256);
  ASSERT_TRUE(client.get_range_sync(4, 1500, mid).ok());
  EXPECT_TRUE(std::equal(mid.begin(), mid.end(), data.begin() + 1500));
  std::vector<std::byte> straddle(1024);
  ASSERT_TRUE(client.get_range_sync(4, 2560, straddle).ok());
  EXPECT_TRUE(
      std::equal(straddle.begin(), straddle.end(), data.begin() + 2560));
}

// The repair scan re-encodes the shards lost to a crash onto fresh nodes:
// the stripe returns to k+r distinct live hosts, the degraded flag clears,
// and ec.shards_repaired counts the re-encoded shards.
TEST(EcSystemTest, RepairScanReencodesLostShards) {
  auto config = ec_config(8, 4, 2, /*min_shards=*/4);
  config.repair.enabled = true;
  config.repair.scan_period = 500 * kMilli;
  DmSystem system(config);
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());

  const auto data = page_data(5);
  ASSERT_TRUE(client.put_sync(5, data).ok());
  auto loc = client.map().lookup(5);
  ASSERT_TRUE(loc.ok());
  const net::NodeId victim = loc->replicas.front().node;
  const std::uint32_t lost_shard = loc->replicas.front().shard;
  for (std::size_t i = 0; i < system.node_count(); ++i)
    if (system.node(i).id() == victim) system.crash_node(i);

  // Let failure detection fire and the repair scans run.
  system.run_for(15 * kSecond);

  loc = client.map().lookup(5);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->replicas.size(), 6u);
  EXPECT_FALSE(loc->degraded);
  std::set<std::uint32_t> shards;
  for (const auto& replica : loc->replicas) {
    shards.insert(replica.shard);
    EXPECT_NE(replica.node, victim);
  }
  EXPECT_TRUE(shards.count(lost_shard)) << "lost shard not re-encoded";
  EXPECT_EQ(shards.size(), 6u);
  EXPECT_GE(system.total_counter("ec.shards_repaired"), 1u);

  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(5, out).ok());
  EXPECT_EQ(out, data);
}

// min_shards floor: with only k+1 candidate hosts alive, the put degrades
// to a short stripe (still >= k) instead of failing, and repair tops it
// back up once capacity returns.
TEST(EcSystemTest, ShortPlacementDegradesToMinShards) {
  DmSystem system(ec_config(7, 2, 2, /*min_shards=*/2));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());

  // Kill three nodes; 3 candidates remain (self excluded) for 4 shards.
  system.crash_node(4);
  system.crash_node(5);
  system.crash_node(6);
  system.run_for(10 * kSecond);

  ASSERT_TRUE(client.put_sync(6, page_data(6)).ok());
  auto loc = client.map().lookup(6);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->tier, mem::Tier::kRemote);
  EXPECT_EQ(loc->replicas.size(), 3u);
  EXPECT_TRUE(loc->degraded);

  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(6, out).ok());
  EXPECT_EQ(out, page_data(6));

  // Capacity returns; one scan restores the full stripe.
  system.recover_node(4);
  system.recover_node(5);
  system.recover_node(6);
  system.run_for(10 * kSecond);
  bool scanned = false;
  system.repair(0).scan_tick([&]() { scanned = true; });
  ASSERT_TRUE(system.simulator().run_until_flag(scanned));
  loc = client.map().lookup(6);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->replicas.size(), 4u);
  EXPECT_FALSE(loc->degraded);
}

// A host that crashed before membership noticed still draws shards, and
// every reservation on it fails. The put then sheds parity, not data: each
// short stripe keeps shards 0..k-1, so reads stay on the direct path.
TEST(EcSystemTest, PutsDuringUndetectedCrashKeepEveryDataShard) {
  DmSystem system(ec_config(8, 4, 2, /*min_shards=*/4));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());
  system.crash_node(3);  // no virtual time passes: still listed alive

  constexpr std::uint64_t kEntries = 32;
  for (std::uint64_t id = 0; id < kEntries; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok()) << id;
  std::size_t short_stripes = 0;
  for (std::uint64_t id = 0; id < kEntries; ++id) {
    auto loc = client.map().lookup(id);
    ASSERT_TRUE(loc.ok());
    ASSERT_EQ(loc->tier, mem::Tier::kRemote);
    if (!loc->degraded) continue;
    ++short_stripes;
    std::set<std::uint32_t> shards;
    for (const auto& replica : loc->replicas) shards.insert(replica.shard);
    for (std::uint32_t data_shard = 0; data_shard < 4; ++data_shard)
      EXPECT_TRUE(shards.count(data_shard))
          << "entry " << id << " lost data shard " << data_shard;
  }
  EXPECT_GT(short_stripes, 0u);  // the crashed host did draw shards

  const auto& metrics = system.service(0).metrics();
  const std::uint64_t degraded = metrics.counter_value("ec.degraded_reads");
  std::vector<std::byte> out(4096);
  for (std::uint64_t id = 0; id < kEntries; ++id) {
    ASSERT_TRUE(client.get_sync(id, out).ok()) << id;
    EXPECT_EQ(out, page_data(id)) << id;
  }
  EXPECT_EQ(metrics.counter_value("ec.degraded_reads"), degraded);
}

// EC memory economics (the Hydra claim): hosted bytes across the cluster
// for (k=4, r=2) stay at ~1.5x the logical bytes — strictly below the 2x
// floor of replication factor 2.
TEST(EcSystemTest, MemoryOverheadBeatsReplication) {
  DmSystem system(ec_config(8, 4, 2));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());
  constexpr std::uint64_t kEntries = 32;
  std::uint64_t logical = 0;
  for (std::uint64_t id = 0; id < kEntries; ++id) {
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok());
    logical += 4096;
  }
  std::uint64_t hosted = 0;
  client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
    for (const auto& replica : loc.replicas) hosted += replica.block_size;
  });
  const double overhead =
      static_cast<double>(hosted) / static_cast<double>(logical);
  EXPECT_NEAR(overhead, 1.5, 0.01);  // (k+r)/k with 1 KiB shards
}

// Same-seed determinism at the system level: two identical EC runs with
// crashes and repair produce byte-identical metric exports.
TEST(EcSystemTest, SameSeedRunsAreByteIdentical) {
  auto run = [](std::uint64_t seed) {
    auto config = ec_config(7, 4, 2, /*min_shards=*/4);
    config.seed = seed;
    config.repair.enabled = true;
    config.repair.scan_period = 500 * kMilli;
    DmSystem system(config);
    system.start();
    auto& client = system.create_server(0, 64 * MiB, remote_only());
    for (std::uint64_t id = 0; id < 12; ++id)
      EXPECT_TRUE(client.put_sync(id, page_data(id)).ok());
    system.crash_node(3);
    system.run_for(12 * kSecond);
    std::vector<std::byte> out(4096);
    for (std::uint64_t id = 0; id < 12; ++id)
      EXPECT_TRUE(client.get_sync(id, out).ok());
    return system.hub().snapshot_json();
  };
  const std::string a = run(777);
  const std::string b = run(777);
  EXPECT_EQ(a, b);
  EXPECT_NE(run(778), a);  // the seed actually steers the run
}

}  // namespace
}  // namespace dm::core
