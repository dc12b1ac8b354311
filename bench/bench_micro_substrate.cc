// google-benchmark microbenches for the substrate: host-CPU cost of the
// simulated fabric, the slab allocators, and the real compressor. These
// measure the reproduction's own efficiency (events/sec, compression
// throughput), not virtual-time results.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/status.h"
#include "compress/lz.h"
#include "compress/page_compressor.h"
#include "mem/buffer_pool.h"
#include "mem/memory_map.h"
#include "mem/shared_memory_pool.h"
#include "mem/slab_allocator.h"
#include "net/connection_manager.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "net/wire.h"
#include "sim/simulator.h"
#include "workloads/page_content.h"

namespace {

using namespace dm;

void BM_SimulatorEventThroughput(benchmark::State& state) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i)
      sim.schedule_after(i, [&fired] { ++fired; });
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_FabricWrite4K(benchmark::State& state) {
  sim::Simulator sim;
  net::Fabric fabric(sim);
  fabric.add_node(0);
  fabric.add_node(1);
  std::vector<std::byte> region(1 * MiB);
  auto rkey = fabric.register_memory(1, region);
  auto qp = fabric.connect(0, 1);
  if (!rkey.ok() || !qp.ok()) return;  // substrate refused: nothing to time
  std::vector<std::byte> payload(4096, std::byte{7});
  std::uint64_t completions = 0;
  for (auto _ : state) {
    (void)(*qp)->post_write(*rkey, 0, payload,
                            [&completions](const net::Completion&) {
                              ++completions;
                            });
    sim.run();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(completions) * 4096);
}
BENCHMARK(BM_FabricWrite4K);

void BM_SlabAllocatorChurn(benchmark::State& state) {
  std::vector<std::byte> arena(4 * MiB);
  mem::SlabAllocator alloc(arena);
  std::vector<std::uint64_t> live;
  live.reserve(1024);
  Rng rng(1);
  for (auto _ : state) {
    if (live.size() < 512 || rng.bernoulli(0.5)) {
      // Exact byte lengths, like LZ batches and stripe shards: 200 B to
      // 4 KiB, almost never a power of two.
      auto a = alloc.allocate(200 + rng.next_below(3900));
      if (a.ok()) live.push_back(*a);
    } else {
      (void)alloc.free(live.back());
      live.pop_back();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlabAllocatorChurn);

void BM_SharedPoolPutGet(benchmark::State& state) {
  mem::SharedMemoryPool pool({.arena_bytes = 16 * MiB});
  (void)pool.set_donation(1, 8 * MiB);
  std::vector<std::byte> data(4096, std::byte{3});
  std::vector<std::byte> out(4096);
  mem::EntryId id = 0;
  for (auto _ : state) {
    (void)pool.put(1, id, data);
    (void)pool.get(1, id, out);
    (void)pool.remove(1, id);
    ++id;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096 * 2);
}
BENCHMARK(BM_SharedPoolPutGet);

void BM_LzCompress4K(benchmark::State& state) {
  const double random_fraction = static_cast<double>(state.range(0)) / 100.0;
  std::vector<std::byte> page(4096);
  workloads::fill_page(page, 1, random_fraction, 5);
  std::size_t out_bytes = 0;
  for (auto _ : state) {
    auto compressed = compress::lz_compress(page);
    out_bytes += compressed.size();
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
  state.counters["ratio"] =
      static_cast<double>(state.iterations()) * 4096.0 /
      static_cast<double>(out_bytes);
}
BENCHMARK(BM_LzCompress4K)->Arg(10)->Arg(50)->Arg(90);

void BM_LzRoundTrip4K(benchmark::State& state) {
  std::vector<std::byte> page(4096);
  workloads::fill_page(page, 1, 0.4, 5);
  auto compressed = compress::lz_compress(page);
  std::vector<std::byte> out(4096);
  for (auto _ : state) {
    (void)compress::lz_decompress(compressed, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_LzRoundTrip4K);

void BM_PageCompressorBucketing(benchmark::State& state) {
  compress::PageCompressor pc(compress::GranularityMode::kFour);
  std::vector<std::byte> page(4096);
  workloads::fill_page(page, 2, 0.3, 5);
  for (auto _ : state) {
    auto cp = pc.compress(page);
    benchmark::DoNotOptimize(cp);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_PageCompressorBucketing);

void BM_MemoryMapCommitLookup(benchmark::State& state) {
  mem::MemoryMap map(16);
  mem::EntryLocation loc;
  loc.tier = mem::Tier::kRemote;
  loc.replicas = {{1, 1, 0, 0, 4096}, {2, 2, 0, 0, 4096},
                  {3, 3, 0, 0, 4096}};
  mem::EntryId id = 0;
  for (auto _ : state) {
    map.commit(id % 100000, loc);
    benchmark::DoNotOptimize(map.lookup(id % 100000));
    ++id;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MemoryMapCommitLookup);

void BM_RpcRoundTrip(benchmark::State& state) {
  sim::Simulator sim;
  net::Fabric fabric(sim);
  fabric.add_node(0);
  fabric.add_node(1);
  net::ConnectionManager cm(fabric);
  net::RpcEndpoint ep0(sim, 0), ep1(sim, 1);
  cm.register_endpoint(&ep0);
  cm.register_endpoint(&ep1);
  (void)cm.ensure_control_channel(0, 1);
  ep1.handle(1, [](net::NodeId, net::WireReader&)
                -> StatusOr<std::vector<std::byte>> {
    return std::vector<std::byte>{};
  });
  for (auto _ : state) {
    bool done = false;
    ep0.call(1, 1, {}, 10 * kMilli,
             [&](StatusOr<std::vector<std::byte>>) { done = true; });
    (void)sim.run_until_flag(done);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RpcRoundTrip);

}  // namespace

BENCHMARK_MAIN();
