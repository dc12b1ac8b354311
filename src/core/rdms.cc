#include "core/rdms.h"

#include "common/status.h"
#include "net/wire.h"

namespace dm::core {

using cluster::kRpcAllocBlock;
using cluster::kRpcEvictNotice;
using cluster::kRpcFreeBlock;

Rdms::Rdms(cluster::Node& node) : node_(node) {
  node_.rpc().handle(kRpcAllocBlock,
                     [this](net::NodeId from, net::WireReader& r) {
                       return handle_alloc(from, r);
                     });
  node_.rpc().handle(kRpcFreeBlock,
                     [this](net::NodeId from, net::WireReader& r) {
                       return handle_free(from, r);
                     });
}

StatusOr<std::vector<std::byte>> Rdms::handle_alloc(net::NodeId from,
                                                    net::WireReader& req) {
  const auto owner_node = static_cast<net::NodeId>(req.u32());
  const auto server = static_cast<cluster::ServerId>(req.u32());
  const auto entry = static_cast<mem::EntryId>(req.u64());
  const auto size = req.u32();
  DM_RETURN_IF_ERROR(req.status());
  (void)from;

  auto block = node_.recv_pool().allocate(size);
  if (!block.ok()) return block.status();
  blocks_.emplace(BlockKey{block->rkey, block->offset},
                  HostedBlock{*block, owner_node, server, entry});

  net::WireWriter w;
  w.put_u32(block->slab);
  w.put_u64(block->rkey);
  w.put_u64(block->offset);
  w.put_u32(block->size);
  return std::move(w).take();
}

StatusOr<std::vector<std::byte>> Rdms::handle_free(net::NodeId from,
                                                   net::WireReader& req) {
  const auto rkey = static_cast<net::RKey>(req.u64());
  const auto offset = req.u64();
  DM_RETURN_IF_ERROR(req.status());
  (void)from;

  auto it = blocks_.find(BlockKey{rkey, offset});
  if (it == blocks_.end()) return NotFoundError("no hosted block at address");
  const mem::SlabId slab = it->second.ref.slab;
  DM_RETURN_IF_ERROR(node_.recv_pool().free(it->second.ref));
  blocks_.erase(it);
  check_drain(slab);
  return std::vector<std::byte>{};
}

void Rdms::drop_all_blocks() {
  for (auto& [key, block] : blocks_)
    (void)node_.recv_pool().free(block.ref);
  blocks_.clear();
  drains_.clear();
  // Deregister every now-empty slab so the pool returns to its boot state
  // (which also lifts the fence of any slab that was draining).
  while (auto slab = node_.recv_pool().least_loaded_slab()) {
    if (!node_.recv_pool().deregister_slab(*slab).ok()) break;
  }
}

void Rdms::drain_slab(mem::SlabId slab,
                      std::function<void(const Status&)> done) {
  if (drains_.count(slab) > 0) {
    done(FailedPreconditionError("slab already draining"));
    return;
  }
  drains_.emplace(slab, std::move(done));
  // New blocks must land elsewhere, or owners placed after the notices
  // would keep the drain open indefinitely.
  node_.recv_pool().fence_slab(slab, true);

  // Collect the owners to notify. Each notice carries every entry the owner
  // has on this slab, so one RPC per owner suffices.
  std::map<net::NodeId, std::vector<const HostedBlock*>> by_owner;
  for (const auto& block : node_.recv_pool().blocks_in_slab(slab)) {
    auto it = blocks_.find(BlockKey{block.rkey, block.offset});
    if (it != blocks_.end())
      by_owner[it->second.owner_node].push_back(&it->second);
  }
  if (by_owner.empty()) {
    check_drain(slab);
    return;
  }
  for (const auto& [owner, hosted] : by_owner) {
    net::WireWriter w;
    w.put_u32(node_.id());  // evicting node
    w.put_u32(static_cast<std::uint32_t>(hosted.size()));
    for (const HostedBlock* b : hosted) {
      w.put_u32(b->owner_server);
      w.put_u64(b->entry);
    }
    node_.rpc().call(owner, kRpcEvictNotice, std::move(w).take(),
                     100 * kMilli, [this, slab](auto resp) {
                       if (!resp.ok()) {
                         // Owner unreachable; drain stalls. Surface the error
                         // once and drop the drain so it can be retried.
                         auto it = drains_.find(slab);
                         if (it != drains_.end()) {
                           auto cb = std::move(it->second);
                           drains_.erase(it);
                           node_.recv_pool().fence_slab(slab, false);
                           cb(resp.status());
                         }
                       }
                     });
  }
  ++node_.recv_pool().metrics().counter("rdms.drains_started");
}

void Rdms::check_drain(mem::SlabId slab) {
  auto it = drains_.find(slab);
  if (it == drains_.end()) return;
  if (!node_.recv_pool().blocks_in_slab(slab).empty()) return;
  auto done = std::move(it->second);
  drains_.erase(it);
  Status final = node_.recv_pool().deregister_slab(slab);
  done(final);
}

}  // namespace dm::core
