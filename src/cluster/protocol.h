// Control-plane RPC method ids shared by the cluster and core layers.
//
// One flat method space per node keeps dispatch trivial; ids are grouped by
// subsystem. Payload encodings are documented at each handler site.
#pragma once

#include "net/rpc.h"

namespace dm::cluster {

enum RpcMethodId : net::RpcMethod {
  // membership / election
  kRpcHeartbeat = 1,       // req: {}      resp: u64 free_bytes, u64 pressure
  kRpcAnnounceLeader = 3,  // req: u32 leader   resp: {}
  kRpcQueryCandidates = 4, // req: {}
                           // resp: u32 n, (u32 node, u64 free, u64 pressure)*

  // remote disaggregated memory (RDMS side)
  kRpcAllocBlock = 10,  // req: u32 owner_node, u32 server, u64 entry, u32 size
                        // resp: u32 slab, u64 rkey, u64 offset
  kRpcFreeBlock = 11,   // req: u64 rkey, u64 offset            resp: {}
  kRpcEvictNotice = 12, // req: u32 count, {u32 server, u64 entry}*  resp: {}

  // live region migration (hot host -> owning node)
  kRpcMigrateRegion = 14,  // req: u32 hot_node, u32 max_entries
                           // resp: u32 migrations_scheduled
};

// Registers human-readable labels for every method id above, so the
// endpoint's "rpc.rtt.<label>" histograms and "rpc.<label>" spans name
// methods instead of raw ids. Called once per endpoint at node construction.
inline void label_rpc_methods(net::RpcEndpoint& rpc) {
  rpc.label_method(kRpcHeartbeat, "heartbeat");
  rpc.label_method(kRpcAnnounceLeader, "announce_leader");
  rpc.label_method(kRpcQueryCandidates, "query_candidates");
  rpc.label_method(kRpcAllocBlock, "alloc_block");
  rpc.label_method(kRpcFreeBlock, "free_block");
  rpc.label_method(kRpcEvictNotice, "evict_notice");
  rpc.label_method(kRpcMigrateRegion, "migrate_region");
}

}  // namespace dm::cluster
