// Preset configurations for the swapping systems compared in the paper's
// evaluation (§V.A, Figures 6–9).
//
// Each preset fixes (a) the LDMC routing policy — which tiers this system
// may use and in what ratio, (b) the SwapManager mechanics — batching, PBS,
// compression, backup, per-op overheads, and (c) the node-service knobs —
// notably the number of remote copies (the research prototypes the paper
// measures keep one, RS(1, 0); the ablation bench sweeps 1–3 copies).
//
// FS-SM / FS-9:1 / FS-7:3 / FS-5:5 / FS-RDMA (Fig 8) are FastSwap with the
// shared-memory fraction pinned to 1.0 / 0.9 / 0.7 / 0.5 / 0.0.
#pragma once

#include <string>

#include "core/node_service.h"
#include "swap/swap_manager.h"

namespace dm::swap {

enum class SystemKind {
  kFastSwap,       // shm + remote + disk, batching, PBS, 4-gran compression
  kFastSwapNoPbs,  // FastSwap without proactive batch swap-in
  kInfiniswap,     // remote paging, per-page, async disk backup
  kNbdx,           // raw RDMA block device, per-page
  kLinux,          // disk swap only
  kZswap,          // compressed RAM cache (zbud) in front of disk swap
};

std::string_view to_string(SystemKind kind) noexcept;

struct SystemSetup {
  std::string name;
  core::LdmcOptions ldmc;
  SwapManager::Config swap;
  core::NodeService::Config service;
};

// `resident_pages` is the virtual server's DRAM budget in pages (the 75% /
// 50% configurations of §V pick it as a fraction of the working set).
SystemSetup make_system(SystemKind kind, std::uint64_t resident_pages);

// FastSwap with the node-level : cluster-level distribution ratio pinned
// (Fig 8). shm_fraction = 1.0 is FS-SM, 0.0 is FS-RDMA.
SystemSetup make_fastswap_ratio(double shm_fraction,
                                std::uint64_t resident_pages);

}  // namespace dm::swap
