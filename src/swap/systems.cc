#include "swap/systems.h"

#include <cstdio>

namespace dm::swap {

std::string_view to_string(SystemKind kind) noexcept {
  switch (kind) {
    case SystemKind::kFastSwap: return "FastSwap";
    case SystemKind::kFastSwapNoPbs: return "FastSwap-noPBS";
    case SystemKind::kInfiniswap: return "Infiniswap";
    case SystemKind::kNbdx: return "NBDX";
    case SystemKind::kLinux: return "Linux";
    case SystemKind::kZswap: return "Zswap";
  }
  return "?";
}

SystemSetup make_system(SystemKind kind, std::uint64_t resident_pages) {
  SystemSetup setup;
  setup.name = to_string(kind);
  setup.swap.resident_pages = resident_pages;
  // The measured prototypes run unreplicated: one copy, RS(1, 0). The
  // replication ablation bench raises this to 2 and 3 copies.
  setup.service.rdmc.ec_k = 1;
  setup.service.rdmc.ec_r = 0;

  switch (kind) {
    case SystemKind::kFastSwap:
      setup.ldmc.shm_fraction = 1.0;
      setup.swap.batch_pages = 8;
      setup.swap.proactive_batch_swap_in = true;
      setup.swap.compression = CompressionMode::kFourGranularity;
      break;
    case SystemKind::kFastSwapNoPbs:
      setup.ldmc.shm_fraction = 1.0;
      setup.swap.batch_pages = 8;
      setup.swap.proactive_batch_swap_in = false;
      setup.swap.compression = CompressionMode::kFourGranularity;
      break;
    case SystemKind::kInfiniswap:
      setup.ldmc.shm_fraction = 0.0;  // no node-level shared pool
      // Infiniswap runs under the normal kernel swap path, so it inherits
      // write clustering and page-cluster readahead (batch of 8)...
      setup.swap.batch_pages = 8;
      setup.swap.proactive_batch_swap_in = true;
      setup.swap.compression = CompressionMode::kOff;
      setup.swap.disk_backup = true;
      // ...but every 4 KiB page still traverses the block layer + nbd
      // request path individually (no message coalescing on the wire).
      setup.swap.extra_op_overhead = 8 * kMicro;
      break;
    case SystemKind::kNbdx:
      setup.ldmc.shm_fraction = 0.0;
      setup.swap.batch_pages = 8;
      setup.swap.proactive_batch_swap_in = true;
      setup.swap.compression = CompressionMode::kOff;
      setup.swap.extra_op_overhead = 6 * kMicro;  // leaner than Infiniswap
      break;
    case SystemKind::kLinux:
      setup.ldmc.shm_fraction = 0.0;
      setup.ldmc.allow_remote = false;  // disk only
      // Linux clusters swap-out writes and reads ahead page-cluster (2^3)
      // pages on swap-in; modeling both keeps the baseline honest.
      setup.swap.batch_pages = 8;
      setup.swap.proactive_batch_swap_in = true;
      setup.swap.compression = CompressionMode::kOff;
      break;
    case SystemKind::kZswap: {
      // Linux swap plus the zswap compressed RAM cache. The pool takes 20%
      // of the DRAM budget (the kernel's max_pool_percent default), so the
      // resident set shrinks by the same amount — a fair comparison.
      setup.ldmc.shm_fraction = 0.0;
      setup.ldmc.allow_remote = false;
      setup.swap.batch_pages = 8;
      setup.swap.proactive_batch_swap_in = true;
      setup.swap.compression = CompressionMode::kOff;  // pool compresses
      const std::uint64_t pool_pages = resident_pages / 5;
      setup.swap.zswap_pool_bytes = pool_pages * 4096;
      setup.swap.resident_pages = resident_pages - pool_pages;
      break;
    }
  }
  return setup;
}

SystemSetup make_fastswap_ratio(double shm_fraction,
                                std::uint64_t resident_pages) {
  SystemSetup setup = make_system(SystemKind::kFastSwap, resident_pages);
  setup.ldmc.shm_fraction = shm_fraction;
  char name[32];
  if (shm_fraction >= 1.0) {
    std::snprintf(name, sizeof(name), "FS-SM");
  } else if (shm_fraction <= 0.0) {
    std::snprintf(name, sizeof(name), "FS-RDMA");
  } else {
    std::snprintf(name, sizeof(name), "FS-%d:%d",
                  static_cast<int>(shm_fraction * 10.0 + 0.5),
                  static_cast<int>((1.0 - shm_fraction) * 10.0 + 0.5));
  }
  setup.name = name;
  return setup;
}

}  // namespace dm::swap
