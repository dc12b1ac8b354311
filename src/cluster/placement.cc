#include "cluster/placement.h"

#include <algorithm>
#include <numeric>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"

namespace dm::cluster {
namespace {

// Filters to candidates that can host `size` bytes, preserving order.
std::vector<CandidateNode> eligible(std::span<const CandidateNode> candidates,
                                    std::uint64_t size) {
  std::vector<CandidateNode> out;
  out.reserve(candidates.size());
  for (const auto& c : candidates)
    if (c.free_bytes >= size) out.push_back(c);
  return out;
}

class RandomPolicy final : public PlacementPolicy {
 public:
  StatusOr<std::vector<net::NodeId>> pick(
      std::span<const CandidateNode> candidates, std::size_t count,
      std::uint64_t size, Rng& rng) override {
    auto pool = eligible(candidates, size);
    if (pool.size() < count)
      return ResourceExhaustedError("not enough eligible nodes");
    rng.shuffle(pool);
    std::vector<net::NodeId> out;
    for (std::size_t i = 0; i < count; ++i) out.push_back(pool[i].node);
    return out;
  }
};

class RoundRobinPolicy final : public PlacementPolicy {
 public:
  StatusOr<std::vector<net::NodeId>> pick(
      std::span<const CandidateNode> candidates, std::size_t count,
      std::uint64_t size, Rng&) override {
    auto pool = eligible(candidates, size);
    if (pool.size() < count)
      return ResourceExhaustedError("not enough eligible nodes");
    std::vector<net::NodeId> out;
    for (std::size_t i = 0; i < count; ++i)
      out.push_back(pool[(cursor_ + i) % pool.size()].node);
    cursor_ = (cursor_ + count) % pool.size();
    return out;
  }

 private:
  std::size_t cursor_ = 0;
};

// Weighted round robin: selection probability proportional to free bytes,
// implemented as repeated weighted sampling without replacement.
class WeightedRoundRobinPolicy final : public PlacementPolicy {
 public:
  StatusOr<std::vector<net::NodeId>> pick(
      std::span<const CandidateNode> candidates, std::size_t count,
      std::uint64_t size, Rng& rng) override {
    auto pool = eligible(candidates, size);
    if (pool.size() < count)
      return ResourceExhaustedError("not enough eligible nodes");
    std::vector<net::NodeId> out;
    while (out.size() < count) {
      std::uint64_t total = 0;
      for (const auto& c : pool) total += c.free_bytes;
      std::uint64_t target = rng.next_below(total);
      std::size_t chosen = pool.size() - 1;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (target < pool[i].free_bytes) {
          chosen = i;
          break;
        }
        target -= pool[i].free_bytes;
      }
      out.push_back(pool[chosen].node);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(chosen));
    }
    return out;
  }
};

// Power of two choices: sample two random candidates, keep the one with more
// free memory; repeat per replica (Richa/Mitzenmacher/Sitaraman, paper [31]).
//
// Load-aware selection (§IV.E extended) is the same duel decided by the
// pressure-discounted score instead of raw free bytes, consuming the rng
// identically, so with all pressures zero the two pick the same nodes.
// Skewed tenant traffic raises the hot nodes' pressure, which repels new
// placements before their pools are exhausted — the feedback loop that
// keeps large-cluster p99 bounded. Random probing (rather than ranking or
// weighted sampling over the whole set) matters: candidate free-memory
// views are heartbeat-stale, and any policy that concentrates picks on the
// advertised-richest donor dogpiles it between refreshes.
class TwoChoicePolicy final : public PlacementPolicy {
 public:
  // kPowerOfTwoChoices or kLoadAware: which key decides the duel.
  explicit TwoChoicePolicy(PlacementPolicyKind kind) : kind_(kind) {}

  StatusOr<std::vector<net::NodeId>> pick(
      std::span<const CandidateNode> candidates, std::size_t count,
      std::uint64_t size, Rng& rng) override {
    auto pool = eligible(candidates, size);
    if (pool.size() < count)
      return ResourceExhaustedError("not enough eligible nodes");
    std::vector<net::NodeId> out;
    while (out.size() < count) {
      const std::size_t a = static_cast<std::size_t>(rng.next_below(pool.size()));
      std::size_t b = static_cast<std::size_t>(rng.next_below(pool.size()));
      if (pool.size() > 1) {
        while (b == a) b = static_cast<std::size_t>(rng.next_below(pool.size()));
      }
      const std::size_t chosen = key(pool[a]) >= key(pool[b]) ? a : b;
      out.push_back(pool[chosen].node);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(chosen));
    }
    return out;
  }

 private:
  std::uint64_t key(const CandidateNode& c) const noexcept {
    return kind_ == PlacementPolicyKind::kLoadAware ? load_aware_score(c)
                                                    : c.free_bytes;
  }

  PlacementPolicyKind kind_;
};

}  // namespace

std::uint64_t load_aware_score(const CandidateNode& candidate) noexcept {
  // Gentle discount: kPressureScale ops of windowed demand halve a donor's
  // effective free memory. A divisor linear in raw pressure would zero out
  // every busy donor and funnel all placements onto the few idle ones —
  // measurably worse than pressure-blind choice once the idle donors fill.
  constexpr std::uint64_t kPressureScale = 256;
  const std::uint64_t score =
      candidate.free_bytes * kPressureScale /
      (kPressureScale + candidate.pressure);
  return score > 0 ? score : 1;
}

std::vector<CandidateNode> load_aware_rank(
    std::span<const CandidateNode> candidates, std::uint64_t size) {
  auto ranked = eligible(candidates, size);
  std::sort(ranked.begin(), ranked.end(),
            [](const CandidateNode& a, const CandidateNode& b) {
              const std::uint64_t sa = load_aware_score(a);
              const std::uint64_t sb = load_aware_score(b);
              if (sa != sb) return sa > sb;
              return a.node < b.node;
            });
  return ranked;
}

StatusOr<std::vector<net::NodeId>> PlacementPolicy::pick_recorded(
    std::span<const CandidateNode> candidates, std::size_t count,
    std::uint64_t size, Rng& rng, MetricsRegistry* metrics) {
  auto picked = pick(candidates, count, size, rng);
  if (metrics != nullptr) {
    ++metrics->counter("placement.decisions");
    if (!picked.ok()) ++metrics->counter("placement.failures");
    metrics->histogram("placement.candidates").record(candidates.size());
    std::uint64_t fit = 0;
    for (const auto& c : candidates)
      if (c.free_bytes >= size) ++fit;
    metrics->histogram("placement.eligible").record(fit);
  }
  return picked;
}

std::string_view to_string(PlacementPolicyKind kind) noexcept {
  switch (kind) {
    case PlacementPolicyKind::kRandom: return "random";
    case PlacementPolicyKind::kRoundRobin: return "round-robin";
    case PlacementPolicyKind::kWeightedRoundRobin: return "weighted-rr";
    case PlacementPolicyKind::kPowerOfTwoChoices: return "power-of-two";
    case PlacementPolicyKind::kLoadAware: return "load-aware";
  }
  return "?";
}

std::unique_ptr<PlacementPolicy> make_placement_policy(
    PlacementPolicyKind kind) {
  switch (kind) {
    case PlacementPolicyKind::kRandom:
      return std::make_unique<RandomPolicy>();
    case PlacementPolicyKind::kRoundRobin:
      return std::make_unique<RoundRobinPolicy>();
    case PlacementPolicyKind::kWeightedRoundRobin:
      return std::make_unique<WeightedRoundRobinPolicy>();
    case PlacementPolicyKind::kPowerOfTwoChoices:
    case PlacementPolicyKind::kLoadAware:
      return std::make_unique<TwoChoicePolicy>(kind);
  }
  return nullptr;
}

}  // namespace dm::cluster
