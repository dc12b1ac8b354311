// Deterministic pseudo-random number generation.
//
// All randomness in the library flows through Rng so that a fixed seed yields
// a bit-identical run (virtual-time results included). The engine is
// xoshiro256** seeded via splitmix64, which is fast, high quality, and easy
// to reproduce in other languages when cross-checking benchmark harnesses.
#pragma once

#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace dm {

// splitmix64 step; used for seeding and cheap stateless hashing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Stateless 64-bit mix, handy for deriving per-object seeds from ids.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  // xoshiro256** next().
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0. Uses Lemire's method.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    assert(bound > 0);
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
  }

  // Uniform in [lo, hi] inclusive.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) noexcept {
    assert(lo <= hi);
    return lo + next_below(hi - lo + 1);
  }

  // Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  bool bernoulli(double p) noexcept { return next_double() < p; }

  // Exponentially distributed with the given mean (> 0).
  double exponential(double mean) noexcept {
    double u = next_double();
    if (u <= 0.0) u = 1e-18;
    return -mean * std::log(u);
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

// Zipfian sampler over [0, n) with skew theta (0 = uniform, ~0.99 typical for
// KV workloads). Precomputes the harmonic normalizer once; sampling is O(1)
// using the rejection-free method from Gray et al. (as in YCSB).
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta);

  std::uint64_t next(Rng& rng) noexcept;

  std::uint64_t n() const noexcept { return n_; }
  double theta() const noexcept { return theta_; }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
  double second_bound_;  // 1 + 0.5^theta: a scaled draw below it is key 1
};

}  // namespace dm
