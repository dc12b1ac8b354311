// Log-bucketed histogram for latency/size distributions.
//
// Buckets grow geometrically (factor ~1.25 by default via 4 sub-buckets per
// power of two), giving <13% relative error on percentile queries while using
// a few hundred fixed buckets — enough for ns..hours latency ranges.
#pragma once

#include <cstdint>
#include <vector>

namespace dm {

class Histogram {
 public:
  Histogram();

  void record(std::uint64_t value) noexcept;
  void record_n(std::uint64_t value, std::uint64_t count) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }
  std::uint64_t sum() const noexcept { return sum_; }

  // quantile in [0,1]; interpolates within the containing bucket and clamps
  // to the observed [min, max].
  std::uint64_t percentile(double q) const noexcept;
  std::uint64_t p50() const noexcept { return percentile(0.50); }
  std::uint64_t p99() const noexcept { return percentile(0.99); }

  void merge(const Histogram& other) noexcept;
  void reset() noexcept;

  // Samples recorded since `past` (an earlier copy of this histogram), as a
  // standalone histogram: bucket-wise subtraction. The window's min/max are
  // approximated by its occupied bucket range. Used for SLO windows.
  Histogram delta_since(const Histogram& past) const noexcept;

 private:
  static std::size_t bucket_for(std::uint64_t value) noexcept;
  static std::uint64_t bucket_upper_bound(std::size_t index) noexcept;

  static constexpr int kSubBucketsLog2 = 2;  // 4 sub-buckets per octave
  static constexpr std::size_t kNumBuckets = 64 << kSubBucketsLog2;

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ULL;
  std::uint64_t max_ = 0;
};

}  // namespace dm
