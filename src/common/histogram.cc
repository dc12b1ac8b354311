#include "common/histogram.h"

#include <algorithm>
#include <bit>

namespace dm {

Histogram::Histogram() : buckets_(kNumBuckets, 0) {}

std::size_t Histogram::bucket_for(std::uint64_t value) noexcept {
  if (value < (1u << kSubBucketsLog2)) return static_cast<std::size_t>(value);
  const int msb = 63 - std::countl_zero(value);
  const int shift = msb - kSubBucketsLog2;
  const auto sub = static_cast<std::size_t>(value >> shift) &
                   ((1u << kSubBucketsLog2) - 1);
  const auto index = (static_cast<std::size_t>(msb - kSubBucketsLog2 + 1)
                      << kSubBucketsLog2) + sub;
  return std::min(index, kNumBuckets - 1);
}

std::uint64_t Histogram::bucket_upper_bound(std::size_t index) noexcept {
  if (index < (1u << kSubBucketsLog2)) return index;
  const std::size_t octave = (index >> kSubBucketsLog2);
  const std::size_t sub = index & ((1u << kSubBucketsLog2) - 1);
  const int shift = static_cast<int>(octave) - 1;
  return ((1ULL << kSubBucketsLog2) + sub + 1) << shift;
}

void Histogram::record(std::uint64_t value) noexcept { record_n(value, 1); }

void Histogram::record_n(std::uint64_t value, std::uint64_t n) noexcept {
  if (n == 0) return;
  buckets_[bucket_for(value)] += n;
  count_ += n;
  sum_ += value * n;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

std::uint64_t Histogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    if (seen + buckets_[i] >= target) {
      // Interpolate within the bucket assuming samples spread evenly over
      // [lo, hi) instead of snapping every quantile to the bucket's upper
      // bound; clamping to the observed [min, max] keeps single-sample and
      // boundary quantiles exact.
      const std::uint64_t lo = i == 0 ? 0 : bucket_upper_bound(i - 1);
      const std::uint64_t hi = bucket_upper_bound(i);
      const double fraction = static_cast<double>(target - seen) /
                              static_cast<double>(buckets_[i]);
      const auto interpolated =
          lo + static_cast<std::uint64_t>(
                   fraction * static_cast<double>(hi - lo) + 0.5);
      return std::clamp(interpolated, min_, max_);
    }
    seen += buckets_[i];
  }
  return max_;
}

Histogram Histogram::delta_since(const Histogram& past) const noexcept {
  Histogram delta;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t before = past.buckets_[i];
    const std::uint64_t d = buckets_[i] > before ? buckets_[i] - before : 0;
    if (d == 0) continue;
    delta.buckets_[i] = d;
    delta.count_ += d;
    // The window's true min/max are gone; approximate them by the occupied
    // bucket range so percentile clamping stays sound for windowed queries.
    const std::uint64_t lo = i == 0 ? 0 : bucket_upper_bound(i - 1);
    delta.min_ = std::min(delta.min_, lo);
    delta.max_ = std::max(delta.max_, bucket_upper_bound(i));
  }
  delta.sum_ = sum_ > past.sum_ ? sum_ - past.sum_ : 0;
  return delta;
}

void Histogram::merge(const Histogram& other) noexcept {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::reset() noexcept {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = ~0ULL;
  max_ = 0;
}

}  // namespace dm
