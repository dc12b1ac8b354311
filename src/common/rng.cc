#include "common/rng.h"

namespace dm {
namespace {

double zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(static_cast<double>(i), theta);
  return sum;
}

}  // namespace

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
  assert(n > 0);
  zetan_ = zeta(n, theta);
  zeta2theta_ = zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2theta_ / zetan_);
  second_bound_ = 1.0 + std::pow(0.5, theta);
}

std::uint64_t ZipfGenerator::next(Rng& rng) noexcept {
  const double u = rng.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < second_bound_) return 1;
  const auto idx = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return idx >= n_ ? n_ - 1 : idx;
}

}  // namespace dm
