#include "ec/rs_codec.h"

#include <algorithm>

#include "common/status.h"
#include "ec/gf256.h"

namespace dm::ec {
namespace {

// Invert an n x n matrix over GF(2^8) by Gauss–Jordan elimination with
// partial pivoting (any non-zero pivot works in a field). Returns false if
// the matrix is singular — which for Vandermonde submatrices of distinct
// evaluation points never happens, but the guard keeps the algebra honest.
bool invert_matrix(std::vector<std::uint8_t>& m, std::size_t n,
                   std::vector<std::uint8_t>& out) {
  out.assign(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) out[i * n + i] = 1;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    while (pivot < n && m[pivot * n + col] == 0) ++pivot;
    if (pivot == n) return false;
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(m[pivot * n + j], m[col * n + j]);
        std::swap(out[pivot * n + j], out[col * n + j]);
      }
    }
    const std::uint8_t inv = gf_inv(m[col * n + col]);
    for (std::size_t j = 0; j < n; ++j) {
      m[col * n + j] = gf_mul(m[col * n + j], inv);
      out[col * n + j] = gf_mul(out[col * n + j], inv);
    }
    for (std::size_t row = 0; row < n; ++row) {
      if (row == col) continue;
      const std::uint8_t factor = m[row * n + col];
      if (factor == 0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        m[row * n + j] =
            static_cast<std::uint8_t>(m[row * n + j] ^
                                      gf_mul(factor, m[col * n + j]));
        out[row * n + j] =
            static_cast<std::uint8_t>(out[row * n + j] ^
                                      gf_mul(factor, out[col * n + j]));
      }
    }
  }
  return true;
}

// rows x k times k x k -> rows x k, row-major.
std::vector<std::uint8_t> mat_mul(const std::vector<std::uint8_t>& a,
                                  std::size_t rows,
                                  const std::vector<std::uint8_t>& b,
                                  std::size_t k) {
  std::vector<std::uint8_t> out(rows * k, 0);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < k; ++j) {
      std::uint8_t acc = 0;
      for (std::size_t t = 0; t < k; ++t)
        acc = static_cast<std::uint8_t>(acc ^ gf_mul(a[i * k + t],
                                                     b[t * k + j]));
      out[i * k + j] = acc;
    }
  return out;
}

// Multiply selected coding-matrix rows against a set of source shards:
// out[i] = sum_j rows[i][j] * src[j]. Shared by encode (parity rows over
// data shards) and reconstruct (decode rows over survivors).
void code_shards(const std::vector<const std::uint8_t*>& src,
                 const std::vector<std::uint8_t>& rows, std::size_t k,
                 std::vector<std::uint8_t*>& out, std::size_t len) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::fill(out[i], out[i] + len, 0);
    for (std::size_t j = 0; j < k; ++j)
      gf_mul_add(rows[i * k + j], src[j], out[i], len);
  }
}

std::uint8_t* bytes(std::vector<std::byte>& v) {
  return reinterpret_cast<std::uint8_t*>(v.data());
}
const std::uint8_t* bytes(const std::vector<std::byte>& v) {
  return reinterpret_cast<const std::uint8_t*>(v.data());
}

}  // namespace

StatusOr<RsCodec> RsCodec::make(std::size_t k, std::size_t r) {
  if (k == 0) return InvalidArgumentError("rs: k must be >= 1");
  if (k + r > kMaxShards)
    return InvalidArgumentError("rs: k + r exceeds GF(2^8) limit of 255");
  const std::size_t n = k + r;
  // Vandermonde: V[i][j] = i^j for i in [0, n), j in [0, k).
  std::vector<std::uint8_t> vand(n * k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j)
      vand[i * k + j] = gf_pow(static_cast<std::uint8_t>(i), j);
  // Systematize: M = V * inverse(top k x k of V). Top block becomes the
  // identity, and any k rows of M stay invertible because row operations
  // applied uniformly preserve the Vandermonde MDS property.
  std::vector<std::uint8_t> top(vand.begin(), vand.begin() + k * k);
  std::vector<std::uint8_t> top_inv;
  if (!invert_matrix(top, k, top_inv))
    return InternalError("rs: Vandermonde top block singular");
  return RsCodec(k, r, mat_mul(vand, n, top_inv, k));
}

std::size_t RsCodec::shard_size(std::size_t data_len, std::size_t k) {
  if (data_len == 0) return 1;
  return (data_len + k - 1) / k;
}

StatusOr<std::vector<std::vector<std::byte>>> RsCodec::encode(
    std::span<const std::byte> data) const {
  const std::size_t len = shard_size(data.size(), k_);
  std::vector<std::vector<std::byte>> shards(total_shards());
  for (std::size_t i = 0; i < k_; ++i) {
    shards[i].assign(len, std::byte{0});
    const std::size_t begin = i * len;
    if (begin < data.size()) {
      const std::size_t take = std::min(len, data.size() - begin);
      std::copy_n(data.data() + begin, take, shards[i].data());
    }
  }
  if (k_ == 1) {
    // Every coding row of RS(1, r) is all ones: parity is a verbatim copy.
    for (std::size_t i = 1; i < total_shards(); ++i) shards[i] = shards[0];
  } else if (r_ > 0) {
    std::vector<const std::uint8_t*> src(k_);
    for (std::size_t i = 0; i < k_; ++i) src[i] = bytes(shards[i]);
    std::vector<std::uint8_t*> out(r_);
    std::vector<std::uint8_t> parity_rows(matrix_.begin() + k_ * k_,
                                          matrix_.end());
    for (std::size_t i = 0; i < r_; ++i) {
      shards[k_ + i].assign(len, std::byte{0});
      out[i] = bytes(shards[k_ + i]);
    }
    code_shards(src, parity_rows, k_, out, len);
  }
  return shards;
}

Status RsCodec::reconstruct(std::vector<std::vector<std::byte>>& shards) const {
  if (shards.size() != total_shards())
    return InvalidArgumentError("rs: shard slot count mismatch");
  std::vector<std::size_t> present;
  std::size_t len = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].empty()) continue;
    if (len == 0) len = shards[i].size();
    if (shards[i].size() != len)
      return InvalidArgumentError("rs: present shards differ in size");
    present.push_back(i);
  }
  if (present.size() < k_)
    return DataLossError("rs: fewer than k shards survive");
  if (present.size() == total_shards()) return Status::Ok();
  if (k_ == 1) {
    // Any survivor of RS(1, r) is the whole payload: copy it into the gaps.
    for (auto& shard : shards)
      if (shard.empty()) shard = shards[present.front()];
    return Status::Ok();
  }

  // Decode matrix: the k coding-matrix rows of the first k survivors,
  // inverted. survivors = rows * data  =>  data = rows^-1 * survivors.
  std::vector<std::uint8_t> sub(k_ * k_);
  for (std::size_t i = 0; i < k_; ++i)
    std::copy_n(matrix_.begin() + present[i] * k_, k_, sub.begin() + i * k_);
  std::vector<std::uint8_t> decode_rows;
  if (!invert_matrix(sub, k_, decode_rows))
    return InternalError("rs: survivor submatrix singular");

  std::vector<const std::uint8_t*> src(k_);
  std::vector<std::vector<std::byte>> sources(k_);
  for (std::size_t i = 0; i < k_; ++i) {
    sources[i] = shards[present[i]];  // copy: targets may alias survivors
    src[i] = bytes(sources[i]);
  }

  // Missing data shards first (decode rows directly)...
  std::vector<std::uint8_t> rows;
  std::vector<std::uint8_t*> out;
  for (std::size_t s = 0; s < k_; ++s) {
    if (!shards[s].empty()) continue;
    shards[s].assign(len, std::byte{0});
    out.push_back(bytes(shards[s]));
    rows.insert(rows.end(), decode_rows.begin() + s * k_,
                decode_rows.begin() + (s + 1) * k_);
  }
  // ...then missing parity shards: parity_row * (decode_rows * survivors)
  // composed into one matrix so parity regenerates in the same pass.
  for (std::size_t s = k_; s < total_shards(); ++s) {
    if (!shards[s].empty()) continue;
    shards[s].assign(len, std::byte{0});
    out.push_back(bytes(shards[s]));
    for (std::size_t j = 0; j < k_; ++j) {
      std::uint8_t acc = 0;
      for (std::size_t t = 0; t < k_; ++t)
        acc = static_cast<std::uint8_t>(
            acc ^ gf_mul(matrix_[s * k_ + t], decode_rows[t * k_ + j]));
      rows.push_back(acc);
    }
  }
  code_shards(src, rows, k_, out, len);
  return Status::Ok();
}

StatusOr<std::vector<std::byte>> RsCodec::decode(
    const std::vector<std::vector<std::byte>>& shards,
    std::size_t data_len) const {
  std::vector<std::vector<std::byte>> work = shards;
  DM_RETURN_IF_ERROR(reconstruct(work));
  const std::size_t len = work[0].size();
  if (len * k_ < data_len)
    return InvalidArgumentError("rs: shards too small for requested length");
  std::vector<std::byte> out(data_len);
  for (std::size_t i = 0; i < k_ && i * len < data_len; ++i) {
    const std::size_t take = std::min(len, data_len - i * len);
    std::copy_n(work[i].data(), take, out.data() + i * len);
  }
  return out;
}

StatusOr<bool> RsCodec::verify(
    const std::vector<std::vector<std::byte>>& shards) const {
  if (shards.size() != total_shards())
    return InvalidArgumentError("rs: shard slot count mismatch");
  std::size_t len = 0;
  for (const auto& s : shards) {
    if (s.empty()) return InvalidArgumentError("rs: verify needs all shards");
    if (len == 0) len = s.size();
    if (s.size() != len)
      return InvalidArgumentError("rs: present shards differ in size");
  }
  if (r_ == 0) return true;
  std::vector<const std::uint8_t*> src(k_);
  for (std::size_t i = 0; i < k_; ++i) src[i] = bytes(shards[i]);
  std::vector<std::uint8_t> parity_rows(matrix_.begin() + k_ * k_,
                                        matrix_.end());
  std::vector<std::byte> scratch(len);
  std::vector<std::uint8_t*> out(1);
  for (std::size_t i = 0; i < r_; ++i) {
    std::fill(scratch.begin(), scratch.end(), std::byte{0});
    out[0] = bytes(scratch);
    std::vector<std::uint8_t> row(parity_rows.begin() + i * k_,
                                  parity_rows.begin() + (i + 1) * k_);
    code_shards(src, row, k_, out, len);
    if (!std::equal(scratch.begin(), scratch.end(), shards[k_ + i].begin()))
      return false;
  }
  return true;
}

std::span<const std::uint8_t> RsCodec::matrix_row(std::size_t shard) const {
  return {matrix_.data() + shard * k_, k_};
}

}  // namespace dm::ec
