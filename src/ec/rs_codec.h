// Systematic Reed–Solomon (k, r) erasure codec over GF(2^8).
//
// A page is split into k equal data shards (last shard zero-padded) and
// extended with r parity shards; the original bytes survive the loss of any
// r of the k+r shards. The coding matrix is the Backblaze-style systematic
// Vandermonde construction: build the (k+r) x k Vandermonde matrix V with
// V[i][j] = i^j, then right-multiply by the inverse of its top k x k block
// so the top k rows become the identity (data shards are stored verbatim)
// and the bottom r rows become the parity matrix. Any k rows of the result
// remain linearly independent, which is exactly the MDS property degraded
// reads rely on.
//
// k = 1 is replication: every row of the coding matrix is all ones
// (gf_pow(i, 0) == 1), so each parity shard is a verbatim copy of the one
// data shard. encode and reconstruct take that shape by copying, with no
// GF(2^8) arithmetic.
//
// The codec is pure computation: no clocks, no randomness, no I/O. Callers
// in the simulation account for encode/decode CPU cost via the virtual-time
// CostModel; the codec itself only transforms bytes, so it is trivially
// deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace dm::ec {

class RsCodec {
 public:
  // GF(2^8) supports at most 255 distinct evaluation points.
  static constexpr std::size_t kMaxShards = 255;

  // k >= 1 data shards, r >= 0 parity shards, k + r <= kMaxShards.
  [[nodiscard]] static StatusOr<RsCodec> make(std::size_t k, std::size_t r);

  // Bytes per shard for a payload of data_len: ceil(data_len / k), and at
  // least 1 so zero-length payloads still produce addressable shards.
  [[nodiscard]] static std::size_t shard_size(std::size_t data_len,
                                              std::size_t k);

  [[nodiscard]] std::size_t k() const noexcept { return k_; }
  [[nodiscard]] std::size_t r() const noexcept { return r_; }
  [[nodiscard]] std::size_t total_shards() const noexcept { return k_ + r_; }

  // Splits data into k padded data shards and appends r parity shards.
  // Shards [0, k) hold the payload bytes verbatim (systematic code).
  [[nodiscard]] StatusOr<std::vector<std::vector<std::byte>>> encode(
      std::span<const std::byte> data) const;

  // In-place recovery: shards has exactly k+r slots, missing shards are
  // empty vectors, present shards all share one size. Requires >= k present
  // shards; on success every slot is filled. kDataLoss when fewer than k
  // survive, kInvalidArgument on shape errors.
  [[nodiscard]] Status reconstruct(
      std::vector<std::vector<std::byte>>& shards) const;

  // Reassembles the original data_len bytes from any >= k present shards
  // (reconstructing first if data shards are missing). Does not mutate the
  // caller's shard vector.
  [[nodiscard]] StatusOr<std::vector<std::byte>> decode(
      const std::vector<std::vector<std::byte>>& shards,
      std::size_t data_len) const;

  // Parity consistency check over a fully-present shard set: recomputes
  // every parity shard from the data shards and compares. Returns true when
  // consistent; false signals at least one corrupted shard. Requires all
  // k+r shards present (kInvalidArgument otherwise).
  [[nodiscard]] StatusOr<bool> verify(
      const std::vector<std::vector<std::byte>>& shards) const;

  // Row `shard` of the (k+r) x k coding matrix — exposed for tests that
  // assert the MDS structure (top k rows identity, any k rows invertible).
  [[nodiscard]] std::span<const std::uint8_t> matrix_row(
      std::size_t shard) const;

 private:
  RsCodec(std::size_t k, std::size_t r, std::vector<std::uint8_t> matrix)
      : k_(k), r_(r), matrix_(std::move(matrix)) {}

  std::size_t k_ = 0;
  std::size_t r_ = 0;
  // (k+r) x k row-major coding matrix; rows [0, k) are the identity.
  std::vector<std::uint8_t> matrix_;
};

}  // namespace dm::ec
