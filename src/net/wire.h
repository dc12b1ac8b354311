// Tiny binary serialization for control-plane messages.
//
// Fixed-width little-endian integers and length-prefixed byte strings; no
// schema evolution machinery because both ends are always the same build.
// Readers are defensive anyway (a truncated message yields an error, never
// UB) since fault-injection tests deliver torn messages.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dm::net {

class WireWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }

  void put_u16(std::uint16_t v) { put_raw(&v, sizeof(v)); }
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof(v)); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof(v)); }
  void put_double(double v) { put_raw(&v, sizeof(v)); }

  void put_bytes(std::span<const std::byte> data) {
    put_u32(static_cast<std::uint32_t>(data.size()));
    put_raw(data.data(), data.size());
  }

  void put_string(std::string_view s) {
    put_bytes(std::as_bytes(std::span(s.data(), s.size())));
  }

  const std::vector<std::byte>& bytes() const noexcept { return buf_; }
  std::vector<std::byte> take() && noexcept { return std::move(buf_); }

 private:
  void put_raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<std::byte> buf_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> data) : data_(data) {}

  bool ok() const noexcept { return ok_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

  std::uint8_t u8() { return get_raw<std::uint8_t>(); }
  std::uint16_t u16() { return get_raw<std::uint16_t>(); }
  std::uint32_t u32() { return get_raw<std::uint32_t>(); }
  std::uint64_t u64() { return get_raw<std::uint64_t>(); }
  double f64() { return get_raw<double>(); }

  std::span<const std::byte> bytes() {
    const std::uint32_t n = u32();
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return {};
    }
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::string string() {
    auto b = bytes();
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }

  Status status() const {
    return ok_ ? Status::Ok() : InvalidArgumentError("truncated wire message");
  }

 private:
  template <typename T>
  T get_raw() {
    T v{};
    if (!ok_ || remaining() < sizeof(T)) {
      ok_ = false;
      return v;
    }
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace dm::net
