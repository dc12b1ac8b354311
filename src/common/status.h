// Lightweight error-handling vocabulary for the disaggregated-memory library.
//
// The library reports expected runtime failures (remote node down, pool
// exhausted, entry not found) through Status / StatusOr<T> rather than
// exceptions, so that failure paths are explicit at call sites and cheap to
// test. Programming errors (violated preconditions) still use assertions.
#pragma once

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace dm {

// Error taxonomy used across all modules. Values go on the wire: RPC error
// replies carry the code as a u16.
enum class StatusCode {
  kOk = 0,
  kNotFound = 1,          // entry/key/slab absent
  kAlreadyExists = 2,     // duplicate registration or key
  kResourceExhausted = 3, // pool/arena/buffer out of space
  kUnavailable = 4,       // node/link down, connection lost
  kFailedPrecondition = 5,// call not valid in current state
  kInvalidArgument = 6,   // malformed argument
  kTimeout = 7,           // handshake or operation deadline exceeded
  kDataLoss = 8,          // all replicas lost / corruption detected
  kInternal = 9,          // invariant violation surfaced as error
};

std::string_view to_string(StatusCode code) noexcept;

// A success-or-error result with an optional human-readable message.
// Cheap to copy in the success case (empty message string).
class [[nodiscard]] Status {
 public:
  Status() noexcept = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() noexcept { return {}; }

  bool ok() const noexcept { return code_ == StatusCode::kOk; }
  StatusCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.to_string();
}

// Convenience constructors, mirroring absl-style helpers.
inline Status NotFoundError(std::string msg) {
  return {StatusCode::kNotFound, std::move(msg)};
}
inline Status AlreadyExistsError(std::string msg) {
  return {StatusCode::kAlreadyExists, std::move(msg)};
}
inline Status ResourceExhaustedError(std::string msg) {
  return {StatusCode::kResourceExhausted, std::move(msg)};
}
inline Status UnavailableError(std::string msg) {
  return {StatusCode::kUnavailable, std::move(msg)};
}
inline Status FailedPreconditionError(std::string msg) {
  return {StatusCode::kFailedPrecondition, std::move(msg)};
}
inline Status InvalidArgumentError(std::string msg) {
  return {StatusCode::kInvalidArgument, std::move(msg)};
}
inline Status TimeoutError(std::string msg) {
  return {StatusCode::kTimeout, std::move(msg)};
}
inline Status DataLossError(std::string msg) {
  return {StatusCode::kDataLoss, std::move(msg)};
}
inline Status InternalError(std::string msg) {
  return {StatusCode::kInternal, std::move(msg)};
}

// StatusOr<T>: either a value or a non-OK Status. Access to value() on an
// error is a programming error (asserted).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(T value) : repr_(std::move(value)) {}  // NOLINT: implicit by design
  StatusOr(Status status) : repr_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(repr_).ok() &&
           "StatusOr must not be built from an OK status");
  }

  bool ok() const noexcept { return std::holds_alternative<T>(repr_); }
  explicit operator bool() const noexcept { return ok(); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(repr_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(repr_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(repr_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(repr_);
  }

  T value_or(T fallback) const& { return ok() ? value() : std::move(fallback); }

 private:
  std::variant<Status, T> repr_;
};

// Propagate-on-error helpers.
#define DM_RETURN_IF_ERROR(expr)                   \
  do {                                             \
    ::dm::Status dm_status_ = (expr);              \
    if (!dm_status_.ok()) return dm_status_;       \
  } while (false)

#define DM_ASSIGN_OR_RETURN(lhs, expr)             \
  auto dm_statusor_##__LINE__ = (expr);            \
  if (!dm_statusor_##__LINE__.ok())                \
    return dm_statusor_##__LINE__.status();        \
  lhs = std::move(dm_statusor_##__LINE__).value()

}  // namespace dm
