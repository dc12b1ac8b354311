#include "common/status.h"

namespace dm {

std::string_view to_string(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kTimeout: return "TIMEOUT";
    case StatusCode::kDataLoss: return "DATA_LOSS";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string Status::to_string() const {
  std::string out{dm::to_string(code_)};
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace dm
