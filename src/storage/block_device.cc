#include "storage/block_device.h"

#include <algorithm>
#include <cstring>

#include "common/status.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace dm::storage {

BlockDevice::BlockDevice(sim::Simulator& simulator, Config config)
    : sim_(simulator), config_(config), store_(config.capacity_bytes) {}

SimTime BlockDevice::charge(std::uint64_t offset, std::uint64_t bytes) {
  const SimTime start = std::max(sim_.now(), next_free_);
  const std::uint64_t distance =
      offset >= head_pos_ ? offset - head_pos_ : head_pos_ - offset;
  const bool sequential = distance <= config_.sequential_window;
  SimTime cost = config_.model.transfer(bytes);
  if (!sequential) {
    cost += config_.model.seek_ns;
    ++metrics_.counter("disk.seeks");
  } else {
    ++metrics_.counter("disk.sequential");
  }
  next_free_ = start + cost;
  head_pos_ = offset + bytes;
  metrics_.counter("disk.bytes") += bytes;
  return next_free_;
}

Status BlockDevice::read(std::uint64_t offset, std::span<std::byte> dest,
                         IoCallback done) {
  if (offset + dest.size() > store_.size())
    return InvalidArgumentError("read past device end");
  const SimTime when = charge(offset, dest.size());
  ++metrics_.counter("disk.reads");
  sim_.schedule_at(when, [this, offset, dest, done = std::move(done), when]() {
    std::memcpy(dest.data(), store_.data() + offset, dest.size());
    if (done) done(Status::Ok(), when);
  });
  return Status::Ok();
}

Status BlockDevice::write(std::uint64_t offset, std::span<const std::byte> src,
                          IoCallback done) {
  if (offset + src.size() > store_.size())
    return InvalidArgumentError("write past device end");
  const SimTime when = charge(offset, src.size());
  ++metrics_.counter("disk.writes");
  // Capture the payload at post time (matches a kernel bio with its own
  // pages pinned).
  std::vector<std::byte> payload(src.begin(), src.end());
  sim_.schedule_at(
      when, [this, offset, payload = std::move(payload),
             done = std::move(done), when]() {
        std::memcpy(store_.data() + offset, payload.data(), payload.size());
        if (done) done(Status::Ok(), when);
      });
  return Status::Ok();
}

Status BlockDevice::read_sync(std::uint64_t offset, std::span<std::byte> dest) {
  return sim_.run_until_complete(
      [&](auto done) { return read(offset, dest, std::move(done)); },
      StatusCode::kInternal, "simulation ran dry during disk read");
}

Status BlockDevice::write_sync(std::uint64_t offset,
                               std::span<const std::byte> src) {
  return sim_.run_until_complete(
      [&](auto done) { return write(offset, src, std::move(done)); },
      StatusCode::kInternal, "simulation ran dry during disk write");
}

std::uint32_t ExtentAllocator::size_class(std::uint32_t size) noexcept {
  std::uint32_t cls = 512;
  while (cls < size) cls <<= 1;
  return cls;
}

StatusOr<std::uint64_t> ExtentAllocator::allocate(std::uint32_t size) {
  const std::uint32_t cls = size_class(size);
  auto& free_list = free_by_class_[cls];
  if (!free_list.empty()) {
    const std::uint64_t offset = free_list.back();
    free_list.pop_back();
    return offset;
  }
  if (cursor_ + cls > limit_) return ResourceExhaustedError("device full");
  const std::uint64_t offset = cursor_;
  cursor_ += cls;
  return offset;
}

void ExtentAllocator::release(std::uint64_t offset, std::uint32_t size) {
  free_by_class_[size_class(size)].push_back(offset);
}

Status ExtentAllocator::reserve_top(std::uint64_t from) {
  // Every extent ever handed out, free-listed ones included, lies below
  // the cursor.
  if (cursor_ > from)
    return FailedPreconditionError("extents already reach the reserved top");
  limit_ = std::min(limit_, from);
  return Status::Ok();
}

}  // namespace dm::storage
