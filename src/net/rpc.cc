#include "net/rpc.h"

#include "common/status.h"
#include "common/units.h"
#include "net/retry_policy.h"
#include "net/wire.h"
#include "sim/span_sink.h"

namespace dm::net {
namespace {

// Message layout: u8 kind (0=request, 1=reply-ok, 2=reply-error),
// u64 call id, u64 trace id, u16 method (request) or u16 status code
// (error reply), then the payload bytes.
enum class Kind : std::uint8_t { kRequest = 0, kReplyOk = 1, kReplyError = 2 };

}  // namespace

void RpcEndpoint::attach_channel(QueuePair* qp) {
  channels_[qp->remote()] = qp;
  qp->set_receive_handler(
      [this](NodeId from, std::span<const std::byte> message) {
        on_message(from, message);
      });
}

void RpcEndpoint::detach_channel(NodeId peer) { channels_.erase(peer); }

std::string RpcEndpoint::method_label(RpcMethod method) const {
  auto it = labels_.find(method);
  return it != labels_.end() ? it->second : "m" + std::to_string(method);
}

void RpcEndpoint::call(NodeId peer, RpcMethod method,
                       std::vector<std::byte> payload, SimTime timeout,
                       RpcResponseCallback done, TraceId trace) {
  if (trace == kNoTrace) trace = new_trace();
  if (!retry_.enabled()) {
    call_once(peer, method, std::move(payload), timeout, std::move(done),
              trace);
    return;
  }
  // Retryable call: re-issue on retryable failures with capped exponential
  // backoff. All attempts share the trace id (the causal chain shows the
  // retries) and the salt decorrelating their jitter.
  struct Attempt : std::enable_shared_from_this<Attempt> {
    RpcEndpoint* self;
    NodeId peer;
    RpcMethod method;
    std::vector<std::byte> payload;
    SimTime timeout;
    RpcResponseCallback done;
    TraceId trace;
    std::size_t attempt = 0;

    void run() {
      ++attempt;
      auto keep = shared_from_this();
      self->call_once(
          peer, method, payload, timeout,
          [keep](StatusOr<std::vector<std::byte>> result) {
            const RetryPolicy& policy = keep->self->retry_;
            if (result.ok() || keep->attempt >= policy.max_attempts ||
                !policy.retryable(result.status().code())) {
              keep->done(std::move(result));
              return;
            }
            const SimTime wait = policy.backoff(keep->attempt, keep->trace);
            ++keep->self->metrics_.counter("rpc.retries");
            keep->self->metrics_.histogram("net.backoff_ns")
                .record(static_cast<std::uint64_t>(wait));
            keep->self->sim_.schedule_after(wait,
                                            [keep]() { keep->run(); });
          },
          trace);
    }
  };
  auto state = std::make_shared<Attempt>();
  state->self = this;
  state->peer = peer;
  state->method = method;
  state->payload = std::move(payload);
  state->timeout = timeout;
  state->done = std::move(done);
  state->trace = trace;
  state->run();
}

void RpcEndpoint::call_once(NodeId peer, RpcMethod method,
                            std::vector<std::byte> payload, SimTime timeout,
                            RpcResponseCallback done, TraceId trace) {
  auto it = channels_.find(peer);
  if ((it == channels_.end() || it->second->in_error()) && repairer_) {
    (void)repairer_(peer);  // lazily establish / repair the channel
    it = channels_.find(peer);
  }
  if (it == channels_.end() || it->second->in_error()) {
    ++metrics_.counter("rpc.no_channel");
    // Fail asynchronously so callers see uniform completion ordering.
    sim_.schedule_after(0, [done = std::move(done)]() {
      done(UnavailableError("no control channel to peer"));
    });
    return;
  }
  const std::uint64_t call_id = next_call_++;
  // Caller-side span, closed when settle() hands over the reply, error or
  // timeout. The label is built only when a sink is attached.
  pending_.emplace(
      call_id,
      Pending{spans_ == nullptr
                  ? std::move(done)
                  : sim::span_completion(spans_, trace, self_, "net",
                                         "rpc." + method_label(method),
                                         std::move(done)),
              sim_.now(), method});
  ++metrics_.counter("rpc.calls");

  WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(Kind::kRequest));
  w.put_u64(call_id);
  w.put_u64(trace);
  w.put_u16(method);
  w.put_bytes(payload);
  const auto msg = std::move(w).take();

  Status posted = it->second->post_send(
      msg, [this, call_id](const Completion& c) {
        if (!c.status.ok()) settle(call_id, c.status);
      });
  if (!posted.ok()) {
    settle(call_id, posted);
    return;
  }
  sim_.schedule_after(timeout, [this, call_id]() {
    settle(call_id, TimeoutError("rpc deadline exceeded"));
  });
}

void RpcEndpoint::on_message(NodeId from, std::span<const std::byte> message) {
  WireReader r(message);
  const auto kind = static_cast<Kind>(r.u8());
  const std::uint64_t call_id = r.u64();
  const TraceId trace = r.u64();
  if (!r.ok()) return;  // torn message: drop (sender will time out)

  if (kind == Kind::kRequest) {
    const RpcMethod method = r.u16();
    auto payload = r.bytes();
    if (!r.ok()) return;
    auto reply_channel = channels_.find(from);
    if (reply_channel == channels_.end()) return;

    ++metrics_.counter("rpc.dispatched");
    WireWriter w;
    auto handler = handlers_.find(method);
    if (handler == handlers_.end()) {
      w.put_u8(static_cast<std::uint8_t>(Kind::kReplyError));
      w.put_u64(call_id);
      w.put_u64(trace);
      w.put_u16(static_cast<std::uint16_t>(StatusCode::kInvalidArgument));
    } else {
      WireReader req(payload);
      // Expose the request's trace id to the handler so downstream calls
      // stay on the same causal chain.
      sim::SpanScope dispatch_span(spans_, trace, self_, "remote",
                                   "rpc." + method_label(method));
      current_trace_ = trace;
      auto result = handler->second(from, req);
      current_trace_ = kNoTrace;
      dispatch_span.close();
      if (result.ok()) {
        w.put_u8(static_cast<std::uint8_t>(Kind::kReplyOk));
        w.put_u64(call_id);
        w.put_u64(trace);
        w.put_bytes(*result);
      } else {
        w.put_u8(static_cast<std::uint8_t>(Kind::kReplyError));
        w.put_u64(call_id);
        w.put_u64(trace);
        w.put_u16(static_cast<std::uint16_t>(result.status().code()));
        w.put_string(result.status().message());
      }
    }
    (void)reply_channel->second->post_send(std::move(w).take(), {});
    return;
  }

  // Reply path.
  if (kind == Kind::kReplyOk) {
    auto payload = r.bytes();
    if (!r.ok()) return;
    settle(call_id, std::vector<std::byte>(payload.begin(), payload.end()));
  } else if (kind == Kind::kReplyError) {
    const auto code = static_cast<StatusCode>(r.u16());
    std::string msg = r.remaining() > 0 ? r.string() : std::string{};
    settle(call_id, Status(code, std::move(msg)));
  }
}

void RpcEndpoint::settle(std::uint64_t call_id,
                         StatusOr<std::vector<std::byte>> result) {
  auto it = pending_.find(call_id);
  if (it == pending_.end()) return;
  // Only pending_ holds a call: once erased it cannot settle twice.
  Pending pending = std::move(it->second);
  pending_.erase(it);
  // Round-trip latency per method, timeouts and error-settles included —
  // failure detection time is part of the paper's recovery story.
  Histogram*& rtt = rtt_[pending.method];
  if (rtt == nullptr)
    rtt = &metrics_.histogram("rpc.rtt." + method_label(pending.method));
  rtt->record(static_cast<std::uint64_t>(sim_.now() - pending.started));
  if (!result.ok()) {
    ++metrics_.counter(result.status().code() == StatusCode::kTimeout
                           ? "rpc.timeouts"
                           : "rpc.errors");
  }
  pending.done(std::move(result));
}

}  // namespace dm::net
