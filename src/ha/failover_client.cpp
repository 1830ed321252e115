#include "ha/failover_client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"

namespace falkon::ha {
namespace {

/// Errors that mean "the connection (or the dispatcher behind it) is gone,
/// dial again": connection-level failures plus kUnavailable from a server
/// that is still starting up. Everything else is an application answer.
bool transport_error(ErrorCode code) {
  switch (code) {
    case ErrorCode::kIoError:
    case ErrorCode::kClosed:
    case ErrorCode::kProtocolError:
    case ErrorCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

template <class T>
Result<T> expect(Result<wire::Message> reply) {
  if (!reply.ok()) return reply.error();
  if (auto* value = std::get_if<T>(&reply.value())) return std::move(*value);
  return make_error(ErrorCode::kProtocolError,
                    std::string("unexpected reply: ") +
                        wire::msg_type_name(wire::message_type(reply.value())));
}

}  // namespace

FailoverClient::FailoverClient(FailoverClientOptions options)
    : options_(std::move(options)),
      m_reconnects_(options_.obs == nullptr
                        ? nullptr
                        : &options_.obs->registry().counter(
                              "falkon.ha.client.reconnects")),
      m_dup_results_(options_.obs == nullptr
                         ? nullptr
                         : &options_.obs->registry().counter(
                               "falkon.ha.client.duplicate_results")),
      // call() rides out a takeover; a promoted dispatcher that restored the
      // instance unsubscribed just clamps a stale ack cursor harmlessly.
      streams_([this](const wire::Message& request,
                      const std::function<void()>& on_reply) {
        return call(request, on_reply);
      }, m_dup_results_) {}

std::uint64_t FailoverClient::reconnects() const {
  std::lock_guard lock(mu_);
  return reconnects_;
}

std::uint64_t FailoverClient::epoch() const {
  std::lock_guard lock(mu_);
  return epoch_;
}

void FailoverClient::learn_epoch(std::uint64_t epoch) {
  std::lock_guard lock(mu_);
  epoch_ = std::max(epoch_, epoch);
}

Result<wire::Message> FailoverClient::call(
    const wire::Message& request, const std::function<void()>& on_reply) {
  double backoff_s = options_.backoff_initial_s;
  Error last = make_error(ErrorCode::kUnavailable, "never attempted");
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
      backoff_s = std::min(backoff_s * 2.0, options_.backoff_max_s);
    }
    std::unique_lock lock(mu_);
    if (!rpc_) {
      auto rpc = net::RpcClient::connect(
          options_.host, options_.rpc_port, options_.fault, nullptr,
          [this](wire::Message message) {
            streams_.on_frame(std::move(message));
          });
      if (!rpc.ok()) {
        last = rpc.error();
        reconnects_ += 1;
        if (m_reconnects_ != nullptr) m_reconnects_->inc();
        continue;
      }
      rpc_ = std::make_unique<net::RpcClient>(rpc.take());
    }
    auto reply = rpc_->call(request, on_reply);
    if (reply.ok()) return reply;
    last = reply.error();
    if (!transport_error(last.code)) return reply;
    if (last.code == ErrorCode::kUnavailable &&
        last.message.find("epoch mismatch") != std::string::npos) {
      // Not a dead connection but a fencing rejection: retrying the same
      // stamped request can never succeed. Surface it so submit() can
      // re-sync its epoch and re-stamp.
      return reply;
    }
    rpc_.reset();  // dial fresh next attempt (possibly the new primary)
    reconnects_ += 1;
    if (m_reconnects_ != nullptr) m_reconnects_->inc();
  }
  return make_error(last.code,
                    "gave up after " + std::to_string(options_.max_attempts) +
                        " attempts: " + last.message);
}

Result<InstanceId> FailoverClient::create_instance(ClientId client) {
  wire::CreateInstanceRequest request;
  request.client_id = client;
  auto reply = expect<wire::CreateInstanceReply>(call(request));
  if (!reply.ok()) return reply.error();
  const InstanceId instance = reply.value().instance_id;
  streams_.open(instance);
  return instance;
}

Result<std::uint64_t> FailoverClient::submit(InstanceId instance,
                                             std::vector<TaskSpec> tasks) {
  wire::SubmitRequest request;
  request.instance_id = instance;
  request.tasks = std::move(tasks);
  {
    // The sequence makes the retried call idempotent: a dispatcher (old or
    // promoted) that journaled this sequence acks without re-enqueueing.
    std::lock_guard lock(mu_);
    request.submit_seq = ++submit_seq_;
  }
  for (int sync_attempts = 0;; ++sync_attempts) {
    {
      std::lock_guard lock(mu_);
      request.epoch = epoch_;
    }
    auto reply = expect<wire::SubmitReply>(call(request));
    if (reply.ok()) {
      learn_epoch(reply.value().epoch);
      return reply.value().accepted;
    }
    if (sync_attempts == 0 && reply.error().code == ErrorCode::kUnavailable &&
        reply.error().message.find("epoch mismatch") != std::string::npos) {
      // Our stamp is stale (a standby promoted since we last heard from a
      // dispatcher): learn the current epoch and re-send the same
      // submit_seq — the journal makes the retry idempotent.
      if (auto st = status(); !st.ok()) return reply.error();
      continue;
    }
    return reply.error();
  }
}

Result<std::vector<TaskResult>> FailoverClient::wait_results(
    InstanceId instance, std::uint32_t max_results, double timeout_s) {
  return streams_.wait(instance, max_results, timeout_s);
}

Status FailoverClient::destroy_instance(InstanceId instance) {
  streams_.close(instance);
  wire::DestroyInstanceRequest request;
  request.instance_id = instance;
  auto reply = expect<wire::DestroyInstanceReply>(call(request));
  if (!reply.ok()) return reply.error();
  return ok_status();
}

Result<core::DispatcherStatus> FailoverClient::status() {
  auto reply = expect<wire::StatusReply>(call(wire::StatusRequest{}));
  if (!reply.ok()) return reply.error();
  learn_epoch(reply.value().epoch);
  return core::DispatcherStatus::from_wire(reply.value());
}

}  // namespace falkon::ha
