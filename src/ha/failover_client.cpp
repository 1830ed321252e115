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
  if (auto* error = std::get_if<wire::ErrorReply>(&reply.value())) {
    return make_error(error->code, error->message);
  }
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
      streams_(
          [this](const wire::SubscribeResults& request) {
            // call() rides out a takeover; a promoted dispatcher that
            // restored the instance in polling mode just clamps a stale
            // ack cursor harmlessly.
            return expect<wire::ResultStream>(call(request)).ok();
          },
          m_dup_results_) {}

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

Result<wire::Message> FailoverClient::call(const wire::Message& request) {
  double backoff_s = options_.backoff_initial_s;
  Error last = make_error(ErrorCode::kUnavailable, "never attempted");
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
      backoff_s = std::min(backoff_s * 2.0, options_.backoff_max_s);
    }
    std::unique_lock lock(mu_);
    if (!rpc_) {
      net::RpcClient::PushHandler on_push;
      if (options_.stream_results) {
        on_push = [this](wire::Message message) {
          streams_.on_frame(std::move(message));
        };
      }
      auto rpc = net::RpcClient::connect(options_.host, options_.rpc_port,
                                         options_.fault, nullptr,
                                         std::move(on_push));
      if (!rpc.ok()) {
        last = rpc.error();
        reconnects_ += 1;
        if (m_reconnects_ != nullptr) m_reconnects_->inc();
        continue;
      }
      rpc_ = std::make_unique<net::RpcClient>(rpc.take());
    }
    auto reply = rpc_->call(request);
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
  // A failed subscription leaves the instance polling.
  if (options_.stream_results) (void)streams_.open(instance);
  return instance;
}

bool FailoverClient::streaming(InstanceId instance) const {
  return streams_.contains(instance);
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
  if (streams_.contains(instance)) {
    return wait_streamed(instance, max_results, timeout_s);
  }
  wire::WaitResultsRequest request;
  request.instance_id = instance;
  request.max_results = max_results;
  request.timeout_s = timeout_s;
  auto reply = expect<wire::WaitResultsReply>(call(request));
  if (!reply.ok()) return reply.error();
  std::vector<TaskResult> fresh;
  fresh.reserve(reply.value().results.size());
  std::lock_guard lock(mu_);
  for (TaskResult& result : reply.value().results) {
    if (seen_.insert(result.task_id.value).second) {
      fresh.push_back(std::move(result));
    } else if (m_dup_results_ != nullptr) {
      m_dup_results_->inc();
    }
  }
  return fresh;
}

Result<std::vector<TaskResult>> FailoverClient::wait_streamed(
    InstanceId instance, std::uint32_t max_results, double timeout_s) {
  auto fresh = streams_.drain(instance, max_results, timeout_s);
  if (!fresh.empty()) return fresh;
  // Nothing pushed for the whole timeout: one-shot poll. After a reconnect
  // this is the path that keeps results flowing (the subscription ended
  // with the old connection, and a promoted dispatcher restores instances
  // unsubscribed), so a poll that finds results doubles as the signal to
  // re-subscribe on the current connection.
  wire::WaitResultsRequest request;
  request.instance_id = instance;
  request.max_results = max_results;
  request.timeout_s = 0;
  auto reply = expect<wire::WaitResultsReply>(call(request));
  if (!reply.ok()) return reply.error();
  const bool polled_some = !reply.value().results.empty();
  fresh = streams_.filter(instance, std::move(reply.value().results));
  if (polled_some) (void)streams_.rearm(instance);
  return fresh;
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
  core::DispatcherStatus status;
  status.submitted = reply.value().submitted_tasks;
  status.queued = reply.value().queued_tasks;
  status.dispatched = reply.value().dispatched_tasks;
  status.completed = reply.value().completed_tasks;
  status.failed = reply.value().failed_tasks;
  status.retried = reply.value().retried_tasks;
  status.suspicions = reply.value().suspicions;
  status.false_suspicions = reply.value().false_suspicions;
  status.quarantined = reply.value().quarantined_tasks;
  status.registered_executors = reply.value().registered_executors;
  status.busy_executors = reply.value().busy_executors;
  status.idle_executors = reply.value().idle_executors;
  return status;
}

}  // namespace falkon::ha
