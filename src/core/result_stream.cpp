#include "core/result_stream.h"

#include <algorithm>
#include <chrono>

namespace falkon::core {
namespace {

// One cumulative-ack round trip per this many streamed results. The value
// trades dispatcher mailbox residency (un-acked results stay buffered
// server-side) against RPC rate on the client's hot receive loop.
constexpr std::uint64_t kAckBatchResults = 8192;

}  // namespace

bool ResultStreams::open(InstanceId instance) {
  {
    // Registered before the subscription goes out: its first frames may
    // arrive ahead of the reply.
    std::lock_guard lock(mu_);
    streams_.emplace(instance.value, std::make_shared<Stream>());
  }
  if (rearm(instance)) return true;
  close(instance);
  return false;
}

void ResultStreams::close(InstanceId instance) {
  std::lock_guard lock(mu_);
  streams_.erase(instance.value);
}

bool ResultStreams::contains(InstanceId instance) const {
  return find(instance) != nullptr;
}

std::shared_ptr<ResultStreams::Stream> ResultStreams::find(
    InstanceId instance) const {
  std::lock_guard lock(mu_);
  auto it = streams_.find(instance.value);
  return it == streams_.end() ? nullptr : it->second;
}

void ResultStreams::on_frame(wire::Message message) {
  auto* frame = std::get_if<wire::ResultStream>(&message);
  if (frame == nullptr) return;
  auto stream = find(frame->instance_id);
  if (stream == nullptr) return;
  std::lock_guard lock(stream->mu);
  if (!stream->resync &&
      frame->seq == stream->last_seq + frame->results.size()) {
    stream->last_seq = frame->seq;
  } else {
    // Gap: keep the results — the filter protects the caller — but freeze
    // the ack cursor until the next drain re-arms from zero.
    stream->resync = true;
  }
  if (!frame->results.empty()) stream->batches.push_back(std::move(frame->results));
  stream->cv.notify_all();
}

bool ResultStreams::first_delivery(Stream& stream, TaskId task) {
  if (stream.delivered.insert(task.value).second) return true;
  if (duplicates_ != nullptr) duplicates_->inc();
  return false;
}

std::vector<TaskResult> ResultStreams::drain(InstanceId instance,
                                             std::uint32_t max_results,
                                             double timeout_s) {
  std::vector<TaskResult> out;
  auto stream = find(instance);
  if (stream == nullptr) return out;
  std::uint64_t ack = 0;
  bool resync = false;
  {
    std::unique_lock lock(stream->mu);
    stream->cv.wait_for(
        lock, std::chrono::duration<double>(std::max(0.0, timeout_s)),
        [&] { return !stream->batches.empty() || stream->resync; });
    while (out.size() < max_results && !stream->batches.empty()) {
      std::vector<TaskResult>& batch = stream->batches.front();
      TaskResult& result = batch[stream->taken++];
      if (first_delivery(*stream, result.task_id)) out.push_back(std::move(result));
      if (stream->taken == batch.size()) {
        stream->batches.pop_front();
        stream->taken = 0;
      }
    }
    // Batched cumulative acks: one round trip per kAckBatchResults results
    // (or before a re-arm, to shrink the re-stream), so the steady-state
    // receive loop stays RPC-free. Un-acked results just sit in the
    // dispatcher's mailbox a little longer; on any failure they re-deliver
    // and the filter absorbs them.
    const std::uint64_t pending = stream->last_seq - stream->acked_seq;
    if (pending > 0 && (pending >= kAckBatchResults || stream->resync)) {
      ack = stream->last_seq;
    }
    resync = stream->resync;
  }
  if (ack != 0) {
    std::lock_guard ack_lock(stream->ack_mu);
    wire::SubscribeResults request;
    request.instance_id = instance;
    request.ack_seq = ack;
    if (subscribe_(request)) {
      std::lock_guard lock(stream->mu);
      stream->acked_seq = std::max(stream->acked_seq, ack);
    }
  }
  if (resync) (void)rearm(instance, *stream);
  return out;
}

std::vector<TaskResult> ResultStreams::filter(InstanceId instance,
                                              std::vector<TaskResult> results) {
  auto stream = find(instance);
  if (stream == nullptr) return results;
  std::vector<TaskResult> out;
  std::lock_guard lock(stream->mu);
  for (auto& result : results) {
    if (first_delivery(*stream, result.task_id)) out.push_back(std::move(result));
  }
  return out;
}

bool ResultStreams::rearm(InstanceId instance) {
  auto stream = find(instance);
  return stream != nullptr && rearm(instance, *stream);
}

bool ResultStreams::rearm(InstanceId instance, Stream& stream) {
  std::lock_guard ack_lock(stream.ack_mu);
  wire::SubscribeResults request;
  request.instance_id = instance;
  request.ack_seq = 0;
  if (!subscribe_(request)) return false;
  std::lock_guard lock(stream.mu);
  stream.resync = false;
  stream.last_seq = 0;
  stream.acked_seq = 0;
  return true;
}

}  // namespace falkon::core
