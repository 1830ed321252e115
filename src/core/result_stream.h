// Client half of result delivery over TCP (message {8} of paper Figure 2
// carried as ResultStream frames — docs/PROTOCOL.md).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/task.h"
#include "obs/obs.h"
#include "wire/message.h"

namespace falkon::core {

/// The streamed instances of one client. The dispatcher pushes each drained
/// mailbox batch as a ResultStream frame on the connection that subscribed
/// the instance; on_frame — the connection's push callback — buffers it by
/// ResultStream.instance_id and tracks the contiguous seq cursor. wait()
/// hands buffered results out and settles the cursor protocol: one
/// cumulative SubscribeResults{ack} per kAckBatchResults results, and after
/// a seq gap a SubscribeResults{0} that makes the dispatcher re-stream
/// everything un-acked. Each instance's task-id filter makes what wait()
/// returns exactly-once across pushes, re-streams and fetches.
class ResultStreams {
 public:
  /// One call on the client's connection (SubscribeResults or a
  /// WaitResultsRequest fetch), with net::RpcClient::call's contract: an
  /// ErrorReply is an error, and `on_reply` runs on the reader thread when
  /// the reply is read, before any frame that follows it.
  using Call = std::function<Result<wire::Message>(
      const wire::Message& request, const std::function<void()>& on_reply)>;

  /// `duplicates` (optional) counts results the filters drop.
  explicit ResultStreams(Call call, obs::Counter* duplicates = nullptr)
      : call_(std::move(call)), duplicates_(duplicates) {}

  /// Start streaming `instance`: SubscribeResults{0} binds it to the
  /// connection and arms the dispatcher's drain. If that fails the instance
  /// stays, marked for re-arm by the next wait.
  void open(InstanceId instance) { (void)start(instance); }
  /// Stop streaming `instance`; frames still in flight for it are dropped.
  void close(InstanceId instance);

  /// Push callback. Runs on the connection's reader thread and takes only
  /// this object's locks, never one held across a call.
  void on_frame(wire::Message message);

  /// Wait up to `timeout_s` for pushed results and take up to
  /// `max_results` new ones, sending the ack or re-arm the cursors call
  /// for. When none arrived, one non-blocking fetch picks up what a lost
  /// frame or a missing binding (a fresh connection) held back; results
  /// found there re-arm the stream. An instance not opened yet — one
  /// created on an earlier connection — is opened first.
  Result<std::vector<TaskResult>> wait(InstanceId instance,
                                       std::uint32_t max_results,
                                       double timeout_s);

 private:
  struct Stream {
    std::mutex mu;  // everything below but ack_mu
    std::condition_variable cv;
    /// Pushed batches in arrival order, kept as decoded: the reader thread
    /// allocates nothing per result.
    std::deque<std::vector<TaskResult>> batches;
    /// Results of batches.front() already taken.
    std::size_t taken{0};
    /// Task ids already handed out.
    std::unordered_set<std::uint64_t> delivered;
    /// Highest contiguously received ResultStream.seq; what we ack.
    std::uint64_t last_seq{0};
    /// Last seq the dispatcher accepted as acknowledged.
    std::uint64_t acked_seq{0};
    /// Set by a seq gap (a lost frame, or a stale one from before a
    /// re-arm) and while a re-arm is unanswered. Acking across a gap would
    /// let the dispatcher discard results never received, so last_seq
    /// freezes until a re-arm's reply clears this.
    bool resync{false};
    /// Serialises this instance's SubscribeResults calls: the dispatcher's
    /// cursor protocol assumes acks and re-arms never interleave.
    std::mutex ack_mu;
  };

  [[nodiscard]] std::shared_ptr<Stream> find(InstanceId instance) const;
  std::shared_ptr<Stream> start(InstanceId instance);
  /// One SubscribeResults; true when the dispatcher accepted it.
  bool subscribe(const wire::SubscribeResults& request,
                 const std::function<void()>& on_reply);
  /// Take buffered results (waiting up to `timeout_s` for the first), then
  /// ack or re-arm as the cursors call for.
  std::vector<TaskResult> drain(InstanceId instance, Stream& stream,
                                std::uint32_t max_results, double timeout_s);
  /// SubscribeResults{0}: the dispatcher resets its cursors, binds the
  /// instance to the connection the call went out on, and re-streams what
  /// is un-acked.
  void rearm(InstanceId instance, Stream& stream);
  /// The task-id filter: true the first time `stream` sees `task`. Caller
  /// holds stream.mu.
  bool first_delivery(Stream& stream, TaskId task);

  Call call_;
  obs::Counter* duplicates_{nullptr};
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Stream>> streams_;
};

}  // namespace falkon::core
