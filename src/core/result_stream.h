// Client half of push-mode result streaming (message {8} of paper Figure 2
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
#include "common/task.h"
#include "obs/obs.h"
#include "wire/message.h"

namespace falkon::core {

/// The streamed instances of one client. The dispatcher pushes each drained
/// mailbox batch as a ResultStream frame on the connection that subscribed
/// the instance; on_frame — the connection's push callback — buffers it by
/// ResultStream.instance_id and tracks the contiguous seq cursor. drain()
/// hands buffered results out and settles the cursor protocol: one
/// cumulative SubscribeResults{ack} per kAckBatchResults results, and after
/// a seq gap a SubscribeResults{0} that makes the dispatcher re-stream
/// everything un-acked. Each instance's task-id filter makes what drain()
/// and filter() return exactly-once across pushes, re-streams and poll
/// fallbacks.
class ResultStreams {
 public:
  /// Sends one SubscribeResults on the client's connection; true when the
  /// dispatcher accepted it.
  using Subscribe = std::function<bool(const wire::SubscribeResults&)>;

  /// `duplicates` (optional) counts results the filters drop.
  explicit ResultStreams(Subscribe subscribe,
                         obs::Counter* duplicates = nullptr)
      : subscribe_(std::move(subscribe)), duplicates_(duplicates) {}

  /// Start streaming `instance`: SubscribeResults{0} binds it to the
  /// connection and arms the dispatcher's drain. False leaves the instance
  /// unstreamed; the caller polls for its results.
  bool open(InstanceId instance);
  /// Stop streaming `instance`; frames still in flight for it are dropped.
  void close(InstanceId instance);
  [[nodiscard]] bool contains(InstanceId instance) const;

  /// Push callback. Runs on the connection's reader thread and takes only
  /// this object's locks, never one held across a call.
  void on_frame(wire::Message message);

  /// Wait up to `timeout_s` for pushed results (or a gap), take up to
  /// `max_results` new ones, then send the ack or re-arm the cursors call
  /// for. Empty when nothing new arrived: the caller falls back to a poll.
  std::vector<TaskResult> drain(InstanceId instance, std::uint32_t max_results,
                                double timeout_s);
  /// Drop results `instance` already handed out (a poll fallback returns
  /// the streamed-but-unacked prefix too).
  std::vector<TaskResult> filter(InstanceId instance,
                                 std::vector<TaskResult> results);
  /// SubscribeResults{0}: the dispatcher resets its cursors, binds the
  /// instance to the connection the call went out on, and re-streams what
  /// is un-acked; on success the local cursors reset too.
  bool rearm(InstanceId instance);

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
    /// A seq gap was seen (a lost frame, or a stale one from before a
    /// re-arm). Acking across it would let the dispatcher discard results
    /// never received, so last_seq freezes until the next re-arm.
    bool resync{false};
    /// Serialises this instance's SubscribeResults calls: the dispatcher's
    /// cursor protocol assumes acks and re-arms never interleave.
    std::mutex ack_mu;
  };

  [[nodiscard]] std::shared_ptr<Stream> find(InstanceId instance) const;
  bool rearm(InstanceId instance, Stream& stream);
  /// The task-id filter: true the first time `stream` sees `task`. Caller
  /// holds stream.mu.
  bool first_delivery(Stream& stream, TaskId task);

  Subscribe subscribe_;
  obs::Counter* duplicates_{nullptr};
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Stream>> streams_;
};

}  // namespace falkon::core
