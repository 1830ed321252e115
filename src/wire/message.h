// Falkon protocol messages.
//
// One message type per arrow in paper Figure 2:
//   client <-> dispatcher : create/destroy instance, submit {1,2},
//                           wait-results {9,10}, results {8} (a pushed
//                           ResultStream, or the blocking wait-results reply)
//   dispatcher -> executor: notify {3} (pushed on the executor's RPC
//                           connection; sent as a call, it subscribes)
//   executor <-> dispatcher: register, get-work {4,5}, deliver-result {6},
//                           ack + piggy-backed next tasks {7}
//   provisioner <-> dispatcher: status poll {POLL}
//
// Bundling (section 3.4) is structural: SubmitRequest, GetWorkReply,
// ResultRequest and ResultReply all carry arrays.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/task.h"
#include "wire/codec.h"

namespace falkon::wire {

enum class MsgType : std::uint8_t {
  kError = 0,
  kCreateInstanceRequest = 1,
  kCreateInstanceReply = 2,
  kDestroyInstanceRequest = 3,
  kDestroyInstanceReply = 4,
  kSubmitRequest = 5,
  kSubmitReply = 6,
  kRegisterRequest = 7,
  kRegisterReply = 8,
  kNotify = 9,
  kGetWorkRequest = 10,
  kGetWorkReply = 11,
  kResultRequest = 12,
  kResultReply = 13,
  kStatusRequest = 14,
  kStatusReply = 15,
  kDeregisterRequest = 16,
  kDeregisterReply = 17,
  kWaitResultsRequest = 18,
  kWaitResultsReply = 19,
  // 20 is retired: the decoder rejects it as an unknown type.
  kHeartbeatRequest = 21,
  kHeartbeatReply = 22,
  kTaskBundle = 23,
  kResultBundle = 24,
  kReplFetch = 25,
  kReplAppend = 26,
  kReplSnapshot = 27,
  kReplAck = 28,
  kReplAckReply = 29,
  kElectionPing = 30,
  kElectionAck = 31,
  kCacheDigest = 32,
  kDataFetch = 33,
  kDataFetchReply = 34,
  kDataEvict = 35,
  kSubscribeResults = 36,
  kResultStream = 37,
};

[[nodiscard]] const char* msg_type_name(MsgType type);

// ---- message structs -------------------------------------------------

struct ErrorReply {
  ErrorCode code{ErrorCode::kInternal};
  std::string message;
};

struct CreateInstanceRequest {
  ClientId client_id;
};

/// The "EPR" returned by the dispatcher factory (section 3.2).
struct CreateInstanceReply {
  InstanceId instance_id;
};

struct DestroyInstanceRequest {
  InstanceId instance_id;
};

struct DestroyInstanceReply {};

struct SubmitRequest {
  InstanceId instance_id;
  std::vector<TaskSpec> tasks;  // client-dispatcher bundling
  /// Per-instance, strictly increasing submit sequence for exactly-once
  /// submission across dispatcher failover (docs/HA.md); 0 = dedup unused.
  std::uint64_t submit_seq{0};
  /// Dispatcher epoch the client believes it is talking to; a promoted
  /// dispatcher rejects submits stamped with an older epoch (fencing,
  /// docs/HA.md). 0 = unfenced legacy client, always accepted.
  std::uint64_t epoch{0};
};

struct SubmitReply {
  std::uint64_t accepted{0};
  /// Current dispatcher epoch — how clients learn the epoch after failover.
  std::uint64_t epoch{0};
};

struct RegisterRequest {
  NodeId node_id;
  std::string host;           // where the executor runs
  std::uint32_t slots{1};     // concurrent tasks the executor can run
  AllocationId allocation_id; // LRM allocation that created this executor
  /// Data-plane piggyback (docs/DATA.md): port of the executor's peer
  /// fetch server (0 = no data plane) and the initial cache digest —
  /// usually empty, but a restarted executor re-advertises a warm cache.
  std::uint32_t data_port{0};
  std::vector<std::string> cached;
};

struct RegisterReply {
  ExecutorId executor_id;
  /// Current dispatcher epoch — executors learn it on (re-)registration.
  std::uint64_t epoch{0};
};

/// Sentinel resource key in a Notify that asks the executor to release
/// itself (centralized resource-release policy) instead of fetching work.
inline constexpr std::uint64_t kReleaseResourceKey = ~0ULL;

/// Push notification ({3}): "work is available under this resource key".
struct Notify {
  ExecutorId executor_id;
  std::uint64_t resource_key{0};
};

struct GetWorkRequest {
  ExecutorId executor_id;
  std::uint32_t max_tasks{1};
};

struct GetWorkReply {
  std::vector<TaskSpec> tasks;
};

struct ResultRequest {
  ExecutorId executor_id;
  std::vector<TaskResult> results;
  /// Pre-fetch hint: executor wants this many new tasks piggy-backed on
  /// the acknowledgement (0 disables piggy-backing).
  std::uint32_t want_tasks{0};
};

struct ResultReply {
  std::uint64_t acknowledged{0};
  std::vector<TaskSpec> piggyback_tasks;  // section 3.4 optimisation
};

struct StatusRequest {};

/// Dispatcher state snapshot consumed by the provisioner {POLL}.
struct StatusReply {
  std::uint64_t submitted_tasks{0};
  std::uint64_t queued_tasks{0};
  std::uint64_t dispatched_tasks{0};
  std::uint64_t completed_tasks{0};
  std::uint64_t failed_tasks{0};
  std::uint64_t retried_tasks{0};
  std::uint64_t suspicions{0};
  std::uint64_t false_suspicions{0};
  std::uint64_t quarantined_tasks{0};
  std::uint32_t registered_executors{0};
  std::uint32_t busy_executors{0};
  std::uint32_t idle_executors{0};
  /// Current dispatcher epoch (0 on pre-HA dispatchers).
  std::uint64_t epoch{0};
};

struct DeregisterRequest {
  ExecutorId executor_id;
  std::string reason;
};

struct DeregisterReply {};

struct WaitResultsRequest {
  InstanceId instance_id;
  std::uint32_t max_results{64};
  double timeout_s{1.0};
};

struct WaitResultsReply {
  std::vector<TaskResult> results;
};

/// Executor liveness beacon on the control channel; the dispatcher's
/// failure detector deregisters executors whose beacons stop.
struct HeartbeatRequest {
  ExecutorId executor_id;
  /// Cache-digest piggyback (docs/DATA.md): when `has_digest` the beacon
  /// re-advertises the executor's full cache contents under `generation`
  /// (bumped on every insert/evict). The dispatcher replaces its mirror
  /// wholesale; a heartbeat without a digest just proves liveness.
  std::uint64_t digest_generation{0};
  std::uint32_t data_port{0};
  bool has_digest{false};
  std::vector<std::string> cached;
};

struct HeartbeatReply {};

/// GetWorkRequest.max_tasks / TaskBundle request sentinel: let the
/// dispatcher size the bundle adaptively from current queue depth (still
/// capped by max_bundle_runtime_s and DispatcherConfig::max_adaptive_bundle).
inline constexpr std::uint32_t kAdaptiveBundle = 0;

/// want_tasks sentinel asking for adaptively-sized piggyback instead of a
/// fixed count (0 keeps its existing meaning: no piggyback).
inline constexpr std::uint32_t kAdaptiveWant = 0xffffffffu;

/// N tasks in one frame (paper §3.4 / Fig. 5 bundling at the wire layer).
/// Sent dispatcher -> executor as the reply to a ResultBundle. `bundle_seq`
/// numbers non-empty bundles so the executor can acknowledge a whole batch
/// with one `ack_seq` instead of per-task acks.
struct TaskBundle {
  ExecutorId executor_id;
  std::uint64_t bundle_seq{0};
  std::uint64_t acknowledged{0};
  std::vector<TaskSpec> tasks;
};

/// Executor -> dispatcher: deliver N results and ask for the next bundle in
/// the same exchange. `ack_seq` echoes the highest TaskBundle.bundle_seq
/// received so far (batched acknowledgement).
struct ResultBundle {
  ExecutorId executor_id;
  std::uint64_t ack_seq{0};
  std::vector<TaskResult> results;
  std::uint32_t want_tasks{0};
};

// ---- log replication (docs/HA.md) ------------------------------------

/// Standby -> primary: send log records starting at `from_lsn`. Doubles as
/// a cumulative acknowledgement of everything below `from_lsn`. `epoch` is
/// the highest epoch the follower has applied; a source at a higher epoch
/// still serves the fetch (the records carry the epoch bump), but a source
/// at a LOWER epoch must refuse — it is the zombie.
struct ReplFetch {
  std::uint64_t from_lsn{1};
  std::uint32_t max_bytes{1u << 20};
  std::uint64_t epoch{0};
};

/// Primary -> standby: a run of WAL-framed records [first_lsn, last_lsn]
/// (the payload uses the same [len][crc32][payload] framing as log
/// segments, so both sides share one codec). Empty payload with
/// last_lsn < from_lsn's predecessor never occurs; an empty payload means
/// "caught up".
struct ReplAppend {
  std::uint64_t first_lsn{0};
  std::uint64_t last_lsn{0};
  std::string payload;
  /// Source's current epoch; followers drop batches from a stale epoch.
  std::uint64_t epoch{0};
};

/// Primary -> standby: the follower fell behind the primary's in-memory
/// tail — here is a full state image at `lsn`; resume fetching at lsn + 1.
struct ReplSnapshot {
  std::uint64_t lsn{0};
  std::string payload;
  /// Source's current epoch; followers drop snapshots from a stale epoch.
  std::uint64_t epoch{0};
};

/// Standby -> primary: explicit progress report, drives the primary's
/// replication-lag gauge (falkon.ha.repl.lag).
struct ReplAck {
  std::uint64_t applied_lsn{0};
  std::uint64_t epoch{0};
};

struct ReplAckReply {};

// ---- standby lease election (docs/HA.md) -----------------------------

/// Standby -> standby: "the primary looks dead to me — are you alive, and
/// who should promote?". Sent to every configured peer when the failover
/// timer expires; the sender promotes only if no live peer outranks it
/// (lower rank wins) and none has already promoted.
struct ElectionPing {
  std::uint64_t epoch{0};        // sender's highest applied epoch
  std::uint32_t rank{0};         // sender's configured rank
  std::uint64_t applied_lsn{0};  // sender's replication progress
};

/// Election answer: receiver's identity and progress. `promoted` short-
/// circuits the election — the sender adopts the existing winner.
struct ElectionAck {
  std::uint64_t epoch{0};
  std::uint32_t rank{0};
  std::uint64_t applied_lsn{0};
  bool promoted{false};
};

// ---- data diffusion (docs/DATA.md) -----------------------------------

/// Executor -> dispatcher: standalone full cache-content advertisement.
/// The common path piggybacks the digest on RegisterRequest/
/// HeartbeatRequest; this message exists for out-of-band refreshes (e.g. a
/// data plane that churned many objects between beacons). `generation`
/// orders advertisements: the dispatcher drops digests older than the one
/// it mirrors.
struct CacheDigest {
  ExecutorId executor_id;
  std::uint64_t generation{0};
  /// Peer fetch port of the executor's data server (0 = no data plane).
  std::uint32_t data_port{0};
  std::vector<std::string> objects;
};

/// Executor -> executor (peer data plane): send me this object.
struct DataFetch {
  std::string object;
};

/// Peer data plane reply: the object's payload. `object_bytes` is the
/// modeled size for cache accounting (the wire payload is a bounded
/// synthetic blob); `crc` is crc32(payload) and is verified at decode —
/// a mismatch is a CodecError, surfaced as kProtocolError like any other
/// malformed frame. Build replies with make_data_fetch_reply() so the
/// stamp is always correct.
struct DataFetchReply {
  std::string object;
  std::uint64_t object_bytes{0};
  std::string payload;
  std::uint32_t crc{0};
};

/// Executor -> dispatcher: incremental digest retraction — the LRU evicted
/// `object`, stop routing tasks that need it here.
struct DataEvict {
  ExecutorId executor_id;
  std::string object;
};

// ---- push-mode result streaming (docs/PROTOCOL.md) -------------------

/// Client -> dispatcher (RPC): enter push-mode result streaming for an
/// instance, or acknowledge streamed results. Either way it binds the
/// connection it arrives on as the instance's push target. `ack_seq = 0`
/// (re)subscribes — the dispatcher resets
/// its streaming cursor and re-pushes the whole mailbox backlog (the client
/// dedups by task id, so re-delivery is safe). `ack_seq > 0` is a
/// cumulative acknowledgement of every ResultStream frame with
/// `seq <= ack_seq`; acknowledged results are removed from the mailbox and
/// journaled as delivered (docs/HA.md). The reply is a ResultStream frame
/// whose `seq` reports the dispatcher's current push cursor (empty result
/// array — actual batches arrive as pushes).
struct SubscribeResults {
  InstanceId instance_id;
  std::uint64_t ack_seq{0};
};

/// Dispatcher -> client (pushed, correlation id 0): a drained mailbox batch. `seq` is
/// the cumulative count of results streamed to this instance since the last
/// subscribe — the client echoes the highest seen value back as
/// `SubscribeResults.ack_seq`. Streamed results stay in the mailbox until
/// acknowledged, so a dropped frame costs re-delivery, never loss.
struct ResultStream {
  InstanceId instance_id;
  std::uint64_t seq{0};
  std::vector<TaskResult> results;
};

/// CRC-32 (IEEE, reflected) over a byte range; stamps DataFetchReply
/// payloads. Local to the wire layer on purpose — ha's WAL checksum lives
/// above wire in the layering and cannot be shared downward.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size);

/// Build a DataFetchReply with a correct crc stamp.
[[nodiscard]] DataFetchReply make_data_fetch_reply(std::string object,
                                                   std::uint64_t object_bytes,
                                                   std::string payload);

// NOTE: MsgType values equal variant indices, except that alternatives
// after the retired tag 20 sit one below their tag (message_type() maps
// the index) — new messages must be appended at the end of BOTH lists.
using Message =
    std::variant<ErrorReply, CreateInstanceRequest, CreateInstanceReply,
                 DestroyInstanceRequest, DestroyInstanceReply, SubmitRequest,
                 SubmitReply, RegisterRequest, RegisterReply, Notify,
                 GetWorkRequest, GetWorkReply, ResultRequest, ResultReply,
                 StatusRequest, StatusReply, DeregisterRequest,
                 DeregisterReply, WaitResultsRequest, WaitResultsReply,
                 HeartbeatRequest, HeartbeatReply, TaskBundle, ResultBundle,
                 ReplFetch, ReplAppend, ReplSnapshot, ReplAck, ReplAckReply,
                 ElectionPing, ElectionAck, CacheDigest, DataFetch,
                 DataFetchReply, DataEvict, SubscribeResults, ResultStream>;

[[nodiscard]] MsgType message_type(const Message& message);

/// One-line human-readable summary ("TaskBundle{seq=3, acked=2, tasks=8}")
/// for counterexample dumps, trace logs and test failure messages. Payload
/// bodies (task args, result stdout) are elided — only the protocol-level
/// fields that matter for conformance debugging are shown.
[[nodiscard]] std::string debug_summary(const Message& message);

/// Serialise a message (type byte + payload).
[[nodiscard]] std::vector<std::uint8_t> encode_message(const Message& message);

/// Serialise into a caller-owned Writer (cleared first). A thread-local
/// Writer reused across calls keeps the hot encode path allocation-free
/// once its buffer has grown to the largest message seen.
void encode_message_into(Writer& writer, const Message& message);

/// Decode; kProtocolError on malformed input.
[[nodiscard]] Result<Message> decode_message(const std::uint8_t* data,
                                             std::size_t size);
[[nodiscard]] Result<Message> decode_message(
    const std::vector<std::uint8_t>& buffer);

// TaskSpec/TaskResult encoders are exposed for tests and for the sim's
// message-size accounting.
void encode_task_spec(Writer& writer, const TaskSpec& spec);
[[nodiscard]] TaskSpec decode_task_spec(Reader& reader);
void encode_task_result(Writer& writer, const TaskResult& result);
[[nodiscard]] TaskResult decode_task_result(Reader& reader);

}  // namespace falkon::wire
