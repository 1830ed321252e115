// TCP deployment glue.
//
// TcpDispatcherServer exposes a Dispatcher on one port. The original
// Falkon split its WS-style operations (submit, get-work, deliver, status,
// ...) and its custom TCP notification protocol (section 3.3) across a GT4
// WS container and a second socket; here both ride each peer's one
// pipelined RPC connection, the notifications as server pushes
// (docs/PROTOCOL.md). TcpExecutorHarness runs an executor against a remote
// dispatcher, and TcpDispatcherClient is the client-side stub.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/client.h"
#include "core/dispatcher.h"
#include "core/executor.h"
#include "core/result_stream.h"
#include "core/task_engine.h"
#include "net/rpc.h"

namespace falkon::core {

/// Key namespace for push bindings on the RPC server (executors subscribe
/// with their ExecutorId; streamed instances with kClientKeyBase +
/// InstanceId).
inline constexpr std::uint64_t kClientKeyBase = 1ULL << 62;

class TcpDispatcherServer {
 public:
  /// `obs` (optional) receives RPC/push counters: falkon.net.rpc.requests,
  /// falkon.net.rpc.errors, falkon.net.push.notifications.
  ///
  /// `reactor_loops` controls how many independent event loops serve the
  /// port. 0 (the default) aligns with the dispatcher: one loop per
  /// hardware thread, capped at the dispatcher's executor-shard count so
  /// the loop partition (executor id % n_loops) nests inside the registry
  /// partition (executor id % shards) and an executor's notify/push never
  /// crosses shards. Explicit values are clamped to [1, executor shards].
  ///
  /// `reuseport` switches the port to SO_REUSEPORT accept mode: one
  /// sibling listener per reactor loop, kernel-balanced accepts, and each
  /// accepted connection stays on the loop that accepted it (no cross-
  /// thread handoff). The FALKON_REUSEPORT environment variable (any
  /// non-empty value but "0") forces it on — CI uses this to run the whole
  /// TCP suite in reuseport mode.
  explicit TcpDispatcherServer(Dispatcher& dispatcher,
                               obs::Obs* obs = nullptr,
                               int reactor_loops = 0,
                               bool reuseport = false);
  ~TcpDispatcherServer();

  TcpDispatcherServer(const TcpDispatcherServer&) = delete;
  TcpDispatcherServer& operator=(const TcpDispatcherServer&) = delete;

  /// `fault` (optional, test-only) injects reply-frame faults and, on the
  /// frames with correlation id 0, push-frame faults.
  Status start(std::uint16_t rpc_port = 0,
               fault::FaultInjector* fault = nullptr);
  void stop();

  [[nodiscard]] std::uint16_t rpc_port() const { return rpc_.port(); }
  /// Pushes ride the RPC connection, so there is no second port. This
  /// accessor and the push_port arguments of TcpExecutorHarness and
  /// TcpDispatcherClient::connect (both ignored) remain so that callers
  /// written for the two-port layout — the perfbench program among them —
  /// build and behave unchanged.
  [[nodiscard]] std::uint16_t push_port() const { return rpc_port(); }
  /// The RPC server: connection count and push bindings (introspection).
  [[nodiscard]] const net::RpcServer& rpc_server() const { return rpc_; }
  /// The shared event-loop reactor (introspection: loop count, connection
  /// distribution). Valid between construction and destruction.
  [[nodiscard]] net::Reactor& reactor() { return reactor_; }

  /// Serve ReplFetch/ReplAck from this source (typically the dispatcher's
  /// ha::Journal), enabling a warm standby to tail the log over the RPC
  /// port. nullptr (the default) answers ReplFetch with kUnavailable.
  /// The source must outlive the server or be cleared first.
  void set_replication_source(ReplicationSource* source) {
    replication_.store(source, std::memory_order_release);
  }

  /// Fence this server to the dispatcher's promotion epoch (docs/HA.md):
  /// epoch-stamped submits and repl fetches that disagree with it are
  /// rejected, and every SubmitReply/RegisterReply/StatusReply advertises
  /// it so clients and executors learn the new epoch on reconnect.
  /// 0 (the default) disables fencing for pre-HA deployments.
  void set_epoch(std::uint64_t epoch) {
    epoch_.store(epoch, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

 private:
  /// ExecutorSink that pushes Notify frames on the executor's RPC
  /// connection. on_removed ties transport cleanup to the dispatcher's
  /// removal paths: without it, an executor evicted by the failure detector
  /// (no orderly DeregisterRequest) would leak its push binding and its
  /// unretired bundle_seq entry — and `falkon.net.rpc.pending_bundles`
  /// would never drain to zero.
  struct PushSink final : ExecutorSink {
    PushSink(TcpDispatcherServer& server, obs::Counter* pushes)
        : server(server), pushes(pushes) {}
    void notify(ExecutorId id, std::uint64_t resource_key) override {
      wire::Notify message;
      message.executor_id = id;
      message.resource_key = resource_key;
      if (pushes) pushes->inc();
      (void)server.rpc_.push(id.value, message);
    }
    void on_removed(ExecutorId id) override {
      server.release_executor(id.value);
    }
    TcpDispatcherServer& server;
    obs::Counter* pushes;
  };

  /// ClientSink for the result stream {8} (docs/PROTOCOL.md): a drained
  /// mailbox batch is pushed as a ResultStream frame on the connection that
  /// subscribed the instance. false (no binding) stops the drain until the
  /// client re-subscribes; a frame lost in flight after a true return is
  /// recovered by the SubscribeResults ack protocol, never by the sink.
  struct ClientPushSink final : ClientSink {
    explicit ClientPushSink(net::RpcServer& rpc) : rpc(rpc) {}
    bool deliver(InstanceId instance, std::uint64_t seq,
                 const std::vector<TaskResult>& results) override {
      wire::ResultStream message;
      message.instance_id = instance;
      message.seq = seq;
      message.results = results;
      return rpc.push(kClientKeyBase + instance.value, message).ok();
    }
    net::RpcServer& rpc;
  };

  [[nodiscard]] wire::Message handle(const wire::Message& request);
  [[nodiscard]] wire::Message dispatch(const wire::Message& request);

  /// Drop all per-executor transport state: push binding plus any
  /// unretired bundle_seq (counted as retired — the dispatcher has already
  /// requeued the bundle's tasks, so the sequence number is settled). The
  /// executor's connection stays open.
  void release_executor(std::uint64_t executor_value);

  Dispatcher& dispatcher_;
  obs::Obs* obs_{nullptr};
  std::atomic<ReplicationSource*> replication_{nullptr};
  std::atomic<std::uint64_t> epoch_{0};
  /// The server's event loops: every executor costs one reactor-owned
  /// connection, zero threads. Declared before the server so it outlives
  /// its stop() sequence.
  net::Reactor reactor_;
  net::RpcServer rpc_;
  /// Recovery sweep (Dispatcher::sweep_once) on the reactor's timer wheel;
  /// 0 when sweep_interval_s <= 0 leaves it unarmed.
  net::TimerId sweep_timer_{0};
  /// Set by a fully-successful start(); stop() is a no-op otherwise (and
  /// after the first stop), so destroying a stopped server never touches
  /// the dispatcher reference again.
  bool started_{false};
  std::shared_ptr<PushSink> sink_;
  std::shared_ptr<ClientPushSink> client_sink_;
  obs::Counter* m_requests_{nullptr};
  obs::Counter* m_errors_{nullptr};
  obs::Counter* m_pushes_{nullptr};
  obs::Gauge* m_pending_bundles_{nullptr};
  /// Bundle-seq lifecycle counters: issued on every numbered (non-empty)
  /// TaskBundle, retired when the seq is acked, superseded by a newer seq,
  /// or settled by executor removal. At quiesce issued == retired — the
  /// testkit invariant checker asserts exactly this.
  obs::Counter* m_bundles_issued_{nullptr};
  obs::Counter* m_bundles_retired_{nullptr};

  /// Batched acknowledgements (section 3.4): every non-empty TaskBundle
  /// gets a sequence number; the executor acks the whole bundle by echoing
  /// it in its next ResultBundle.ack_seq instead of per-task acks.
  std::atomic<std::uint64_t> bundle_seq_{0};
  std::mutex bundles_mu_;
  /// executor id -> last bundle_seq sent and not yet echoed back.
  std::unordered_map<std::uint64_t, std::uint64_t> pending_bundles_;
};

/// One executor connected to a remote dispatcher over TCP.
class TcpExecutorHarness {
 public:
  /// `push_port` is ignored (see TcpDispatcherServer::push_port).
  TcpExecutorHarness(Clock& clock, std::string host, std::uint16_t rpc_port,
                     std::uint16_t push_port, std::unique_ptr<TaskEngine> engine,
                     ExecutorOptions options);
  ~TcpExecutorHarness();

  TcpExecutorHarness(const TcpExecutorHarness&) = delete;
  TcpExecutorHarness& operator=(const TcpExecutorHarness&) = delete;

  /// Connects, registers and, in push mode (poll_interval_s <= 0),
  /// subscribes for notifications — all over the one RPC connection.
  Status start();
  void stop();

  [[nodiscard]] ExecutorRuntime& runtime() { return *runtime_; }
  /// Dispatcher epoch learned at the last (re-)registration.
  [[nodiscard]] std::uint64_t dispatcher_epoch() const { return link_.epoch(); }

 private:
  class Link final : public DispatcherLink {
   public:
    /// `fault` (optional) makes every (re)connect and request pass through
    /// the injector, exercising the reconnect path below. `obs` (optional)
    /// feeds the RPC client's pipelining instrumentation.
    Status connect(const std::string& host, std::uint16_t rpc_port,
                   fault::FaultInjector* fault = nullptr,
                   obs::Obs* obs = nullptr);

    Result<ExecutorId> register_executor(
        const wire::RegisterRequest& request) override;
    Result<std::vector<TaskSpec>> get_work(ExecutorId executor,
                                           std::uint32_t max_tasks) override;
    Result<std::vector<TaskSpec>> deliver_results(
        ExecutorId executor, std::vector<TaskResult> results,
        std::uint32_t want_tasks) override;
    Status deregister(ExecutorId executor, const std::string& reason) override;
    Status heartbeat(ExecutorId executor) override;

    /// Attach the executor's data plane (docs/DATA.md): registration and
    /// heartbeats piggyback its cache digest, and heartbeats drain its
    /// eviction notices into kDataEvict frames. Call before connect().
    void set_data(DataPlane* data) { data_ = data; }

    /// Push mode: Notify frames pushed on this connection go to
    /// `on_notify`, and the link subscribes for them — Notify{executor id}
    /// as a call — after every registration and on every reconnect. Call
    /// before connect().
    void set_notify_handler(
        std::function<void(std::uint64_t resource_key)> on_notify) {
      on_notify_ = std::move(on_notify);
    }

    /// Sever the connection and join its reader: no notify handler runs
    /// after this returns.
    void close();

    /// Dispatcher epoch from the last RegisterReply — bumps after the
    /// executor re-registers on a promoted standby (docs/HA.md).
    [[nodiscard]] std::uint64_t epoch() const {
      return epoch_.load(std::memory_order_acquire);
    }

   private:
    /// One RPC exchange with lazy reconnect: a transport-level failure
    /// (severed, truncated, or corrupted stream) discards the connection so
    /// the next attempt dials fresh — paired with the runtime's
    /// backoff-retry loop this is the executor's reconnect story.
    Result<wire::Message> roundtrip(const wire::Message& request);
    /// Dial, then resubscribe on the new connection (bindings die with the
    /// connection they were made on). Caller holds mu_.
    Status dial_locked();
    /// One call on the open connection; a transport failure discards it.
    /// Caller holds mu_.
    Result<wire::Message> call_locked(const wire::Message& request);

    std::mutex mu_;
    std::string host_;
    std::uint16_t rpc_port_{0};
    fault::FaultInjector* fault_{nullptr};
    obs::Obs* obs_{nullptr};
    std::function<void(std::uint64_t)> on_notify_;
    /// Executor id a fresh connection subscribes (push mode, once
    /// registered; guarded by mu_).
    std::uint64_t subscribed_id_{0};
    std::unique_ptr<net::RpcClient> rpc_;
    /// Highest TaskBundle.bundle_seq received; echoed as the batched ack
    /// in the next ResultBundle (guarded by mu_).
    std::uint64_t last_bundle_seq_{0};
    std::atomic<std::uint64_t> epoch_{0};
    DataPlane* data_{nullptr};
    /// Generation of the last digest the dispatcher acknowledged; ~0 forces
    /// a full digest on the next heartbeat (fresh link or re-registration).
    std::atomic<std::uint64_t> sent_digest_generation_{~0ull};
  };

  Clock& clock_;
  std::string host_;
  std::uint16_t rpc_port_;
  ExecutorOptions options_;
  Link link_;
  std::unique_ptr<TaskEngine> engine_;
  std::unique_ptr<ExecutorRuntime> runtime_;
};

/// Client-side dispatcher stub over TCP.
///
/// Results reach the client one way: create_instance subscribes the
/// instance with SubscribeResults{ack_seq=0}, and the dispatcher pushes
/// drained mailbox batches as ResultStream frames on the client's own RPC
/// connection — outbound only, so it passes the firewalls the paper's
/// polling mode was for. wait_results drains a local buffer
/// and acknowledges cumulatively, so steady-state delivery costs zero
/// request round trips. A wait that sees nothing pushed ends with one
/// non-blocking WaitResultsRequest fetch (the dispatcher keeps every
/// un-acked result in the mailbox), and a per-instance task-id filter makes
/// every arrival path exactly-once (ResultStreams).
class TcpDispatcherClient final : public DispatcherClient {
 public:
  /// `push_port` is ignored (see TcpDispatcherServer::push_port).
  static Result<std::unique_ptr<TcpDispatcherClient>> connect(
      const std::string& host, std::uint16_t rpc_port,
      std::uint16_t push_port = 0);

  Result<InstanceId> create_instance(ClientId client) override;
  Result<std::uint64_t> submit(InstanceId instance,
                               std::vector<TaskSpec> tasks) override;
  Result<std::vector<TaskResult>> wait_results(InstanceId instance,
                                               std::uint32_t max_results,
                                               double timeout_s) override;
  Status destroy_instance(InstanceId instance) override;
  Result<DispatcherStatus> status() override;

 private:
  TcpDispatcherClient();

  ResultStreams streams_;
  /// Declared last, so destroyed first: its reader thread, which feeds
  /// streams_, is joined before streams_ goes away.
  std::unique_ptr<net::RpcClient> rpc_;
};

}  // namespace falkon::core
