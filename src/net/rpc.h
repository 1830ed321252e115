// Request/response RPC over TCP, with server-initiated pushes on the same
// connection.
//
// This is the C++ stand-in for the GT4 WS container of the original Falkon:
// RpcServer/RpcClient carry the WS-style request/response operations
// (submit, get-work, deliver-result, status, ...) and also the custom
// notification protocol of paper section 3.3 (implementation alternative
// 2: the executor is a plain client that subscribes for notifications). A
// peer subscribes with an ordinary request that binds its connection to a
// key; the server then pushes frames to that key with correlation id 0,
// which no call ever uses, and the client's reader hands them to a
// callback.
//
// The RPC channel is *pipelined*: every frame carries a correlation id, the
// client keeps many calls outstanding on one connection and a reader thread
// demuxes replies to per-call waiters. The server side runs on the
// falkon::net::Reactor — one epoll loop owns every accepted connection, so
// a dispatcher holding hundreds of registered executors costs loop + pool
// threads, not two threads per connection. Handlers run on a shared pool,
// except requests the server's `run_on_loop` predicate admits (small ones
// whose handler never blocks), which are handled on the loop thread that
// read them. A reply is written through by the thread that produced it when
// nothing is queued ahead of it, and any backlog drains through the
// per-connection outbox as gathered writes with watermark backpressure.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "fault/fault.h"
#include "net/reactor.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "wire/message.h"

namespace falkon::net {

/// Server-side request handler: one message in, one message out.
using RpcHandler = std::function<wire::Message(const wire::Message&)>;

struct RpcServerOptions {
  /// Handler pool size. 0 means one shared handler thread (strict FIFO
  /// through a single worker, what unit tests expect); N > 0 gives a pool
  /// of N so a blocking handler (wait_results) cannot stall pipelined
  /// calls behind it and replies genuinely reorder. Every request the
  /// run_on_loop predicate does not admit runs here.
  std::size_t handler_threads{0};
  /// Optional: given a request frame's type tag (payload[0]) and payload
  /// size, before decode, return true to decode, handle and reply on the
  /// reactor loop thread that read the frame instead of hopping to the
  /// pool. Admit only requests whose handler never blocks — while it runs,
  /// every other connection on that loop waits. Unset: all requests go to
  /// the pool.
  std::function<bool(std::uint8_t type_tag, std::size_t payload_bytes)>
      run_on_loop;
  /// Optional metrics sink (falkon.net.frames_coalesced,
  /// falkon.net.push.backpressure_drops, plus the falkon.net.reactor.*
  /// family when the server owns its reactor).
  obs::Obs* obs{nullptr};
  /// Run on this shared reactor instead of owning one. Watermark/n_loops
  /// fields below only apply to an owned reactor.
  Reactor* reactor{nullptr};
  int n_loops{1};
  std::size_t high_watermark_bytes{8u << 20};
  std::size_t low_watermark_bytes{1u << 20};
  /// Owned-reactor mirror of ReactorOptions::reuseport. With a shared
  /// reactor the flag is read from its options instead. When the effective
  /// reactor runs reuseport accept mode and has more than one loop, the
  /// server binds one SO_REUSEPORT sibling listener per loop and the
  /// kernel balances accepts across them.
  bool reuseport{false};
  /// Test-only: shrink SO_SNDBUF on accepted sockets to force the
  /// partial-write/EAGAIN paths.
  int sndbuf_bytes{0};
  /// Optional connection-affinity extractor: given a decoded request,
  /// return a nonzero shard key (typically the executor id it carries) and
  /// the connection is pinned to reactor loop `key % n_loops` — the same
  /// modulo partition the dispatcher registry uses, so one executor's whole
  /// exchange stays on one loop. Return 0 for requests that carry no key.
  std::function<std::uint64_t(const wire::Message&)> affinity_key;
  /// Optional subscription extractor: given a decoded request, return a
  /// nonzero key to bind the connection it arrived on to that key for
  /// push(). The binding is made before the handler runs, so a push the
  /// handler itself triggers already finds the connection, and undone when
  /// the handler answers with an ErrorReply. A key names one connection
  /// (binding it again moves it); a connection may hold many keys, and all
  /// of them end when it closes.
  std::function<std::uint64_t(const wire::Message&)> bind_key;
};

/// Accepts connections on the reactor and serves framed request/response
/// exchanges. Connections are reactor-owned Conn objects (no per-connection
/// threads); requests are decoded and handled on the shared pool (or on the
/// loop, when RpcServerOptions::run_on_loop admits them), and replies are
/// written through, or coalesced from the connection outbox when the socket
/// backs up. push() writes server-initiated frames (correlation id 0) on
/// connections bound by RpcServerOptions::bind_key, through the same send
/// path, so pushes and replies never interleave bytes mid-frame.
class RpcServer {
 public:
  RpcServer() = default;
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Bind (port 0 = ephemeral) and start accepting. `fault` (optional,
  /// test-only) injects reply-frame faults at Site::kRpcReply.
  Status start(RpcHandler handler, std::uint16_t port = 0,
               fault::FaultInjector* fault = nullptr,
               RpcServerOptions options = {});

  /// Stop accepting, sever all connections, drain the handler pool.
  /// Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] std::size_t active_connections() const;

  /// Push `message` as a correlation-id-0 frame on the connection bound to
  /// `key`; kNotFound if none is. Safe from any thread, never blocks. A
  /// connection whose outbox is past the high watermark has the frame shed
  /// (falkon.net.push.backpressure_drops) and the call still succeeds —
  /// pushed frames are hints the protocol can recover, never replies.
  /// `fault` (see start) injects Site::kPushFrame faults here.
  Status push(std::uint64_t key, const wire::Message& message);
  /// End `key`'s binding; its connection stays open.
  void unbind(std::uint64_t key);
  /// Keys currently bound to a connection.
  [[nodiscard]] std::size_t bound_keys() const;

 private:
  void on_accept(int fd);
  void on_frame(const std::shared_ptr<Reactor::Conn>& conn,
                std::uint64_t corr, std::vector<std::uint8_t>&& payload);
  /// Decode one request, pin the connection's affinity, run the handler
  /// and send its reply — on the pool, or inline on the loop.
  void serve(const std::shared_ptr<Reactor::Conn>& conn, std::uint64_t corr,
             std::vector<std::uint8_t>&& payload);
  void on_close(const std::shared_ptr<Reactor::Conn>& conn);
  void enqueue_reply(const std::shared_ptr<Reactor::Conn>& conn,
                     std::uint64_t corr, const wire::Message& reply);
  void bind(std::uint64_t key, const std::shared_ptr<Reactor::Conn>& conn);

  TcpListener listener_;
  /// Reuseport accept mode: additional listeners sharing listener_'s port,
  /// one per remaining reactor loop.
  std::vector<TcpListener> siblings_;
  RpcHandler handler_;
  std::function<std::uint64_t(const wire::Message&)> affinity_key_;
  std::function<bool(std::uint8_t, std::size_t)> run_on_loop_;
  std::function<std::uint64_t(const wire::Message&)> bind_key_;
  fault::FaultInjector* fault_{nullptr};
  obs::Counter* m_bp_drops_{nullptr};
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Reactor> owned_reactor_;
  Reactor* reactor_{nullptr};
  int sndbuf_bytes_{0};
  mutable std::mutex mu_;
  std::vector<std::weak_ptr<Reactor::Conn>> connections_;
  /// push() routing: key -> the connection it is bound to.
  std::unordered_map<std::uint64_t, std::shared_ptr<Reactor::Conn>> bound_;
  std::atomic<bool> stopping_{false};
  bool started_{false};
};

/// Pipelined RPC client: many outstanding calls share one connection. Each
/// call takes a fresh correlation id and parks on its own waiter; a reader
/// thread demuxes reply frames by correlation id. Out-of-order replies (a
/// pooled server finishing a fast call before a slow one) route correctly.
///
/// Failure semantics: a frame that fails to *decode* (corrupt payload,
/// intact framing) fails only the call it correlates to; a stream-level
/// error (drop, truncation, peer death) fails every call in flight on the
/// connection, which is exactly the set mapped to the lost stream.
///
/// Frames with correlation id 0 are server pushes, not replies: the reader
/// hands each one that decodes to `on_push`, on the reader thread. The
/// callback must not block and must not call() — replies queued behind it
/// on the stream wait until it returns.
class RpcClient {
 public:
  using PushHandler = std::function<void(wire::Message)>;

  /// `fault` (optional, test-only) injects connect faults at
  /// Site::kRpcConnect and request-frame faults at Site::kRpcRequest.
  /// `obs` (optional) exposes the falkon.net.rpc.inflight gauge.
  /// `on_push` (optional) receives server pushes; unset, they are dropped.
  static Result<RpcClient> connect(const std::string& host, std::uint16_t port,
                                   fault::FaultInjector* fault = nullptr,
                                   obs::Obs* obs = nullptr,
                                   PushHandler on_push = {});

  RpcClient(RpcClient&&) noexcept;
  RpcClient& operator=(RpcClient&&) noexcept;
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Send a request, wait for the reply. Safe to call from many threads
  /// concurrently; calls overlap on the wire. An ErrorReply from the server
  /// is surfaced as a failed Status with the carried code. `on_reply`
  /// (optional) runs on the reader thread when a successful reply is read,
  /// before any later frame — in wire order with the pushes around it.
  Result<wire::Message> call(const wire::Message& request,
                             const std::function<void()>& on_reply = {});

  /// Sever the connection; in-flight and future calls fail.
  void close();

 private:
  struct Impl;
  explicit RpcClient(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace falkon::net
