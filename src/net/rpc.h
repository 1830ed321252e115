// Request/response RPC and push-notification channels over TCP.
//
// This is the C++ stand-in for the GT4 WS container of the original Falkon:
//   * RpcServer/RpcClient carry the WS-style request/response operations
//     (submit, get-work, deliver-result, status, ...);
//   * PushServer/PushReceiver carry the custom TCP notification protocol of
//     paper section 3.3 (implementation alternative 2: the executor is a
//     plain client that subscribes for notifications).
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
  /// Optional metrics sink (falkon.net.frames_coalesced plus the
  /// falkon.net.reactor.* family when the server owns its reactor).
  obs::Obs* obs{nullptr};
  /// Run on this shared reactor instead of owning one (the TCP service
  /// shares a single loop between RPC and push). Watermark/n_loops fields
  /// below only apply to an owned reactor.
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
};

/// Accepts connections on the reactor and serves framed request/response
/// exchanges. Connections are reactor-owned Conn objects (no per-connection
/// threads); requests are decoded and handled on the shared pool (or on the
/// loop, when RpcServerOptions::run_on_loop admits them), and replies are
/// written through, or coalesced from the connection outbox when the socket
/// backs up.
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

  TcpListener listener_;
  /// Reuseport accept mode: additional listeners sharing listener_'s port,
  /// one per remaining reactor loop.
  std::vector<TcpListener> siblings_;
  RpcHandler handler_;
  std::function<std::uint64_t(const wire::Message&)> affinity_key_;
  std::function<bool(std::uint8_t, std::size_t)> run_on_loop_;
  fault::FaultInjector* fault_{nullptr};
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Reactor> owned_reactor_;
  Reactor* reactor_{nullptr};
  int sndbuf_bytes_{0};
  mutable std::mutex mu_;
  std::vector<std::weak_ptr<Reactor::Conn>> connections_;
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
class RpcClient {
 public:
  /// `fault` (optional, test-only) injects connect faults at
  /// Site::kRpcConnect and request-frame faults at Site::kRpcRequest.
  /// `obs` (optional) exposes the falkon.net.rpc.inflight gauge.
  static Result<RpcClient> connect(const std::string& host, std::uint16_t port,
                                   fault::FaultInjector* fault = nullptr,
                                   obs::Obs* obs = nullptr);

  RpcClient(RpcClient&&) noexcept;
  RpcClient& operator=(RpcClient&&) noexcept;
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Send a request, wait for the reply. Safe to call from many threads
  /// concurrently; calls overlap on the wire. An ErrorReply from the server
  /// is surfaced as a failed Status with the carried code.
  Result<wire::Message> call(const wire::Message& request);

  /// Sever the connection; in-flight and future calls fail.
  void close();

 private:
  struct Impl;
  explicit RpcClient(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

struct PushServerOptions {
  /// Run on this shared reactor instead of owning one. Watermark/n_loops
  /// fields only apply to an owned reactor.
  Reactor* reactor{nullptr};
  int n_loops{1};
  std::size_t high_watermark_bytes{8u << 20};
  std::size_t low_watermark_bytes{1u << 20};
  /// Owned-reactor mirror of ReactorOptions::reuseport (see
  /// RpcServerOptions::reuseport).
  bool reuseport{false};
};

/// Dispatcher-side notification fan-out. Executors connect and send one
/// subscription frame (a Notify carrying their executor id); afterwards the
/// dispatcher pushes frames to them by key. Connections are reactor-owned:
/// the subscription frame is decoded on the loop (no handshake threads) and
/// pushes go out through the connection's send path, which serialises the
/// stream so concurrent pushes can never interleave bytes mid-frame. A
/// subscriber whose outbox is past the high watermark has new notifications
/// shed (falkon.net.push.backpressure_drops) — a lost notification is
/// recoverable, the dispatcher's stale-notification sweep re-sends it.
class PushServer {
 public:
  PushServer() = default;
  ~PushServer();

  PushServer(const PushServer&) = delete;
  PushServer& operator=(const PushServer&) = delete;

  /// `fault` (optional, test-only) injects push-frame faults at
  /// Site::kPushFrame (drop = the notification silently vanishes).
  /// `obs` (optional) feeds falkon.net.frames_coalesced and
  /// falkon.net.push.backpressure_drops.
  Status start(std::uint16_t port = 0, fault::FaultInjector* fault = nullptr,
               obs::Obs* obs = nullptr, PushServerOptions options = {});
  void stop();

  /// Push a message to subscriber `key`; kNotFound if no such subscriber.
  Status push(std::uint64_t key, const wire::Message& message);

  void drop_subscriber(std::uint64_t key);
  [[nodiscard]] std::size_t subscriber_count() const;
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

 private:
  void on_accept(int fd);
  void on_frame(const std::shared_ptr<Reactor::Conn>& conn,
                std::vector<std::uint8_t>&& payload);
  void on_close(const std::shared_ptr<Reactor::Conn>& conn);

  TcpListener listener_;
  /// Reuseport accept mode: additional listeners sharing listener_'s port,
  /// one per remaining reactor loop.
  std::vector<TcpListener> siblings_;
  fault::FaultInjector* fault_{nullptr};
  obs::Counter* m_bp_drops_{nullptr};
  std::unique_ptr<Reactor> owned_reactor_;
  Reactor* reactor_{nullptr};
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Reactor::Conn>>
      subscribers_;
  std::vector<std::weak_ptr<Reactor::Conn>> connections_;
  std::atomic<bool> stopping_{false};
  bool started_{false};
};

/// Executor-side notification listener: connects, subscribes, then invokes
/// a callback for every pushed message on a background thread — a thread
/// of its own, or one borrowed from a ThreadCache.
class PushReceiver {
 public:
  using Callback = std::function<void(const wire::Message&)>;

  PushReceiver() = default;
  /// Run the read loop on a thread from `threads` (which must outlive this
  /// receiver) instead of starting a thread per start().
  explicit PushReceiver(ThreadCache* threads) : threads_(threads) {}
  ~PushReceiver();

  PushReceiver(const PushReceiver&) = delete;
  PushReceiver& operator=(const PushReceiver&) = delete;

  Status start(const std::string& host, std::uint16_t port, std::uint64_t key,
               Callback callback);
  void stop();

 private:
  void read_loop();

  std::shared_ptr<TcpStream> stream_;
  Callback callback_;
  std::thread read_thread_;
  ThreadCache* threads_{nullptr};
  ThreadCache::Ticket read_ticket_{0};  // 0: no read loop on threads_
  std::atomic<bool> stopping_{false};
};

}  // namespace falkon::net
