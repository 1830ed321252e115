// falkon::net::Reactor — sharded epoll event loops for the server side of
// the stack.
//
// Before this existed every accepted connection cost the dispatcher two
// threads (a blocking reader plus a transient handshake thread); at a few
// hundred registered executors a single-core host spends its cycles
// context-switching instead of dispatching. The reactor replaces all of
// that with readiness-driven I/O across `n_loops` truly independent event
// loops: each loop owns its own epoll fd, eventfd wakeup, timer wheel,
// pooled buffer allocator, and a disjoint set of connections — no
// connection is ever touched by two loop threads, so there is no
// cross-loop mutex traffic on the data path. Reads are decoded
// incrementally into frames. Writes go straight through: a producer whose
// connection has nothing queued sends its frame with one non-blocking
// send() on its own thread, so a reply or push costs no loop wake-up. Only
// what the socket does not take at once (a full send buffer, a pause
// marker, output already waiting) lands in a per-connection outbox of
// pre-framed chunks, which the owning loop drains with gathered writes —
// producers request that flush through a per-loop pending list + eventfd,
// completions re-arm EPOLLOUT the same way. The loop threads never block.
//
// Connection placement: accepted fds are handed off round-robin, then a
// server that learns a connection's identity (an executor id, a push
// subscription key) pins it with Conn::set_affinity(key) — the connection
// migrates to loops[key % n_loops], which lets callers align loop
// ownership with the dispatcher's executor_shards registry so a task
// notify/push is enqueued and flushed entirely within one shard.
//
// Buffers: each loop owns a size-classed pool (falkon.net.pool.*) serving
// outbox chunks and inbound decode buffers. Chunks recycle when written
// out or on close; idle loops shrink their pools. This bounds the
// per-connection memory the old always-malloc scheme leaked into
// fragmented heaps at high fan-in.
//
// Slow readers are handled with high/low watermarks instead of unbounded
// queues: once a connection's outbox passes the high watermark the loop
// stops reading new requests from it (EPOLLIN off) until the backlog
// drains below the low watermark. Push-style callers can also consult
// Conn::overloaded() and shed load instead.
//
// A per-loop timer wheel carries the stack's coarse timers — the
// dispatcher's recovery sweep, accept backoff after fd exhaustion, and the
// fault injector's delay action (a pause marker in the outbox rather than
// a sleeping thread), so injected latency never stalls a loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "obs/obs.h"
#include "wire/framing.h"

namespace falkon::net {

using TimerId = std::uint64_t;

struct ReactorOptions {
  /// Event-loop threads. One loop holds hundreds of connections cheaply;
  /// raise to shard very large fleets — pick a divisor of the dispatcher's
  /// executor_shards so affinity keys land consistently.
  int n_loops{1};
  /// Backpressure watermarks, bytes buffered per connection: above high the
  /// loop stops reading that connection's requests, below low it resumes.
  std::size_t high_watermark_bytes{8u << 20};
  std::size_t low_watermark_bytes{1u << 20};
  /// Metrics (falkon.net.reactor.*, falkon.net.pool.*,
  /// falkon.net.accept_rejected, falkon.net.frames_coalesced); nullptr
  /// disables at zero cost.
  obs::Obs* obs{nullptr};
  /// Accept mode. false (default): one listener per server, accepted fds
  /// handed off round-robin across loops. true: servers bind one
  /// SO_REUSEPORT sibling listener per loop (add_listener pins successive
  /// listeners to successive loops, so N consecutive registrations cover
  /// all N loops) and adopt() keeps each accepted connection on the loop
  /// that accepted it — the kernel's reuseport hash replaces the cross-
  /// thread handoff entirely.
  bool reuseport{false};
};

/// Readiness-driven event loops owning sockets, timers, and per-connection
/// frame state. Servers adopt accepted fds as Conn objects and get called
/// back with complete frames; reads, queued-output flushes and closes
/// happen on the owning loop thread.
class Reactor {
 public:
  class Conn;

  /// A complete frame arrived. Runs on the connection's loop thread — do
  /// not block; hand real work to a pool. The payload is moved out; give
  /// it back with Conn::recycle() once decoded to keep the buffer pool
  /// warm.
  using FrameHandler = std::function<void(const std::shared_ptr<Conn>&,
                                          std::uint64_t corr,
                                          std::vector<std::uint8_t>&& payload)>;
  /// The connection died (peer close, write error, protocol error, or
  /// explicit close). Fired exactly once, on the loop thread, after the fd
  /// is withdrawn — no frame callback follows it.
  using CloseHandler = std::function<void(const std::shared_ptr<Conn>&)>;
  /// An accepted socket (already non-blocking, TCP_NODELAY set). Ownership
  /// of the fd transfers to the handler; runs on the listener's loop thread.
  using AcceptHandler = std::function<void(int fd)>;
  using TimerFn = std::function<void()>;

  explicit Reactor(ReactorOptions options = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spawn the loop threads. Must be called before anything else.
  Status start();

  /// Stop all loops, close every adopted connection (firing on_close on
  /// the loop thread), join the threads. Idempotent.
  void stop();

  /// Take ownership of a connected non-blocking fd. The connection is
  /// registered with a loop asynchronously (round-robin placement; see
  /// Conn::set_affinity); sends enqueued before the registration lands are
  /// flushed after it.
  std::shared_ptr<Conn> adopt(int fd, FrameHandler on_frame,
                              CloseHandler on_close);

  /// Watch a listening fd (not owned) and call on_accept for every
  /// accepted connection. Listeners are spread round-robin across loops;
  /// accepted connections still round-robin over every loop. On
  /// EMFILE/ENFILE the reactor pauses accepting with exponential backoff
  /// (counting falkon.net.accept_rejected) instead of spinning, and
  /// re-arms via the owning loop's timer wheel.
  void add_listener(int listen_fd, AcceptHandler on_accept);

  /// Stop watching a listening fd. Asynchronous; follow with barrier()
  /// before closing the fd.
  void remove_listener(int listen_fd);

  /// One-shot timer; fires ~delay_s seconds from now. Timers are homed
  /// round-robin across loops (each loop advances its own wheel).
  TimerId add_timer(double delay_s, TimerFn fn);
  /// Periodic timer (first firing after interval_s).
  TimerId add_periodic(double interval_s, TimerFn fn);
  void cancel_timer(TimerId id);

  /// Wait until every loop has drained its pending operation queue. After
  /// this returns, all close()/remove_listener()/set_affinity() calls
  /// issued before it have taken effect and their callbacks have run.
  void barrier();

  [[nodiscard]] std::size_t open_connections() const;
  [[nodiscard]] int n_loops() const { return options_.n_loops; }
  /// Registered-connection count per loop (test/introspection; answered by
  /// each loop thread via barrier-style ops).
  [[nodiscard]] std::vector<std::size_t> connections_per_loop();
  [[nodiscard]] const ReactorOptions& options() const { return options_; }

 private:
  struct Loop;
  struct Timer;
  struct BufferPool;

  Loop& loop_for_new_conn();
  Loop& loop_for_key(std::uint64_t key);
  /// Pick a home loop for a new public timer (round-robin) and record it so
  /// cancel_timer can find the right wheel.
  Loop& loop_for_timer(TimerId id);
  /// Enqueue an operation on a loop thread; false if the loop has stopped.
  bool post(Loop& loop, std::function<void()> op);
  /// Ask the current owner loop to flush `conn`'s outbox. Allocation-free
  /// fast path (a shared_ptr in the owner's pending list); ownership is
  /// re-checked at execution so a request racing a migration chases the
  /// connection to its new loop.
  void request_flush(const std::shared_ptr<Conn>& conn);
  /// Run `op(owner_loop, conn)` on the loop that owns `conn` right now,
  /// re-posting if a migration moved the connection in between.
  void post_to_owner(const std::shared_ptr<Conn>& conn,
                     std::function<void(Loop&, const std::shared_ptr<Conn>&)> op);
  /// Move a registered connection to `target` (runs on the current owner).
  void migrate(Loop& from, const std::shared_ptr<Conn>& conn, Loop& target);

  // Loop-thread-only machinery (see reactor.cpp).
  void run_loop(Loop& loop);
  void do_accept(Loop& loop, int listen_fd);
  void do_close(Loop& loop, const std::shared_ptr<Conn>& conn);
  void handle_readable(Loop& loop, const std::shared_ptr<Conn>& conn);
  void handle_writable(Loop& loop, const std::shared_ptr<Conn>& conn);
  void deliver_frame(Loop& loop, const std::shared_ptr<Conn>& conn,
                     std::uint64_t corr, std::vector<std::uint8_t>&& payload);
  void loop_flush(Loop& loop, const std::shared_ptr<Conn>& conn);
  void arm_writable(Loop& loop, const std::shared_ptr<Conn>& conn);
  void update_epoll(Loop& loop, const std::shared_ptr<Conn>& conn);
  void maybe_update_read_interest(Loop& loop,
                                  const std::shared_ptr<Conn>& conn);

  friend class Conn;

  ReactorOptions options_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<std::size_t> next_loop_{0};
  std::atomic<std::size_t> next_listener_loop_{0};
  std::atomic<std::size_t> next_timer_loop_{0};
  std::atomic<std::uint64_t> next_timer_{1};
  std::atomic<std::size_t> open_conns_{0};
  std::atomic<bool> stopping_{false};
  bool started_{false};

  /// Where each public timer / listener lives, so cancel_timer and
  /// remove_listener reach the right loop. Cold-path only.
  std::mutex homes_mu_;
  std::unordered_map<TimerId, int> timer_home_;
  std::unordered_map<int, int> listener_home_;

  /// Pooled bytes across all loops (mirrors falkon.net.pool.bytes).
  std::atomic<std::int64_t> pool_bytes_{0};

  // Metric handles (null when options_.obs is null).
  obs::Counter* m_wakeups_{nullptr};
  obs::Counter* m_accept_rejected_{nullptr};
  obs::Counter* m_read_paused_{nullptr};
  obs::Counter* m_coalesced_{nullptr};
  obs::Counter* m_migrations_{nullptr};
  obs::Counter* m_pool_hits_{nullptr};
  obs::Counter* m_pool_misses_{nullptr};
  obs::Counter* m_pool_trims_{nullptr};
  obs::Gauge* m_pool_bytes_{nullptr};
  obs::Histogram* m_epoll_batch_{nullptr};
  obs::Histogram* m_writable_stall_{nullptr};
  obs::Gauge* m_connections_{nullptr};
};

/// One adopted connection. Producers (handler threads, push callers, a
/// loop thread answering a request inline) write a frame straight to the
/// socket, under the connection mutex, when the outbox is empty and output
/// is not paused; anything the socket does not take at once is queued in
/// the outbox for the owning loop. Reads, frame assembly, queued-output
/// flushes (loop_flush, EPOLLOUT) and the close all happen on the owning
/// loop thread.
class Reactor::Conn : public std::enable_shared_from_this<Reactor::Conn> {
 public:
  /// Send one framed message (12-byte header + payload): written through
  /// on the calling thread when nothing is queued ahead of it, otherwise
  /// queued for the loop. kClosed once the connection is dead.
  Status send_frame(std::uint64_t corr, const std::vector<std::uint8_t>& payload);

  /// Send pre-encoded raw bytes, same path as send_frame (fault paths
  /// write deliberately broken frames through this).
  Status send_raw(std::vector<std::uint8_t> bytes);

  /// Pin this connection to loops[key % n_loops] and migrate it there if
  /// another loop currently owns it. Callers use the executor id as the
  /// key so reactor-loop ownership lines up with the dispatcher's
  /// executor_shards partition — a notify/push then never crosses loops.
  /// Asynchronous and idempotent; safe from any thread.
  void set_affinity(std::uint64_t key);

  /// Return a decoded payload buffer to the owning loop's pool. Optional —
  /// dropping the vector is always correct — but handlers that recycle
  /// keep the decode path allocation-free.
  void recycle(std::vector<std::uint8_t>&& buffer);

  /// Insert a pause marker: output enqueued after this point waits
  /// delay_s seconds (served by the loop's timer wheel — the loop thread
  /// never sleeps). This is the fault injector's kDelay on the reactor path.
  void pause_output(double delay_s);

  /// Reject new sends now, flush what is queued, then sever. Reading stops
  /// immediately.
  void close_after_flush();

  /// Sever now; queued output is discarded. on_close fires asynchronously
  /// on the loop thread.
  void close();

  [[nodiscard]] std::size_t queued_bytes() const;
  /// True when the outbox is past the high watermark (slow reader); push
  /// paths use this to shed load instead of buffering without bound.
  [[nodiscard]] bool overloaded() const;
  /// True once sends are refused: the connection is closed or flushing
  /// toward a close. It is set before on_close fires.
  [[nodiscard]] bool dead() const;
  [[nodiscard]] int fd() const { return fd_; }
  /// Index of the loop that owns this connection right now (test
  /// introspection; racy against in-flight migrations — barrier() first).
  [[nodiscard]] int owner_loop_index() const;

 private:
  friend class Reactor;
  struct OutChunk {
    std::vector<std::uint8_t> bytes;
    double pause_s{0.0};  // > 0: pause marker, bytes empty
  };

  Reactor* reactor_{nullptr};
  /// Owning loop. Atomic because producers read it to route flush
  /// requests while a migration op rebinds it; every op re-checks
  /// ownership on the loop thread before touching loop state.
  std::atomic<Loop*> loop_{nullptr};
  int fd_{-1};
  FrameHandler on_frame_;
  CloseHandler on_close_;

  // ---- producer-shared state (guarded by mu_) ----
  mutable std::mutex mu_;
  std::deque<OutChunk> outbox_;
  /// Bytes of outbox_.front() already written (by the loop, or by a
  /// write-through sender that queued the rest).
  std::size_t front_off_{0};
  std::size_t queued_{0};
  bool dead_{false};
  bool flush_requested_{false};
  bool close_after_flush_{false};

  /// Set under mu_ when the loop consumes a pause marker; cleared by the
  /// fault injector's pause timer, which may fire on the loop that owned
  /// the connection when the pause began.
  std::atomic<bool> output_paused_{false};

  // ---- loop-thread-only state (owner loop; handed over through the
  // ops-queue happens-before edge on migration) ----
  bool registered_{false};
  bool closed_{false};
  bool epollout_{false};
  bool read_on_{true};
  bool read_paused_bp_{false};
  double stall_start_{-1.0};
  std::uint8_t header_[wire::kFrameHeaderBytes];
  std::size_t header_got_{0};
  std::uint64_t cur_corr_{0};
  std::uint32_t cur_len_{0};
  std::vector<std::uint8_t> payload_;
  std::size_t payload_got_{0};
  bool reading_payload_{false};
};

}  // namespace falkon::net
