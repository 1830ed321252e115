#include "net/rpc.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <optional>
#include <thread>

#include "common/logging.h"

namespace falkon::net {
namespace {

void corrupt_payload(std::vector<std::uint8_t>& payload) {
  // Flip payload bytes only: the peer reads a well-framed message that
  // fails to decode, exercising the protocol-error path without
  // desynchronising the stream. The type byte lands outside the enum so
  // corruption is always detected, never silently misread.
  if (!payload.empty()) {
    payload[0] ^= 0x80;
    payload[payload.size() / 2] ^= 0xff;
  }
}

/// Write a header promising the full payload, deliver only half, then
/// sever: the peer's read_frame sees a truncated frame.
void truncate_and_sever(TcpStream& stream, std::uint64_t corr,
                        const std::vector<std::uint8_t>& payload) {
  std::uint8_t header[wire::kFrameHeaderBytes];
  wire::put_frame_header(header, corr,
                         static_cast<std::uint32_t>(payload.size()));
  (void)stream.write_all(header, wire::kFrameHeaderBytes);
  if (payload.size() > 1) {
    (void)stream.write_all(payload.data(), payload.size() / 2);
  }
  stream.shutdown();
}

/// The reactor-side equivalent: a raw byte run whose header promises the
/// full payload but whose body stops halfway. Queued through send_raw and
/// followed by close_after_flush, the peer sees a truncated frame.
std::vector<std::uint8_t> truncated_frame_bytes(
    std::uint64_t corr, const std::vector<std::uint8_t>& payload) {
  const std::size_t half = payload.size() > 1 ? payload.size() / 2 : 0;
  std::vector<std::uint8_t> bytes(wire::kFrameHeaderBytes + half);
  wire::put_frame_header(bytes.data(), corr,
                         static_cast<std::uint32_t>(payload.size()));
  if (half > 0) {
    std::memcpy(bytes.data() + wire::kFrameHeaderBytes, payload.data(), half);
  }
  return bytes;
}

/// Apply a sampled fault to an outgoing frame on a blocking stream (client
/// request path). A clean ok_status() means the caller should write
/// `payload` normally (it may have been corrupted in place — framing stays
/// aligned because the length prefix is intact); an error means the fault
/// consumed the frame and severed the stream.
Status apply_frame_fault(fault::FaultInjector* injector, fault::Site site,
                         TcpStream& stream, std::uint64_t corr,
                         std::vector<std::uint8_t>& payload) {
  if (injector == nullptr) return ok_status();
  const fault::Outcome outcome = injector->sample(site);
  switch (outcome.action) {
    case fault::Action::kDrop:
      stream.shutdown();
      return make_error(ErrorCode::kIoError, "injected connection drop");
    case fault::Action::kDelay:
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::max(outcome.param, 0.0)));
      return ok_status();
    case fault::Action::kCorrupt:
      corrupt_payload(payload);
      return ok_status();
    case fault::Action::kTruncate:
      truncate_and_sever(stream, corr, payload);
      return make_error(ErrorCode::kIoError, "injected frame truncation");
    default:
      return ok_status();
  }
}

}  // namespace

// ---- RpcServer -------------------------------------------------------

RpcServer::~RpcServer() { stop(); }

Status RpcServer::start(RpcHandler handler, std::uint16_t port,
                        fault::FaultInjector* fault, RpcServerOptions options) {
  const bool reuseport = options.reactor != nullptr
                             ? options.reactor->options().reuseport
                             : options.reuseport;
  auto listener = TcpListener::bind(port, reuseport);
  if (!listener.ok()) return listener.error();
  listener_ = listener.take();
  handler_ = std::move(handler);
  affinity_key_ = std::move(options.affinity_key);
  run_on_loop_ = std::move(options.run_on_loop);
  bind_key_ = std::move(options.bind_key);
  fault_ = fault;
  if (options.obs != nullptr) {
    m_bp_drops_ =
        &options.obs->registry().counter("falkon.net.push.backpressure_drops");
  }
  sndbuf_bytes_ = options.sndbuf_bytes;
  // Handlers may block (wait_results); every request run_on_loop does not
  // admit runs off-loop, so even handler_threads == 0 gets one worker —
  // that also preserves strict FIFO handling, which several protocol tests
  // rely on.
  pool_ = std::make_unique<ThreadPool>(std::max<std::size_t>(1, options.handler_threads),
                                       "rpc");
  if (options.reactor != nullptr) {
    reactor_ = options.reactor;
  } else {
    ReactorOptions ropts;
    ropts.n_loops = options.n_loops;
    ropts.high_watermark_bytes = options.high_watermark_bytes;
    ropts.low_watermark_bytes = options.low_watermark_bytes;
    ropts.obs = options.obs;
    ropts.reuseport = options.reuseport;
    owned_reactor_ = std::make_unique<Reactor>(ropts);
    if (auto status = owned_reactor_->start(); !status.ok()) {
      listener_.close();
      return status;
    }
    reactor_ = owned_reactor_.get();
  }
  reactor_->add_listener(listener_.fd(), [this](int fd) { on_accept(fd); });
  if (reuseport) {
    // One sibling listener per remaining loop; consecutive add_listener
    // calls land on consecutive loops, so the set covers every loop and
    // the kernel's reuseport hash spreads accepts across them.
    for (int i = 1; i < reactor_->n_loops(); ++i) {
      auto sibling = TcpListener::bind(listener_.port(), true);
      if (!sibling.ok()) break;  // degraded, never fatal: primary accepts
      siblings_.push_back(sibling.take());
      reactor_->add_listener(siblings_.back().fd(),
                             [this](int fd) { on_accept(fd); });
    }
  }
  started_ = true;
  return ok_status();
}

void RpcServer::stop() {
  if (!started_) return;
  stopping_.store(true);
  reactor_->remove_listener(listener_.fd());
  for (auto& sibling : siblings_) reactor_->remove_listener(sibling.fd());
  {
    std::lock_guard lock(mu_);
    bound_.clear();
    for (auto& weak : connections_) {
      if (auto conn = weak.lock()) conn->close();
    }
  }
  // After the barrier every close has been processed and no frame or close
  // callback is still running on a loop thread.
  reactor_->barrier();
  listener_.close();
  for (auto& sibling : siblings_) sibling.close();
  siblings_.clear();
  // Handlers still in flight enqueue replies into severed connections and
  // fail harmlessly; shutdown() drains them before returning.
  if (pool_) pool_->shutdown();
  if (owned_reactor_) owned_reactor_->stop();
  started_ = false;
}

std::size_t RpcServer::active_connections() const {
  std::lock_guard lock(mu_);
  std::size_t alive = 0;
  for (const auto& weak : connections_) {
    if (!weak.expired()) ++alive;
  }
  return alive;
}

void RpcServer::on_accept(int fd) {
  if (stopping_.load()) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
    return;
  }
  if (sndbuf_bytes_ > 0) (void)set_send_buffer(fd, sndbuf_bytes_);
  auto conn = reactor_->adopt(
      fd,
      [this](const std::shared_ptr<Reactor::Conn>& c, std::uint64_t corr,
             std::vector<std::uint8_t>&& payload) {
        on_frame(c, corr, std::move(payload));
      },
      [this](const std::shared_ptr<Reactor::Conn>& c) { on_close(c); });
  std::lock_guard lock(mu_);
  connections_.erase(
      std::remove_if(connections_.begin(), connections_.end(),
                     [](const std::weak_ptr<Reactor::Conn>& weak) {
                       return weak.expired();
                     }),
      connections_.end());
  connections_.push_back(conn);
}

void RpcServer::on_frame(const std::shared_ptr<Reactor::Conn>& conn,
                         std::uint64_t corr,
                         std::vector<std::uint8_t>&& payload) {
  if (run_on_loop_ && !payload.empty() &&
      run_on_loop_(payload[0], payload.size())) {
    // Small non-blocking request: handling it here costs less than waking a
    // pool thread for it, and the loop's other connections wait only as
    // long as the handler runs.
    serve(conn, corr, std::move(payload));
    return;
  }
  // Decode on the pool too: a large TaskBundle deserialisation would
  // otherwise stall every other connection on this loop.
  auto submitted =
      pool_->submit([this, conn, corr, payload = std::move(payload)]() mutable {
        serve(conn, corr, std::move(payload));
      });
  if (!submitted.ok()) conn->close();  // pool closed: server stopping
}

void RpcServer::serve(const std::shared_ptr<Reactor::Conn>& conn,
                      std::uint64_t corr,
                      std::vector<std::uint8_t>&& payload) {
  auto request = wire::decode_message(payload);
  // Decoding deep-copies; the raw buffer can go back to the pool now.
  conn->recycle(std::move(payload));
  if (!request.ok()) {
    enqueue_reply(conn, corr,
                  wire::ErrorReply{ErrorCode::kProtocolError,
                                   request.error().message});
    return;
  }
  if (affinity_key_) {
    // Pin the connection to the loop that owns this executor's shard. A
    // no-op once the connection is already there, so calling per request
    // costs one atomic load.
    const std::uint64_t key = affinity_key_(request.value());
    if (key != 0) conn->set_affinity(key);
  }
  const std::uint64_t key = bind_key_ ? bind_key_(request.value()) : 0;
  if (key != 0) bind(key, conn);
  wire::Message reply = handler_(request.value());
  if (key != 0 && std::holds_alternative<wire::ErrorReply>(reply)) {
    // A refused subscription binds nothing — unless a later request has
    // already moved the key elsewhere.
    std::lock_guard lock(mu_);
    auto it = bound_.find(key);
    if (it != bound_.end() && it->second == conn) bound_.erase(it);
  }
  enqueue_reply(conn, corr, reply);
}

void RpcServer::bind(std::uint64_t key,
                     const std::shared_ptr<Reactor::Conn>& conn) {
  std::lock_guard lock(mu_);
  // A connection is marked dead before its on_close runs, and on_close
  // erases under mu_: checked here, no binding outlives its connection.
  if (stopping_.load() || conn->dead()) return;
  bound_[key] = conn;
}

void RpcServer::unbind(std::uint64_t key) {
  std::lock_guard lock(mu_);
  bound_.erase(key);
}

std::size_t RpcServer::bound_keys() const {
  std::lock_guard lock(mu_);
  return bound_.size();
}

Status RpcServer::push(std::uint64_t key, const wire::Message& message) {
  std::shared_ptr<Reactor::Conn> conn;
  {
    std::lock_guard lock(mu_);
    auto it = bound_.find(key);
    if (it == bound_.end()) {
      return make_error(ErrorCode::kNotFound,
                        "no connection bound to key " + std::to_string(key));
    }
    conn = it->second;
  }
  auto payload = wire::encode_message(message);
  if (fault_ != nullptr) {
    const fault::Outcome outcome = fault_->sample(fault::Site::kPushFrame);
    if (outcome.action == fault::Action::kDrop) {
      // A lost push: reported as sent, never delivered. The connection
      // stays up; the dispatcher's stale-notification sweep (or the result
      // stream's ack protocol) is what recovers.
      return ok_status();
    }
    if (outcome.action == fault::Action::kDelay) {
      conn->pause_output(std::max(outcome.param, 0.0));
    } else if (outcome.action == fault::Action::kCorrupt) {
      corrupt_payload(payload);
    }
  }
  if (conn->overloaded()) {
    // Slow reader past the high watermark: shed the push instead of
    // buffering without bound. Like an injected drop, the protocol above
    // recovers it if it mattered.
    if (m_bp_drops_ != nullptr) m_bp_drops_->inc();
    return ok_status();
  }
  return conn->send_frame(0, payload);
}

void RpcServer::on_close(const std::shared_ptr<Reactor::Conn>& conn) {
  std::lock_guard lock(mu_);
  std::erase_if(bound_, [&](const auto& entry) { return entry.second == conn; });
  connections_.erase(
      std::remove_if(connections_.begin(), connections_.end(),
                     [&](const std::weak_ptr<Reactor::Conn>& weak) {
                       auto locked = weak.lock();
                       return locked == nullptr || locked == conn;
                     }),
      connections_.end());
}

void RpcServer::enqueue_reply(const std::shared_ptr<Reactor::Conn>& conn,
                              std::uint64_t corr, const wire::Message& reply) {
  // The reused thread-local Writer stops allocating once it has grown to
  // the largest reply; send_frame copies exactly one framed buffer out.
  thread_local wire::Writer scratch;
  wire::encode_message_into(scratch, reply);
  if (fault_ != nullptr) {
    // Reply-site faults, reactor flavor: the connection already serialises
    // the stream, so "frames ahead of the faulted one were logically sent"
    // falls out of close_after_flush, and delay becomes a pause marker on
    // the timer wheel instead of a sleeping thread.
    const fault::Outcome outcome = fault_->sample(fault::Site::kRpcReply);
    switch (outcome.action) {
      case fault::Action::kCorrupt:
        corrupt_payload(scratch.buffer());
        break;
      case fault::Action::kDelay:
        conn->pause_output(std::max(outcome.param, 0.0));
        break;
      case fault::Action::kDrop:
        conn->close_after_flush();
        return;
      case fault::Action::kTruncate:
        (void)conn->send_raw(truncated_frame_bytes(corr, scratch.data()));
        conn->close_after_flush();
        return;
      default:
        break;
    }
  }
  (void)conn->send_frame(corr, scratch.data());
}

// ---- RpcClient -------------------------------------------------------

struct RpcClient::Impl {
  TcpStream stream;
  fault::FaultInjector* fault{nullptr};
  obs::Gauge* m_inflight{nullptr};

  struct CallState {
    std::mutex mu;
    std::condition_variable cv;
    bool done{false};
    std::optional<Result<wire::Message>> reply;
  };

  std::mutex write_mu;  // serialises frame writes (and request faults)
  std::mutex mu;        // guards pending/next_corr/broken
  std::unordered_map<std::uint64_t, std::shared_ptr<CallState>> pending;
  std::uint64_t next_corr{1};  // 0 marks a server push
  bool broken{false};
  Error broken_error{ErrorCode::kClosed, "connection closed"};
  PushHandler on_push;
  std::thread reader;

  static void complete(const std::shared_ptr<CallState>& cs,
                       Result<wire::Message> reply) {
    {
      std::lock_guard lock(cs->mu);
      cs->reply.emplace(std::move(reply));
      cs->done = true;
    }
    cs->cv.notify_all();
  }

  void set_inflight_locked() {
    if (m_inflight != nullptr) {
      m_inflight->set(static_cast<double>(pending.size()));
    }
  }

  void fail_all(const Error& error) {
    std::unordered_map<std::uint64_t, std::shared_ptr<CallState>> orphans;
    {
      std::lock_guard lock(mu);
      broken = true;
      broken_error = error;
      orphans.swap(pending);
      set_inflight_locked();
    }
    for (auto& [corr, cs] : orphans) complete(cs, error);
  }

  void reader_loop() {
    wire::Frame frame;
    for (;;) {
      if (auto status = wire::read_frame(stream, frame); !status.ok()) {
        // Stream-level failure: every call in flight was mapped to this
        // connection, so all of them fail with the stream's error.
        fail_all(status.error());
        return;
      }
      if (frame.corr == 0) {
        // A server push. One that fails to decode (an injected corruption)
        // is dropped like a lost push; the stream itself stays aligned.
        if (!on_push) continue;
        auto pushed = wire::decode_message(frame.payload);
        if (pushed.ok()) on_push(pushed.take());
        continue;
      }
      std::shared_ptr<CallState> cs;
      {
        std::lock_guard lock(mu);
        auto it = pending.find(frame.corr);
        if (it != pending.end()) {
          cs = std::move(it->second);
          pending.erase(it);
          set_inflight_locked();
        }
      }
      if (!cs) continue;  // reply to an abandoned call
      auto decoded = wire::decode_message(frame.payload);
      if (!decoded.ok()) {
        // Corrupt payload inside intact framing: only the correlated call
        // fails; the stream stays aligned and later replies still route.
        complete(cs, decoded.error());
        continue;
      }
      if (const auto* error = std::get_if<wire::ErrorReply>(&decoded.value())) {
        complete(cs, Error{error->code, error->message});
        continue;
      }
      complete(cs, decoded.take());
    }
  }
};

RpcClient::RpcClient(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
RpcClient::RpcClient(RpcClient&&) noexcept = default;
RpcClient& RpcClient::operator=(RpcClient&&) noexcept = default;

RpcClient::~RpcClient() {
  if (!impl_) return;
  impl_->stream.shutdown();
  if (impl_->reader.joinable()) impl_->reader.join();
}

Result<RpcClient> RpcClient::connect(const std::string& host,
                                     std::uint16_t port,
                                     fault::FaultInjector* fault,
                                     obs::Obs* obs, PushHandler on_push) {
  if (fault != nullptr) {
    const fault::Outcome outcome = fault->sample(fault::Site::kRpcConnect);
    if (outcome.action == fault::Action::kDrop) {
      return make_error(ErrorCode::kUnavailable, "injected connect refusal");
    }
    if (outcome.action == fault::Action::kDelay) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::max(outcome.param, 0.0)));
    }
  }
  auto stream = TcpStream::connect(host, port);
  if (!stream.ok()) return stream.error();
  auto impl = std::make_unique<Impl>();
  impl->stream = stream.take();
  impl->fault = fault;
  impl->on_push = std::move(on_push);
  if (obs != nullptr) {
    impl->m_inflight = &obs->registry().gauge("falkon.net.rpc.inflight");
  }
  auto* raw = impl.get();
  impl->reader = std::thread([raw] { raw->reader_loop(); });
  return RpcClient(std::move(impl));
}

Result<wire::Message> RpcClient::call(const wire::Message& request) {
  Impl* impl = impl_.get();
  auto cs = std::make_shared<Impl::CallState>();
  std::uint64_t corr;
  {
    std::lock_guard lock(impl->mu);
    if (impl->broken) return impl->broken_error;
    corr = impl->next_corr++;
    impl->pending.emplace(corr, cs);
    impl->set_inflight_locked();
  }
  thread_local wire::Writer scratch;
  wire::encode_message_into(scratch, request);
  Status wrote = ok_status();
  {
    std::lock_guard lock(impl->write_mu);
    wrote = apply_frame_fault(impl->fault, fault::Site::kRpcRequest,
                              impl->stream, corr, scratch.buffer());
    if (wrote.ok()) {
      wrote = wire::write_frame(impl->stream, corr, scratch.buffer());
    }
  }
  if (!wrote.ok()) {
    {
      std::lock_guard lock(impl->mu);
      impl->pending.erase(corr);
      impl->set_inflight_locked();
    }
    return wrote.error();
  }
  std::unique_lock lock(cs->mu);
  cs->cv.wait(lock, [&] { return cs->done; });
  return std::move(*cs->reply);
}

void RpcClient::close() {
  if (impl_) impl_->stream.shutdown();
}

}  // namespace falkon::net
