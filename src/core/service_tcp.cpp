#include "core/service_tcp.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <thread>

#include "common/logging.h"
#include "core/data_plane.h"

namespace falkon::core {
namespace {

template <class Expected>
Result<Expected> expect(Result<wire::Message> reply) {
  if (!reply.ok()) return reply.error();
  auto* payload = std::get_if<Expected>(&reply.value());
  if (payload == nullptr) {
    return make_error(ErrorCode::kProtocolError,
                      std::string("unexpected reply type: ") +
                          wire::msg_type_name(message_type(reply.value())));
  }
  return std::move(*payload);
}

/// Largest request payload served on the reactor loop that read it (see
/// loop_request below). Larger frames — bulk submits, batch result bundles
/// — decode on the handler pool so they never stall a loop's other
/// connections.
constexpr std::size_t kLoopRequestMaxBytes = 4096;

/// Requests whose handler never blocks, by wire type tag: the executor
/// exchange, heartbeats, stream acks and status. A submit waits in the
/// journal barrier when the dispatcher is journaled, so it stays on the
/// pool then. The per-transition journal hooks do not disqualify the rest:
/// they run under dispatcher locks wherever they run, so a slow append (a
/// synchronous ha::Journal's fsync) stalls the dispatch path either way.
/// Everything else — wait_results (long-poll), registration, instance
/// lifecycle, replication, election and data-plane requests — stays on the
/// pool.
bool loop_request(std::uint8_t tag, std::size_t bytes, bool journaled) {
  using wire::MsgType;
  if (bytes > kLoopRequestMaxBytes) return false;
  switch (static_cast<MsgType>(tag)) {
    case MsgType::kGetWorkRequest:
    case MsgType::kResultBundle:
    case MsgType::kResultRequest:
    case MsgType::kHeartbeatRequest:
    case MsgType::kSubscribeResults:
    case MsgType::kStatusRequest:
      return true;
    case MsgType::kSubmitRequest:
      return !journaled;
    default:
      return false;
  }
}

/// The push key a subscription binds (docs/PROTOCOL.md): a push-mode
/// executor's Notify{its id}, or a streaming client's SubscribeResults for
/// an instance. 0 for every other request.
std::uint64_t subscription_key(const wire::Message& m) {
  if (const auto* r = std::get_if<wire::Notify>(&m)) {
    return r->executor_id.value;
  }
  if (const auto* r = std::get_if<wire::SubscribeResults>(&m)) {
    return kClientKeyBase + r->instance_id.value;
  }
  return 0;
}

/// Resolve the reactor_loops knob against the dispatcher's shard count.
/// Auto (0) spends one loop per hardware thread — extra loops on a smaller
/// host are pure context-switch overhead — and never exceeds the shard
/// count, so loop ownership stays a coarsening of registry ownership.
int resolve_reactor_loops(int requested, std::size_t executor_shards) {
  const int shards = std::max(1, static_cast<int>(executor_shards));
  if (requested <= 0) {
    // FALKON_REACTOR_LOOPS pins the auto default from the environment — CI
    // forces >= 2 loops through it so multi-loop paths stay covered even on
    // single-core runners. An explicit constructor value still wins.
    if (const char* env = std::getenv("FALKON_REACTOR_LOOPS")) {
      const int forced = std::atoi(env);
      if (forced > 0) return std::min(forced, shards);
    }
    const int hw =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    return std::min(hw, shards);
  }
  return std::min(requested, shards);
}

/// FALKON_REUSEPORT forces reuseport accept mode on (any value but "" or
/// "0"); an explicit constructor `true` also wins. CI uses the variable to
/// run the whole TCP suite through the SO_REUSEPORT accept path.
bool resolve_reuseport(bool requested) {
  if (requested) return true;
  const char* env = std::getenv("FALKON_REUSEPORT");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

}  // namespace

TcpDispatcherServer::TcpDispatcherServer(Dispatcher& dispatcher, obs::Obs* obs,
                                         int reactor_loops, bool reuseport)
    : dispatcher_(dispatcher),
      obs_(obs),
      reactor_(net::ReactorOptions{
          .n_loops = resolve_reactor_loops(reactor_loops,
                                           dispatcher.executor_shard_count()),
          .obs = obs,
          .reuseport = resolve_reuseport(reuseport)}) {
  if (obs != nullptr) {
    obs::Registry& reg = obs->registry();
    m_requests_ = &reg.counter("falkon.net.rpc.requests");
    m_errors_ = &reg.counter("falkon.net.rpc.errors");
    m_pushes_ = &reg.counter("falkon.net.push.notifications");
    m_pending_bundles_ = &reg.gauge("falkon.net.rpc.pending_bundles");
    m_bundles_issued_ = &reg.counter("falkon.net.rpc.bundles_issued");
    m_bundles_retired_ = &reg.counter("falkon.net.rpc.bundles_retired");
  }
}

TcpDispatcherServer::~TcpDispatcherServer() { stop(); }

Status TcpDispatcherServer::start(std::uint16_t rpc_port,
                                  fault::FaultInjector* fault) {
  if (auto status = reactor_.start(); !status.ok()) return status;
  sink_ = std::make_shared<PushSink>(*this, m_pushes_);
  client_sink_ = std::make_shared<ClientPushSink>(rpc_);
  dispatcher_.set_client_sink(client_sink_);
  // A shared handler pool keeps slow/blocking handlers (wait_results with a
  // timeout) from stalling pipelined calls on the same connection; small
  // requests that never block skip that hop and run on the loop.
  net::RpcServerOptions options;
  options.handler_threads = 16;
  options.run_on_loop = [journaled = dispatcher_.journaled()](
                            std::uint8_t tag, std::size_t bytes) {
    return loop_request(tag, bytes, journaled);
  };
  options.obs = obs_;
  options.reactor = &reactor_;
  // Pin each executor's connection to its shard's loop as soon as a
  // request names the executor (register carries no id yet — the
  // subscription or the first get-work settles it), so the whole exchange
  // for one executor, pushes included, runs on one loop.
  options.affinity_key = [](const wire::Message& m) -> std::uint64_t {
    using namespace wire;
    if (const std::uint64_t key = subscription_key(m)) return key;
    if (const auto* r = std::get_if<GetWorkRequest>(&m)) {
      return r->executor_id.value;
    }
    if (const auto* r = std::get_if<ResultBundle>(&m)) {
      return r->executor_id.value;
    }
    if (const auto* r = std::get_if<ResultRequest>(&m)) {
      return r->executor_id.value;
    }
    if (const auto* r = std::get_if<HeartbeatRequest>(&m)) {
      return r->executor_id.value;
    }
    if (const auto* r = std::get_if<CacheDigest>(&m)) {
      return r->executor_id.value;
    }
    if (const auto* r = std::get_if<DataEvict>(&m)) {
      return r->executor_id.value;
    }
    return 0;
  };
  options.bind_key = subscription_key;
  if (auto status =
          rpc_.start([this](const wire::Message& m) { return handle(m); },
                     rpc_port, fault, options);
      !status.ok()) {
    // Unwind the sink registration: with start() failed, stop() will be a
    // no-op, and the dispatcher must not keep notifying through a server
    // the caller is about to destroy.
    dispatcher_.set_client_sink(nullptr);
    return status;
  }
  // The dispatcher owns no sweep thread: the recovery sweep rides the
  // reactor's timer wheel.
  if (dispatcher_.sweep_interval_real_s() > 0) {
    sweep_timer_ = reactor_.add_periodic(
        dispatcher_.sweep_interval_real_s(), [this] { dispatcher_.sweep_once(); });
  }
  started_ = true;
  return ok_status();
}

void TcpDispatcherServer::stop() {
  // Idempotent: a dead primary's server object may be stopped explicitly
  // and then destroyed after its Dispatcher is already gone — the second
  // stop must not touch the dangling reference.
  if (!started_) return;
  started_ = false;
  if (sweep_timer_ != 0) {
    reactor_.cancel_timer(sweep_timer_);
    reactor_.barrier();  // a final sweep_once() may be mid-flight
    sweep_timer_ = 0;
  }
  dispatcher_.set_client_sink(nullptr);
  rpc_.stop();
  reactor_.stop();
}

void TcpDispatcherServer::release_executor(std::uint64_t executor_value) {
  rpc_.unbind(executor_value);
  std::lock_guard lock(bundles_mu_);
  if (pending_bundles_.erase(executor_value) != 0) {
    if (m_bundles_retired_) m_bundles_retired_->inc();
    if (m_pending_bundles_) {
      m_pending_bundles_->set(static_cast<double>(pending_bundles_.size()));
    }
  }
}

wire::Message TcpDispatcherServer::handle(const wire::Message& request) {
  if (m_requests_) m_requests_->inc();
  wire::Message reply = dispatch(request);
  if (m_errors_ && std::get_if<wire::ErrorReply>(&reply) != nullptr) {
    m_errors_->inc();
  }
  return reply;
}

wire::Message TcpDispatcherServer::dispatch(const wire::Message& request) {
  using namespace wire;
  if (const auto* m = std::get_if<CreateInstanceRequest>(&request)) {
    auto result = dispatcher_.create_instance(m->client_id);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return CreateInstanceReply{result.value()};
  }
  if (const auto* m = std::get_if<DestroyInstanceRequest>(&request)) {
    auto result = dispatcher_.destroy_instance(m->instance_id);
    rpc_.unbind(kClientKeyBase + m->instance_id.value);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return DestroyInstanceReply{};
  }
  if (const auto* m = std::get_if<SubmitRequest>(&request)) {
    const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (m->epoch != 0 && m->epoch != epoch) {
      // Fencing both ways: a client that learned a newer epoch must not be
      // accepted by this (zombie) server, and a client stamped with an old
      // epoch re-syncs via status() before retrying.
      return ErrorReply{ErrorCode::kUnavailable,
                        "epoch mismatch: request epoch " +
                            std::to_string(m->epoch) + ", server epoch " +
                            std::to_string(epoch)};
    }
    auto result = dispatcher_.submit(m->instance_id, m->tasks, m->submit_seq);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return SubmitReply{result.value(), epoch};
  }
  if (const auto* m = std::get_if<SubscribeResults>(&request)) {
    // (Re)subscribe / cumulative ack for push-mode result streaming; the
    // connection is already bound to the instance (bind_key). The reply is
    // a ResultStream carrying the dispatcher's current cursor and no
    // results — actual batches arrive as pushes.
    auto result = dispatcher_.subscribe_results(m->instance_id, m->ack_seq);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    ResultStream reply;
    reply.instance_id = m->instance_id;
    reply.seq = result.value();
    return reply;
  }
  if (const auto* m = std::get_if<WaitResultsRequest>(&request)) {
    auto result =
        dispatcher_.wait_results(m->instance_id, m->max_results, m->timeout_s);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    WaitResultsReply reply;
    reply.results = result.take();
    return reply;
  }
  if (const auto* m = std::get_if<RegisterRequest>(&request)) {
    auto result = dispatcher_.register_executor(*m, sink_);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return RegisterReply{result.value(),
                         epoch_.load(std::memory_order_acquire)};
  }
  if (const auto* m = std::get_if<Notify>(&request)) {
    // A push-mode executor subscribing on this connection (bind_key bound
    // it). An unknown id answers kNotFound, which undoes the binding; a
    // known one counts the subscription as a sign of life.
    auto result = dispatcher_.heartbeat(m->executor_id);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return HeartbeatReply{};
  }
  if (const auto* m = std::get_if<GetWorkRequest>(&request)) {
    auto result = dispatcher_.get_work(m->executor_id, m->max_tasks);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    GetWorkReply reply;
    reply.tasks = result.take();
    return reply;
  }
  if (const auto* m = std::get_if<ResultRequest>(&request)) {
    auto result = dispatcher_.deliver_results(m->executor_id, m->results,
                                              m->want_tasks);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    ResultReply reply;
    reply.acknowledged = result.value().acknowledged;
    reply.piggyback_tasks = std::move(result.value().piggyback);
    return reply;
  }
  if (const auto* m = std::get_if<ResultBundle>(&request)) {
    // Batched-ack bookkeeping: the echoed ack_seq retires the executor's
    // outstanding bundle in one shot (no per-task ack traffic).
    if (m->ack_seq != 0) {
      std::lock_guard lock(bundles_mu_);
      auto it = pending_bundles_.find(m->executor_id.value);
      if (it != pending_bundles_.end() && m->ack_seq >= it->second) {
        pending_bundles_.erase(it);
        if (m_bundles_retired_) m_bundles_retired_->inc();
      }
      if (m_pending_bundles_) {
        m_pending_bundles_->set(static_cast<double>(pending_bundles_.size()));
      }
    }
    auto result = dispatcher_.deliver_results(m->executor_id, m->results,
                                              m->want_tasks);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    TaskBundle reply;
    reply.executor_id = m->executor_id;
    reply.acknowledged = result.value().acknowledged;
    reply.tasks = std::move(result.value().piggyback);
    if (!reply.tasks.empty()) {
      reply.bundle_seq = bundle_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
      std::lock_guard lock(bundles_mu_);
      auto [it, inserted] =
          pending_bundles_.emplace(m->executor_id.value, reply.bundle_seq);
      if (!inserted) {
        // Superseding an unacked seq settles it: the next ack_seq covers
        // both (cumulative ack), so only the newest needs tracking.
        it->second = reply.bundle_seq;
        if (m_bundles_retired_) m_bundles_retired_->inc();
      }
      if (m_bundles_issued_) m_bundles_issued_->inc();
      if (m_pending_bundles_) {
        m_pending_bundles_->set(static_cast<double>(pending_bundles_.size()));
      }
    }
    return reply;
  }
  if (const auto* m = std::get_if<HeartbeatRequest>(&request)) {
    auto result = dispatcher_.heartbeat(m->executor_id);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    if (m->has_digest) {
      // Piggybacked cache digest (docs/DATA.md): refresh the locality
      // router's mirror in the same exchange that proves liveness.
      dispatcher_.apply_digest(m->executor_id, m->digest_generation,
                               m->data_port, m->cached);
    }
    return HeartbeatReply{};
  }
  if (const auto* m = std::get_if<CacheDigest>(&request)) {
    // Standalone digest refresh (same payload the heartbeat piggybacks);
    // unknown executors are a protocol error, not a transport teardown.
    auto entry = dispatcher_.heartbeat(m->executor_id);
    if (!entry.ok()) return ErrorReply{entry.error().code, entry.error().message};
    dispatcher_.apply_digest(m->executor_id, m->generation, m->data_port,
                             m->objects);
    return HeartbeatReply{};
  }
  if (const auto* m = std::get_if<DataEvict>(&request)) {
    // Incremental eviction notice: the object must stop attracting locality
    // routes immediately (invariant I11). Unknown executor or an object the
    // executor never advertised answers kNotFound — an ErrorReply, never a
    // connection teardown.
    auto result = dispatcher_.evict_cached_object(m->executor_id, m->object);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return HeartbeatReply{};
  }
  if (const auto* m = std::get_if<DeregisterRequest>(&request)) {
    // Transport cleanup rides the sink's on_removed hook (same path the
    // failure detector takes); release here too so an unknown executor —
    // where deregister_executor never fires the hook — still drops its
    // push binding.
    auto result = dispatcher_.deregister_executor(m->executor_id, m->reason);
    release_executor(m->executor_id.value);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return DeregisterReply{};
  }
  if (std::get_if<StatusRequest>(&request) != nullptr) {
    StatusReply reply = dispatcher_.status().to_wire();
    reply.epoch = epoch_.load(std::memory_order_acquire);
    return reply;
  }
  if (const auto* m = std::get_if<ReplFetch>(&request)) {
    ReplicationSource* source =
        replication_.load(std::memory_order_acquire);
    if (source == nullptr) {
      return ErrorReply{ErrorCode::kUnavailable,
                        "replication not enabled on this dispatcher"};
    }
    auto batch = source->fetch(m->from_lsn, m->max_bytes);
    if (m->epoch != 0 && m->epoch > batch.epoch) {
      // The follower has seen a newer regime than this source: we are the
      // stale side and must not feed it our (dead) branch of history.
      return ErrorReply{ErrorCode::kUnavailable,
                        "stale replication source: follower epoch " +
                            std::to_string(m->epoch) + " > source epoch " +
                            std::to_string(batch.epoch)};
    }
    if (batch.is_snapshot) {
      ReplSnapshot reply;
      reply.lsn = batch.last_lsn;
      reply.payload = std::move(batch.payload);
      reply.epoch = batch.epoch;
      return reply;
    }
    ReplAppend reply;
    reply.first_lsn = batch.first_lsn;
    reply.last_lsn = batch.last_lsn;
    reply.payload = std::move(batch.payload);
    reply.epoch = batch.epoch;
    return reply;
  }
  if (const auto* m = std::get_if<ReplAck>(&request)) {
    ReplicationSource* source =
        replication_.load(std::memory_order_acquire);
    if (source != nullptr) source->note_ack(m->applied_lsn);
    return ReplAckReply{};
  }
  if (std::get_if<ElectionPing>(&request) != nullptr) {
    // A running primary answers election pings as an already-promoted rank-0
    // contestant: any standby probing it stands down immediately.
    ElectionAck ack;
    ack.epoch = epoch_.load(std::memory_order_acquire);
    ack.rank = 0;
    ack.promoted = true;
    return ack;
  }
  return ErrorReply{ErrorCode::kProtocolError,
                    std::string("unhandled request: ") +
                        wire::msg_type_name(message_type(request))};
}

Status TcpExecutorHarness::Link::connect(const std::string& host,
                                         std::uint16_t rpc_port,
                                         fault::FaultInjector* fault,
                                         obs::Obs* obs) {
  std::lock_guard lock(mu_);
  host_ = host;
  rpc_port_ = rpc_port;
  fault_ = fault;
  obs_ = obs;
  return dial_locked();
}

void TcpExecutorHarness::Link::close() {
  std::lock_guard lock(mu_);
  rpc_.reset();
}

Status TcpExecutorHarness::Link::dial_locked() {
  net::RpcClient::PushHandler on_push;
  if (on_notify_) {
    on_push = [on_notify = on_notify_](wire::Message message) {
      if (const auto* notify = std::get_if<wire::Notify>(&message)) {
        on_notify(notify->resource_key);
      }
    };
  }
  auto client = net::RpcClient::connect(host_, rpc_port_, fault_, obs_,
                                        std::move(on_push));
  if (!client.ok()) return client.error();
  rpc_ = std::make_unique<net::RpcClient>(client.take());
  if (subscribed_id_ != 0) {
    // An application error (the dispatcher no longer knows the id) is left
    // for the request that follows to surface: it triggers re-registration,
    // which subscribes the new id.
    auto reply = call_locked(wire::Notify{ExecutorId{subscribed_id_}, 0});
    if (!reply.ok() && rpc_ == nullptr) return reply.error();
  }
  return ok_status();
}

Result<wire::Message> TcpExecutorHarness::Link::roundtrip(
    const wire::Message& request) {
  std::lock_guard lock(mu_);
  if (rpc_ == nullptr) {
    if (auto status = dial_locked(); !status.ok()) return status.error();
  }
  return call_locked(request);
}

Result<wire::Message> TcpExecutorHarness::Link::call_locked(
    const wire::Message& request) {
  auto reply = rpc_->call(request);
  if (!reply.ok()) {
    const ErrorCode code = reply.error().code;
    if (code == ErrorCode::kIoError || code == ErrorCode::kClosed ||
        code == ErrorCode::kProtocolError || code == ErrorCode::kUnavailable) {
      // Transport-level failure: the stream may be desynchronised or dead.
      // Drop the connection so the next attempt dials fresh.
      rpc_.reset();
    }
  }
  return reply;
}

Result<ExecutorId> TcpExecutorHarness::Link::register_executor(
    const wire::RegisterRequest& request) {
  wire::RegisterRequest stamped = request;
  if (data_ != nullptr) {
    // Seed the dispatcher's cache mirror in the registration itself so a
    // warm executor (or one re-registering on a promoted standby) attracts
    // locality routes from its very first get-work.
    stamped.data_port = data_->port();
    stamped.cached = data_->digest().objects;
    sent_digest_generation_.store(~0ull, std::memory_order_release);
  }
  auto reply = expect<wire::RegisterReply>(roundtrip(stamped));
  if (!reply.ok()) return reply.error();
  epoch_.store(reply.value().epoch, std::memory_order_release);
  const ExecutorId id = reply.value().executor_id;
  if (on_notify_) {
    {
      std::lock_guard lock(mu_);
      subscribed_id_ = id.value;
    }
    // Not fatal when it fails: a lost connection resubscribes on the next
    // dial, and an id the dispatcher forgot re-registers.
    (void)roundtrip(wire::Notify{id, 0});
  }
  return id;
}

Result<std::vector<TaskSpec>> TcpExecutorHarness::Link::get_work(
    ExecutorId executor, std::uint32_t max_tasks) {
  wire::GetWorkRequest request;
  request.executor_id = executor;
  request.max_tasks = max_tasks;
  auto reply = expect<wire::GetWorkReply>(roundtrip(request));
  if (!reply.ok()) return reply.error();
  return std::move(reply.value().tasks);
}

Result<std::vector<TaskSpec>> TcpExecutorHarness::Link::deliver_results(
    ExecutorId executor, std::vector<TaskResult> results,
    std::uint32_t want_tasks) {
  wire::ResultBundle request;
  request.executor_id = executor;
  {
    std::lock_guard lock(mu_);
    request.ack_seq = last_bundle_seq_;
  }
  request.results = std::move(results);
  request.want_tasks = want_tasks;
  auto reply = expect<wire::TaskBundle>(roundtrip(request));
  if (!reply.ok()) return reply.error();
  if (reply.value().bundle_seq != 0) {
    std::lock_guard lock(mu_);
    last_bundle_seq_ = reply.value().bundle_seq;
  }
  return std::move(reply.value().tasks);
}

Status TcpExecutorHarness::Link::deregister(ExecutorId executor,
                                            const std::string& reason) {
  wire::DeregisterRequest request;
  request.executor_id = executor;
  request.reason = reason;
  auto reply = expect<wire::DeregisterReply>(roundtrip(request));
  if (!reply.ok()) return reply.error();
  return ok_status();
}

Status TcpExecutorHarness::Link::heartbeat(ExecutorId executor) {
  wire::HeartbeatRequest request;
  request.executor_id = executor;
  std::uint64_t digest_generation = 0;
  if (data_ != nullptr) {
    // Incremental eviction notices first: a kDataEvict must land before the
    // dispatcher's next routing decision even when the digest below is
    // skipped as unchanged. kNotFound (already gone upstream) is fine.
    for (auto& object : data_->take_evict_notices()) {
      wire::DataEvict evict;
      evict.executor_id = executor;
      evict.object = std::move(object);
      (void)roundtrip(evict);
    }
    auto digest = data_->digest();
    digest_generation = digest.generation;
    if (digest_generation !=
        sent_digest_generation_.load(std::memory_order_acquire)) {
      request.has_digest = true;
      request.digest_generation = digest_generation;
      request.data_port = data_->port();
      request.cached = std::move(digest.objects);
    }
  }
  auto reply = expect<wire::HeartbeatReply>(roundtrip(request));
  if (!reply.ok()) return reply.error();
  if (request.has_digest) {
    sent_digest_generation_.store(digest_generation, std::memory_order_release);
  }
  return ok_status();
}

TcpExecutorHarness::TcpExecutorHarness(Clock& clock, std::string host,
                                       std::uint16_t rpc_port,
                                       std::uint16_t /*push_port*/,
                                       std::unique_ptr<TaskEngine> engine,
                                       ExecutorOptions options)
    : clock_(clock),
      host_(std::move(host)),
      rpc_port_(rpc_port),
      options_(options),
      engine_(std::move(engine)) {
  runtime_ = std::make_unique<ExecutorRuntime>(clock_, link_, *engine_,
                                               options_);
}

TcpExecutorHarness::~TcpExecutorHarness() { stop(); }

Status TcpExecutorHarness::start() {
  if (options_.data != nullptr) {
    // Bring the peer-to-peer fetch server up before registering: the
    // registration advertises its port, so it must already be listening.
    if (auto status = options_.data->start(); !status.ok()) return status;
    link_.set_data(options_.data);
  }
  if (options_.poll_interval_s <= 0) {
    // Push mode: pushed Notify frames wake the runtime. Polling (firewall-
    // bypass) mode subscribes to nothing, so nothing is ever pushed to it.
    link_.set_notify_handler([this](std::uint64_t resource_key) {
      runtime_->notify(resource_key);
    });
  }
  if (auto status = link_.connect(host_, rpc_port_, options_.fault,
                                  options_.obs);
      !status.ok()) {
    return status;
  }
  return runtime_->start();
}

void TcpExecutorHarness::stop() {
  if (runtime_) runtime_->stop();
  link_.close();
}

TcpDispatcherClient::TcpDispatcherClient(bool stream_results)
    : stream_results_(stream_results),
      streams_([this](const wire::SubscribeResults& request) {
        return expect<wire::ResultStream>(rpc_->call(request)).ok();
      }) {}

Result<std::unique_ptr<TcpDispatcherClient>> TcpDispatcherClient::connect(
    const std::string& host, std::uint16_t rpc_port, std::uint16_t push_port) {
  std::unique_ptr<TcpDispatcherClient> client(
      new TcpDispatcherClient(push_port != 0));
  net::RpcClient::PushHandler on_push;
  if (client->stream_results_) {
    on_push = [streams = &client->streams_](wire::Message message) {
      streams->on_frame(std::move(message));
    };
  }
  auto rpc = net::RpcClient::connect(host, rpc_port, nullptr, nullptr,
                                     std::move(on_push));
  if (!rpc.ok()) return rpc.error();
  client->rpc_ = std::make_unique<net::RpcClient>(rpc.take());
  return client;
}

Result<InstanceId> TcpDispatcherClient::create_instance(ClientId client) {
  wire::CreateInstanceRequest request;
  request.client_id = client;
  auto reply = expect<wire::CreateInstanceReply>(rpc_->call(request));
  if (!reply.ok()) return reply.error();
  const InstanceId instance = reply.value().instance_id;
  // Streaming regime: a failed subscription is absorbed — the instance
  // simply stays in polling mode.
  if (stream_results_) (void)streams_.open(instance);
  return instance;
}

Result<std::vector<TaskResult>> TcpDispatcherClient::wait_streamed(
    InstanceId instance, std::uint32_t max_results, double timeout_s) {
  auto out = streams_.drain(instance, max_results, timeout_s);
  if (!out.empty()) return out;
  // Nothing pushed within the timeout: one-shot poll. This is the lossy-
  // channel fallback — the dispatcher hands back its streamed-but-unacked
  // prefix (the filter drops what was already handed out) and re-arms its
  // drain for anything left.
  wire::WaitResultsRequest request;
  request.instance_id = instance;
  request.max_results = max_results;
  request.timeout_s = 0;
  auto reply = expect<wire::WaitResultsReply>(rpc_->call(request));
  if (!reply.ok()) return reply.error();
  return streams_.filter(instance, std::move(reply.value().results));
}

Result<std::uint64_t> TcpDispatcherClient::submit(InstanceId instance,
                                                  std::vector<TaskSpec> tasks) {
  wire::SubmitRequest request;
  request.instance_id = instance;
  request.tasks = std::move(tasks);
  auto reply = expect<wire::SubmitReply>(rpc_->call(request));
  if (!reply.ok()) return reply.error();
  return reply.value().accepted;
}

Result<std::vector<TaskResult>> TcpDispatcherClient::wait_results(
    InstanceId instance, std::uint32_t max_results, double timeout_s) {
  if (streams_.contains(instance)) {
    return wait_streamed(instance, max_results, timeout_s);
  }
  wire::WaitResultsRequest request;
  request.instance_id = instance;
  request.max_results = max_results;
  request.timeout_s = timeout_s;
  auto reply = expect<wire::WaitResultsReply>(rpc_->call(request));
  if (!reply.ok()) return reply.error();
  return std::move(reply.value().results);
}

Status TcpDispatcherClient::destroy_instance(InstanceId instance) {
  streams_.close(instance);
  wire::DestroyInstanceRequest request;
  request.instance_id = instance;
  auto reply = expect<wire::DestroyInstanceReply>(rpc_->call(request));
  if (!reply.ok()) return reply.error();
  return ok_status();
}

Result<DispatcherStatus> TcpDispatcherClient::status() {
  auto reply = expect<wire::StatusReply>(rpc_->call(wire::StatusRequest{}));
  if (!reply.ok()) return reply.error();
  DispatcherStatus status;
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

}  // namespace falkon::core
