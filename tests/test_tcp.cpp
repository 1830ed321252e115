// End-to-end tests over real TCP on loopback: dispatcher server, remote
// executors (RPC pull + push notifications), and remote client. All servers
// bind port 0 (ephemeral), so the binary is safe under parallel ctest.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/client.h"
#include "core/service_tcp.h"
#include "fault/fault.h"
#include "net/rpc.h"
#include "obs/obs.h"

namespace falkon::core {
namespace {

std::vector<TaskSpec> sleep_tasks(int count) {
  std::vector<TaskSpec> tasks;
  for (int i = 1; i <= count; ++i) {
    tasks.push_back(make_sleep_task(TaskId{static_cast<std::uint64_t>(i)}, 0.0));
  }
  return tasks;
}

class TcpStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dispatcher_ = std::make_unique<Dispatcher>(clock_, DispatcherConfig{});
    server_ = std::make_unique<TcpDispatcherServer>(*dispatcher_);
    ASSERT_TRUE(server_->start().ok());
  }

  void TearDown() override {
    executors_.clear();
    server_->stop();
  }

  void add_executor(ExecutorOptions options = {}) {
    auto harness = std::make_unique<TcpExecutorHarness>(
        clock_, "127.0.0.1", server_->rpc_port(), server_->push_port(),
        std::make_unique<NoopEngine>(), options);
    ASSERT_TRUE(harness->start().ok());
    executors_.push_back(std::move(harness));
  }

  RealClock clock_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<TcpDispatcherServer> server_;
  std::vector<std::unique_ptr<TcpExecutorHarness>> executors_;
};

TEST_F(TcpStackTest, RemoteClientRoundtrip) {
  add_executor();
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());

  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(20), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 20u);
  for (const auto& result : results.value()) EXPECT_TRUE(result.success());
}

TEST_F(TcpStackTest, MultipleRemoteExecutors) {
  for (int i = 0; i < 4; ++i) add_executor();
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  auto status = client.value()->status();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().registered_executors, 4u);

  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(200), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  std::set<std::uint64_t> ids;
  for (const auto& result : results.value()) ids.insert(result.task_id.value);
  EXPECT_EQ(ids.size(), 200u);
}

TEST_F(TcpStackTest, WorkSubmittedBeforeExecutorArrives) {
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->submit(sleep_tasks(10)).ok());

  // No executor yet: nothing completes.
  auto early = session.value()->wait(1, 0.1);
  EXPECT_FALSE(early.ok());

  add_executor();  // registration triggers notification pump
  auto results = session.value()->wait(10, 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 10u);
}

TEST_F(TcpStackTest, ExecutorIdleTimeoutDeregistersOverTcp) {
  ExecutorOptions options;
  options.idle_timeout_s = 0.05;
  add_executor(options);
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 200; ++i) {
    auto status = client.value()->status();
    ASSERT_TRUE(status.ok());
    if (status.value().registered_executors == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto status = client.value()->status();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().registered_executors, 0u);
}

TEST_F(TcpStackTest, ErrorsPropagateToRemoteClient) {
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  auto bogus = client.value()->submit(InstanceId{999}, sleep_tasks(1));
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.error().code, ErrorCode::kNotFound);
}

TEST_F(TcpStackTest, PollingModeExecutorNeedsNoPushChannel) {
  // Firewall-bypass mode (paper section 6): executor makes only outbound
  // RPC calls — it never subscribes on the notification port.
  ExecutorOptions options;
  options.poll_interval_s = 0.01;
  add_executor(options);
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(30), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 30u);
}

TEST_F(TcpStackTest, PollingModeIdleTimeoutStillReleases) {
  ExecutorOptions options;
  options.poll_interval_s = 0.01;
  options.idle_timeout_s = 0.06;
  add_executor(options);
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 200; ++i) {
    auto status = client.value()->status();
    ASSERT_TRUE(status.ok());
    if (status.value().registered_executors == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto status = client.value()->status();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().registered_executors, 0u);
}

TEST_F(TcpStackTest, ServerStopSurvivesActiveExecutors) {
  add_executor();
  add_executor();
  // Tear-down order in TearDown() stops executors before the server; this
  // test instead stops the server first and expects no crash/hang.
  server_->stop();
  executors_.clear();
  SUCCEED();
}

// ---- wire-level bundle-path regressions ------------------------------
//
// These speak the protocol with a raw net::RpcClient instead of the
// harness, so they can act as misbehaving or down-level peers.

namespace {

/// Raw call that must produce a reply of type `Expected`.
template <class Expected>
Expected call_expect(net::RpcClient& rpc, const wire::Message& request) {
  auto reply = rpc.call(request);
  EXPECT_TRUE(reply.ok()) << reply.error().str();
  if (!reply.ok()) return Expected{};
  auto* payload = std::get_if<Expected>(&reply.value());
  EXPECT_NE(payload, nullptr)
      << "unexpected reply: " << wire::debug_summary(reply.value());
  if (payload == nullptr) return Expected{};
  return std::move(*payload);
}

}  // namespace

TEST(TcpBundleRegression, BundleSeqRetiredWhenExecutorCrashesMidBundle) {
  // An executor that takes a numbered TaskBundle and dies before echoing
  // the ack must not leak its bundle_seq: the failure detector's removal
  // path (ExecutorSink::on_removed -> release_executor) settles it, so
  // pending_bundles drains to zero and issued == retired.
  RealClock clock;
  obs::Obs obs{obs::ObsConfig{}};
  DispatcherConfig config;
  config.piggyback = true;
  config.heartbeat_timeout_s = 0.05;  // detector run manually below
  Dispatcher dispatcher(clock, config);
  TcpDispatcherServer server(dispatcher, &obs);
  ASSERT_TRUE(server.start().ok());

  auto raw = net::RpcClient::connect("127.0.0.1", server.rpc_port());
  ASSERT_TRUE(raw.ok());

  wire::RegisterRequest reg;
  reg.node_id = NodeId{1};
  reg.host = "crash-peer";
  const ExecutorId executor =
      call_expect<wire::RegisterReply>(raw.value(), reg).executor_id;
  ASSERT_NE(executor.value, 0u);

  const InstanceId instance =
      call_expect<wire::CreateInstanceReply>(
          raw.value(), wire::CreateInstanceRequest{ClientId{1}})
          .instance_id;
  wire::SubmitRequest submit;
  submit.instance_id = instance;
  submit.tasks = sleep_tasks(4);
  call_expect<wire::SubmitReply>(raw.value(), submit);

  // Pull a numbered bundle (empty delivery, want-tasks piggyback) and then
  // crash without ever acknowledging it.
  wire::ResultBundle pull;
  pull.executor_id = executor;
  pull.want_tasks = 4;
  const wire::TaskBundle bundle =
      call_expect<wire::TaskBundle>(raw.value(), pull);
  ASSERT_FALSE(bundle.tasks.empty());
  EXPECT_NE(bundle.bundle_seq, 0u);

  obs::Registry& reg_metrics = obs.registry();
  EXPECT_EQ(reg_metrics.gauge("falkon.net.rpc.pending_bundles").value(), 1.0);
  EXPECT_EQ(reg_metrics.counter("falkon.net.rpc.bundles_issued").value(), 1u);
  EXPECT_EQ(reg_metrics.counter("falkon.net.rpc.bundles_retired").value(), 0u);

  raw.value().close();  // crash: no ack, no deregister
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    dispatcher.check_liveness();
    if (dispatcher.status().registered_executors == 0) break;
  }
  EXPECT_EQ(dispatcher.status().registered_executors, 0u);

  // Removal settled the outstanding seq; its tasks are back in the queue.
  EXPECT_EQ(reg_metrics.gauge("falkon.net.rpc.pending_bundles").value(), 0.0);
  EXPECT_EQ(reg_metrics.counter("falkon.net.rpc.bundles_retired").value(),
            reg_metrics.counter("falkon.net.rpc.bundles_issued").value());
  EXPECT_EQ(dispatcher.status().queued, 4u);

  server.stop();
  dispatcher.shutdown();
}

TEST(TcpBundleRegression, AdaptiveSentinelsServeV0NonBundlingPeer) {
  // A down-level executor that never learned TaskBundle/ResultBundle can
  // still request adaptive sizing: max_tasks = kAdaptiveBundle on a legacy
  // GetWorkRequest and want_tasks = kAdaptiveWant on a legacy ResultRequest
  // must yield work, and the legacy exchange must never issue bundle_seqs.
  RealClock clock;
  obs::Obs obs{obs::ObsConfig{}};
  DispatcherConfig config;
  config.piggyback = true;
  Dispatcher dispatcher(clock, config);
  TcpDispatcherServer server(dispatcher, &obs);
  ASSERT_TRUE(server.start().ok());

  auto raw = net::RpcClient::connect("127.0.0.1", server.rpc_port());
  ASSERT_TRUE(raw.ok());

  wire::RegisterRequest reg;
  reg.node_id = NodeId{7};
  reg.host = "v0-peer";
  const ExecutorId executor =
      call_expect<wire::RegisterReply>(raw.value(), reg).executor_id;

  const InstanceId instance =
      call_expect<wire::CreateInstanceReply>(
          raw.value(), wire::CreateInstanceRequest{ClientId{1}})
          .instance_id;
  constexpr int kTasks = 12;
  wire::SubmitRequest submit;
  submit.instance_id = instance;
  submit.tasks = sleep_tasks(kTasks);
  call_expect<wire::SubmitReply>(raw.value(), submit);

  wire::GetWorkRequest get_work;
  get_work.executor_id = executor;
  get_work.max_tasks = wire::kAdaptiveBundle;  // sentinel, not literal zero
  std::vector<TaskSpec> pending =
      call_expect<wire::GetWorkReply>(raw.value(), get_work).tasks;
  ASSERT_FALSE(pending.empty());

  std::set<std::uint64_t> done;
  while (!pending.empty()) {
    wire::ResultRequest deliver;
    deliver.executor_id = executor;
    deliver.want_tasks = wire::kAdaptiveWant;
    for (const TaskSpec& spec : pending) {
      TaskResult result;
      result.task_id = spec.id;
      result.executor_id = executor;
      deliver.results.push_back(std::move(result));
      done.insert(spec.id.value);
    }
    const wire::ResultReply reply =
        call_expect<wire::ResultReply>(raw.value(), deliver);
    EXPECT_EQ(reply.acknowledged, deliver.results.size());
    pending = reply.piggyback_tasks;
    if (pending.empty() && done.size() < static_cast<std::size_t>(kTasks)) {
      // Adaptive piggyback may momentarily come back empty; pull again.
      pending = call_expect<wire::GetWorkReply>(raw.value(), get_work).tasks;
    }
  }
  EXPECT_EQ(done.size(), static_cast<std::size_t>(kTasks));
  EXPECT_EQ(dispatcher.status().completed, static_cast<std::uint64_t>(kTasks));

  // The v0 exchange carries no sequence numbers, so the bundle ledger must
  // stay untouched.
  obs::Registry& reg_metrics = obs.registry();
  EXPECT_EQ(reg_metrics.counter("falkon.net.rpc.bundles_issued").value(), 0u);
  EXPECT_EQ(reg_metrics.gauge("falkon.net.rpc.pending_bundles").value(), 0.0);

  wire::WaitResultsRequest wait;
  wait.instance_id = instance;
  wait.max_results = 64;
  wait.timeout_s = 5.0;
  const wire::WaitResultsReply results =
      call_expect<wire::WaitResultsReply>(raw.value(), wait);
  EXPECT_EQ(results.results.size(), static_cast<std::size_t>(kTasks));

  server.stop();
  dispatcher.shutdown();
}

// ---- push-mode result streaming ---------------------------------------

TEST_F(TcpStackTest, StreamingClientReceivesResultsExactlyOnce) {
  add_executor();
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port(),
                                             server_->push_port());
  ASSERT_TRUE(client.ok());
  auto instance = client.value()->create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  // The third connect argument subscribed the instance on the push channel.
  EXPECT_TRUE(client.value()->streaming(instance.value()));

  ASSERT_TRUE(client.value()->submit(instance.value(), sleep_tasks(50)).ok());
  std::set<std::uint64_t> ids;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ids.size() < 50 && std::chrono::steady_clock::now() < deadline) {
    auto batch = client.value()->wait_results(instance.value(), 64, 0.5);
    ASSERT_TRUE(batch.ok()) << batch.error().str();
    for (const auto& result : batch.value()) {
      EXPECT_TRUE(ids.insert(result.task_id.value).second)
          << "duplicate task " << result.task_id.value;
    }
  }
  EXPECT_EQ(ids.size(), 50u);
  EXPECT_TRUE(client.value()->streaming(instance.value()));
  EXPECT_TRUE(client.value()->destroy_instance(instance.value()).ok());
}

std::set<std::string> thread_ids() {
  std::set<std::string> ids;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(entry.path().filename().string());
  }
  return ids;
}

// A streaming instance's results are read on a thread the client keeps:
// instances created and destroyed one after another reuse it, so each
// session starts no thread of its own.
TEST_F(TcpStackTest, StreamingInstancesReuseOneReaderThread) {
  add_executor();
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port(),
                                             server_->push_port());
  ASSERT_TRUE(client.ok());
  std::set<std::string> first_round;
  for (int round = 0; round < 5; ++round) {
    auto instance = client.value()->create_instance(ClientId{1});
    ASSERT_TRUE(instance.ok());
    ASSERT_TRUE(client.value()->streaming(instance.value()));
    ASSERT_TRUE(client.value()->submit(instance.value(), sleep_tasks(10)).ok());
    std::size_t received = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (received < 10 && std::chrono::steady_clock::now() < deadline) {
      auto batch = client.value()->wait_results(instance.value(), 64, 0.5);
      ASSERT_TRUE(batch.ok()) << batch.error().str();
      received += batch.value().size();
    }
    EXPECT_EQ(received, 10u) << "round " << round;
    if (round == 0) {
      first_round = thread_ids();
    } else {
      EXPECT_EQ(thread_ids(), first_round) << "round " << round;
    }
    ASSERT_TRUE(client.value()->destroy_instance(instance.value()).ok());
  }
}

TEST_F(TcpStackTest, StreamingSessionRunCompletes) {
  for (int i = 0; i < 2; ++i) add_executor();
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port(),
                                             server_->push_port());
  ASSERT_TRUE(client.ok());
  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(200), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  std::set<std::uint64_t> ids;
  for (const auto& result : results.value()) ids.insert(result.task_id.value);
  EXPECT_EQ(ids.size(), 200u);
}

TEST(TcpStreamingFault, DroppedPushFramesFallBackToPolling) {
  // Every frame leaving the push server silently vanishes (kDrop returns
  // ok to the dispatcher, so its cursor advances as if streaming worked).
  // Results must still arrive exactly once through the wait_results
  // firewall fallback: un-acked results never leave the mailbox.
  RealClock clock;
  fault::FaultPlan plan;
  plan.with(fault::Site::kPushFrame, fault::Action::kDrop, 1.0);
  fault::FaultInjector fault(plan);
  Dispatcher dispatcher(clock, DispatcherConfig{});
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start(0, 0, &fault).ok());
  // Polling-mode executor: the lossy push channel must only starve the
  // client's stream, not the executor's work notifications.
  ExecutorOptions options;
  options.poll_interval_s = 0.01;
  TcpExecutorHarness harness(clock, "127.0.0.1", server.rpc_port(),
                             server.push_port(),
                             std::make_unique<NoopEngine>(), options);
  ASSERT_TRUE(harness.start().ok());

  auto client = TcpDispatcherClient::connect("127.0.0.1", server.rpc_port(),
                                             server.push_port());
  ASSERT_TRUE(client.ok());
  auto instance = client.value()->create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(client.value()->submit(instance.value(), sleep_tasks(20)).ok());

  std::set<std::uint64_t> ids;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ids.size() < 20 && std::chrono::steady_clock::now() < deadline) {
    auto batch = client.value()->wait_results(instance.value(), 64, 0.2);
    ASSERT_TRUE(batch.ok()) << batch.error().str();
    for (const auto& result : batch.value()) {
      EXPECT_TRUE(ids.insert(result.task_id.value).second)
          << "duplicate task " << result.task_id.value;
    }
  }
  EXPECT_EQ(ids.size(), 20u);
  EXPECT_GT(fault.stats(fault::Site::kPushFrame).injected, 0u);

  harness.stop();
  server.stop();
  dispatcher.shutdown();
}

// ---- SO_REUSEPORT accept mode -----------------------------------------

TEST(TcpReuseport, FullStackServesFromKernelBalancedListeners) {
  RealClock clock;
  Dispatcher dispatcher(clock, DispatcherConfig{});
  TcpDispatcherServer server(dispatcher, nullptr, /*reactor_loops=*/2,
                             /*reuseport=*/true);
  ASSERT_TRUE(server.start().ok());
  ASSERT_GE(server.reactor().n_loops(), 2);

  std::vector<std::unique_ptr<TcpExecutorHarness>> pool;
  for (int e = 0; e < 4; ++e) {
    auto harness = std::make_unique<TcpExecutorHarness>(
        clock, "127.0.0.1", server.rpc_port(), server.push_port(),
        std::make_unique<NoopEngine>(), ExecutorOptions{});
    ASSERT_TRUE(harness->start().ok());
    pool.push_back(std::move(harness));
  }
  auto client = TcpDispatcherClient::connect("127.0.0.1", server.rpc_port(),
                                             server.push_port());
  ASSERT_TRUE(client.ok());
  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(200), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  std::set<std::uint64_t> ids;
  for (const auto& result : results.value()) ids.insert(result.task_id.value);
  EXPECT_EQ(ids.size(), 200u);

  pool.clear();
  server.stop();
  dispatcher.shutdown();
}

// ---- which handlers run on the reactor loop -----------------------------

/// Milliseconds a raw call takes; the reply must be of type `Expected`.
template <class Expected>
double call_ms(net::RpcClient& rpc, const wire::Message& request) {
  const auto start = std::chrono::steady_clock::now();
  (void)call_expect<Expected>(rpc, request);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Register one executor and create one client instance over `rpc`.
std::pair<ExecutorId, InstanceId> register_and_create(net::RpcClient& rpc) {
  wire::RegisterRequest reg;
  reg.host = "loop-test";
  const ExecutorId executor =
      call_expect<wire::RegisterReply>(rpc, reg).executor_id;
  const InstanceId instance =
      call_expect<wire::CreateInstanceReply>(
          rpc, wire::CreateInstanceRequest{ClientId{1}})
          .instance_id;
  return {executor, instance};
}

TEST(TcpLoopHandlers, BlockedWaitResultsDoesNotDelayLoopRequests) {
  // One reactor loop serves every connection: were the blocking
  // wait_results handled on it, the other connection's small requests
  // would queue behind it for the whole timeout.
  RealClock clock;
  Dispatcher dispatcher(clock, DispatcherConfig{});
  TcpDispatcherServer server(dispatcher, nullptr, /*reactor_loops=*/1);
  ASSERT_TRUE(server.start().ok());
  ASSERT_EQ(server.reactor().n_loops(), 1);
  auto waiter = net::RpcClient::connect("127.0.0.1", server.rpc_port());
  auto other = net::RpcClient::connect("127.0.0.1", server.rpc_port());
  ASSERT_TRUE(waiter.ok());
  ASSERT_TRUE(other.ok());

  const auto [executor, instance] = register_and_create(other.value());

  std::atomic<bool> wait_done{false};
  std::thread blocked([&] {
    wire::WaitResultsRequest wait;
    wait.instance_id = instance;
    wait.max_results = 1;
    wait.timeout_s = 1.0;
    const double ms = call_ms<wire::WaitResultsReply>(waiter.value(), wait);
    EXPECT_GT(ms, 900.0);
    wait_done.store(true);
  });
  // Let the wait reach its handler before racing it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  wire::GetWorkRequest get_work;
  get_work.executor_id = executor;
  get_work.max_tasks = 1;
  EXPECT_LT(call_ms<wire::GetWorkReply>(other.value(), get_work), 100.0);
  wire::HeartbeatRequest heartbeat;
  heartbeat.executor_id = executor;
  EXPECT_LT(call_ms<wire::HeartbeatReply>(other.value(), heartbeat), 100.0);
  wire::SubmitRequest submit;
  submit.instance_id = instance;
  submit.tasks = sleep_tasks(1);
  EXPECT_LT(call_ms<wire::SubmitReply>(other.value(), submit), 100.0);
  EXPECT_FALSE(wait_done.load()) << "the wait ended before the race ran";

  blocked.join();
  server.stop();
  dispatcher.shutdown();
}

/// A journal whose durability barrier takes 300 ms, as a slow disk would.
struct SlowBarrierJournal final : StateJournal {
  void on_instance_created(InstanceId, ClientId) override {}
  void on_instance_destroyed(InstanceId) override {}
  void on_submit(InstanceId, std::uint64_t,
                 const std::vector<TaskSpec>&) override {}
  void on_assign(ExecutorId, const std::vector<TaskId>&) override {}
  void on_requeue(const std::vector<TaskId>&, bool) override {}
  void on_complete(InstanceId, const TaskResult&, bool) override {}
  void on_delivered(InstanceId, const std::vector<TaskId>&) override {}
  void barrier() override {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  }
};

TEST(TcpLoopHandlers, JournaledSubmitRunsOnThePool) {
  // With a journal, submit waits in barrier(); a heartbeat sent meanwhile
  // on another connection must not queue behind it on the single loop.
  SlowBarrierJournal journal;
  RealClock clock;
  DispatcherConfig config;
  config.journal = &journal;
  Dispatcher dispatcher(clock, config);
  TcpDispatcherServer server(dispatcher, nullptr, /*reactor_loops=*/1);
  ASSERT_TRUE(server.start().ok());
  auto submitter = net::RpcClient::connect("127.0.0.1", server.rpc_port());
  auto other = net::RpcClient::connect("127.0.0.1", server.rpc_port());
  ASSERT_TRUE(submitter.ok());
  ASSERT_TRUE(other.ok());

  const auto [executor, instance] = register_and_create(other.value());

  std::atomic<bool> submit_done{false};
  std::thread submitting([&] {
    wire::SubmitRequest submit;
    submit.instance_id = instance;
    submit.tasks = sleep_tasks(1);
    EXPECT_GT(call_ms<wire::SubmitReply>(submitter.value(), submit), 250.0);
    submit_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  wire::HeartbeatRequest heartbeat;
  heartbeat.executor_id = executor;
  EXPECT_LT(call_ms<wire::HeartbeatReply>(other.value(), heartbeat), 100.0);
  EXPECT_FALSE(submit_done.load()) << "the submit ended before the race ran";

  submitting.join();
  server.stop();
  dispatcher.shutdown();
}

}  // namespace
}  // namespace falkon::core
