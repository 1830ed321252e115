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
  // RPC calls — it never subscribes for pushed notifications.
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
  // The nonzero third connect argument subscribed the instance for pushes.
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

// A streaming instance's results are read by the client's RPC reader
// thread: instances created and destroyed one after another start no
// thread of their own.
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
  // Every pushed frame silently vanishes (kDrop returns
  // ok to the dispatcher, so its cursor advances as if streaming worked).
  // Results must still arrive exactly once through the wait_results
  // firewall fallback: un-acked results never leave the mailbox.
  RealClock clock;
  fault::FaultPlan plan;
  plan.with(fault::Site::kPushFrame, fault::Action::kDrop, 1.0);
  fault::FaultInjector fault(plan);
  Dispatcher dispatcher(clock, DispatcherConfig{});
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start(0, &fault).ok());
  // Polling-mode executor: the lossy pushes must only starve the
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


// ---- one connection per peer -------------------------------------------
//
// Notify and ResultStream frames are pushed on the peer's RPC connection;
// a peer subscribes with a request on that connection, and the binding
// ends with the connection, the executor or the instance.

/// Poll `done` every 5 ms for up to `seconds`.
template <class Done>
bool eventually(Done done, double seconds = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// Submit `count` tasks on a polling client and wait for all results.
std::size_t run_polled(std::uint16_t port, int count) {
  auto client = TcpDispatcherClient::connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok());
  if (!client.ok()) return 0;
  auto session = FalkonSession::open(*client.value(), ClientId{1});
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return 0;
  auto results = session.value()->run(sleep_tasks(count), 20.0);
  EXPECT_TRUE(results.ok()) << results.error().str();
  return results.ok() ? results.value().size() : 0;
}

TEST(TcpPushChannel, ExecutorResubscribesWhenItsLinkReconnects) {
  // The executor's third request (its first get-work, after register and
  // subscribe) severs the connection. The link must dial again and
  // subscribe on the new connection: with no idle probe and no poll, a
  // Notify pushed there is the only thing that can wake it for new work.
  RealClock clock;
  Dispatcher dispatcher(clock, DispatcherConfig{});
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start().ok());
  fault::FaultPlan plan;
  plan.at(fault::Site::kRpcRequest, fault::Action::kDrop, 3);
  fault::FaultInjector fault(plan);
  ExecutorOptions options;
  options.takeover_probe_s = 0;
  options.link_retries = 5;
  options.backoff.base_s = 0.01;
  options.fault = &fault;
  TcpExecutorHarness harness(clock, "127.0.0.1", server.rpc_port(),
                             server.push_port(),
                             std::make_unique<NoopEngine>(), options);
  ASSERT_TRUE(harness.start().ok());
  ASSERT_TRUE(eventually([&] {
    return fault.stats(fault::Site::kRpcRequest).injected == 1 &&
           harness.runtime().stats().link_retries >= 1;
  }));
  // The old connection is gone and the executor is bound on the new one.
  ASSERT_TRUE(eventually([&] {
    return server.rpc_server().active_connections() == 1 &&
           server.rpc_server().bound_keys() == 1;
  }));

  EXPECT_EQ(run_polled(server.rpc_port(), 5), 5u);
  EXPECT_GE(harness.runtime().stats().notifications, 1u);
  EXPECT_EQ(harness.runtime().stats().reregistrations, 0u);

  harness.stop();
  server.stop();
  dispatcher.shutdown();
}

TEST(TcpPushChannel, PollingExecutorIsNeverPushedTo) {
  // Firewall mode subscribes to nothing: neither work notifications nor a
  // release request reach a polling executor, so it pulls its work and
  // ignores the release (the pull series of bench_ablation_pushpull).
  RealClock clock;
  Dispatcher dispatcher(clock, DispatcherConfig{});
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start().ok());
  ExecutorOptions options;
  options.poll_interval_s = 0.01;
  TcpExecutorHarness harness(clock, "127.0.0.1", server.rpc_port(),
                             server.push_port(),
                             std::make_unique<NoopEngine>(), options);
  ASSERT_TRUE(harness.start().ok());

  EXPECT_EQ(run_polled(server.rpc_port(), 20), 20u);
  EXPECT_EQ(dispatcher.request_release(1).size(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(server.rpc_server().bound_keys(), 0u);
  EXPECT_EQ(harness.runtime().stats().notifications, 0u);
  EXPECT_TRUE(harness.runtime().running());

  harness.stop();
  server.stop();
  dispatcher.shutdown();
}

TEST(TcpPushChannel, BindingsEndWithInstanceAndExecutor) {
  // The key-binding table returns to its starting size after streaming
  // sessions come and go on one client, and after the failure detector
  // evicts a subscribed executor — whose connection stays open.
  RealClock clock;
  DispatcherConfig config;
  config.heartbeat_timeout_s = 0.3;
  config.sweep_interval_s = 0.05;
  Dispatcher dispatcher(clock, config);
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start().ok());
  ExecutorOptions options;
  options.heartbeat_interval_s = 0.05;
  TcpExecutorHarness harness(clock, "127.0.0.1", server.rpc_port(),
                             server.push_port(),
                             std::make_unique<NoopEngine>(), options);
  ASSERT_TRUE(harness.start().ok());
  const std::size_t start = server.rpc_server().bound_keys();
  ASSERT_EQ(start, 1u);  // the executor's subscription

  auto client = TcpDispatcherClient::connect("127.0.0.1", server.rpc_port(),
                                             server.push_port());
  ASSERT_TRUE(client.ok());
  for (int session = 0; session < 20; ++session) {
    auto instance = client.value()->create_instance(ClientId{1});
    ASSERT_TRUE(instance.ok());
    ASSERT_TRUE(client.value()->streaming(instance.value()));
    EXPECT_EQ(server.rpc_server().bound_keys(), start + 1);
    ASSERT_TRUE(client.value()->submit(instance.value(), sleep_tasks(3)).ok());
    std::size_t received = 0;
    ASSERT_TRUE(eventually([&] {
      auto batch = client.value()->wait_results(instance.value(), 64, 0.2);
      if (batch.ok()) received += batch.value().size();
      return received >= 3;
    }));
    ASSERT_TRUE(client.value()->destroy_instance(instance.value()).ok());
  }
  EXPECT_EQ(server.rpc_server().bound_keys(), start);

  // A raw peer registers and subscribes, then never beats again.
  auto raw = net::RpcClient::connect("127.0.0.1", server.rpc_port());
  ASSERT_TRUE(raw.ok());
  wire::RegisterRequest reg;
  reg.host = "silent";
  const ExecutorId silent =
      call_expect<wire::RegisterReply>(raw.value(), reg).executor_id;
  (void)call_expect<wire::HeartbeatReply>(raw.value(),
                                          wire::Notify{silent, 0});
  EXPECT_EQ(server.rpc_server().bound_keys(), start + 1);
  const std::size_t connections = server.rpc_server().active_connections();
  ASSERT_TRUE(eventually(
      [&] { return dispatcher.status().registered_executors == 1; }));
  EXPECT_EQ(server.rpc_server().bound_keys(), start);
  // Eviction ended the binding, not the connection.
  EXPECT_EQ(server.rpc_server().active_connections(), connections);
  EXPECT_TRUE(raw.value().call(wire::StatusRequest{}).ok());

  harness.stop();
  server.stop();
  dispatcher.shutdown();
}

TEST(TcpPushChannel, EachPeerHoldsOneConnection) {
  RealClock clock;
  Dispatcher dispatcher(clock, DispatcherConfig{});
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start().ok());
  std::vector<std::unique_ptr<TcpExecutorHarness>> fleet;
  for (int e = 0; e < 4; ++e) {
    ExecutorOptions options;
    if (e == 3) options.poll_interval_s = 0.01;  // one in firewall mode
    fleet.push_back(std::make_unique<TcpExecutorHarness>(
        clock, "127.0.0.1", server.rpc_port(), server.push_port(),
        std::make_unique<NoopEngine>(), options));
    ASSERT_TRUE(fleet.back()->start().ok());
  }
  std::vector<std::unique_ptr<TcpDispatcherClient>> clients;
  std::vector<InstanceId> instances;
  for (int c = 0; c < 2; ++c) {
    auto client = TcpDispatcherClient::connect(
        "127.0.0.1", server.rpc_port(), server.push_port());
    ASSERT_TRUE(client.ok());
    auto instance = client.value()->create_instance(ClientId{1});
    ASSERT_TRUE(instance.ok());
    ASSERT_TRUE(client.value()->streaming(instance.value()));
    ASSERT_TRUE(
        client.value()->submit(instance.value(), sleep_tasks(50)).ok());
    clients.push_back(std::move(client.value()));
    instances.push_back(instance.value());
  }
  for (int c = 0; c < 2; ++c) {
    std::size_t received = 0;
    ASSERT_TRUE(eventually([&] {
      auto batch = clients[c]->wait_results(instances[c], 64, 0.2);
      if (batch.ok()) received += batch.value().size();
      return received >= 50;
    }));
  }
  // Four executors and two streaming clients: six connections, with the
  // three push-mode executors and two instances bound on them.
  EXPECT_EQ(server.rpc_server().active_connections(), 6u);
  EXPECT_EQ(server.reactor().open_connections(), 6u);
  EXPECT_EQ(server.rpc_server().bound_keys(), 5u);

  clients.clear();
  fleet.clear();
  server.stop();
  dispatcher.shutdown();
}

}  // namespace
}  // namespace falkon::core
