// Executor runtime and in-process end-to-end tests: the full
// register/notify/get-work/execute/deliver loop, piggy-backing, idle-timeout
// self-release (distributed release policy), pre-fetching, and the shell
// engine. The empty-piggy-back wake-up checks also run over loopback TCP.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "common/clock.h"
#include "core/client.h"
#include "core/service.h"
#include "core/service_tcp.h"
#include "obs/obs.h"

namespace falkon::core {
namespace {

InProcFalkon::EngineFactory noop_factory() {
  return [](Clock&) { return std::make_unique<NoopEngine>(); };
}

InProcFalkon::EngineFactory sleep_factory() {
  return [](Clock& clock) { return std::make_unique<SleepEngine>(clock); };
}

std::vector<TaskSpec> sleep_tasks(int count, double duration = 0.0) {
  std::vector<TaskSpec> tasks;
  for (int i = 1; i <= count; ++i) {
    tasks.push_back(make_sleep_task(TaskId{static_cast<std::uint64_t>(i)},
                                    duration));
  }
  return tasks;
}

TEST(ExecutorEndToEnd, SingleExecutorRunsAllTasks) {
  RealClock clock;
  InProcFalkon falkon(clock, DispatcherConfig{});
  ASSERT_TRUE(falkon.add_executors(1, noop_factory(), ExecutorOptions{}).ok());

  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(50), /*deadline_s=*/30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 50u);
  for (const auto& result : results.value()) EXPECT_TRUE(result.success());
  EXPECT_EQ(falkon.dispatcher().status().completed, 50u);
}

TEST(ExecutorEndToEnd, ManyExecutorsShareTheQueue) {
  RealClock clock;
  InProcFalkon falkon(clock, DispatcherConfig{});
  ASSERT_TRUE(falkon.add_executors(8, noop_factory(), ExecutorOptions{}).ok());

  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(400), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 400u);

  // Exactly-once: all 400 distinct ids present.
  std::set<std::uint64_t> ids;
  for (const auto& result : results.value()) ids.insert(result.task_id.value);
  EXPECT_EQ(ids.size(), 400u);

  // Work was actually spread: the executors together ran 400 tasks.
  std::uint64_t executed = 0;
  for (const auto& stats : falkon.executor_stats()) {
    executed += stats.tasks_executed;
  }
  EXPECT_EQ(executed, 400u);
}

TEST(ExecutorEndToEnd, ScaledClockCompressesSleepTasks) {
  ScaledClock clock(1000.0);  // 1 model second = 1 real millisecond
  InProcFalkon falkon(clock, DispatcherConfig{});
  ASSERT_TRUE(falkon.add_executors(4, sleep_factory(), ExecutorOptions{}).ok());

  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());
  // 20 x "sleep 10" on 4 executors = 50 model seconds of serial work,
  // i.e. ~50 ms of real time.
  auto results = session.value()->run(sleep_tasks(20, 10.0),
                                      /*deadline_s=*/60000.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 20u);
  for (const auto& result : results.value()) {
    EXPECT_GE(result.exec_time_s, 9.0);  // model seconds
  }
}

TEST(ExecutorEndToEnd, IdleTimeoutReleasesExecutor) {
  RealClock clock;
  InProcFalkon falkon(clock, DispatcherConfig{});
  ExecutorOptions options;
  options.idle_timeout_s = 0.05;  // 50 ms real
  ASSERT_TRUE(falkon.add_executors(2, noop_factory(), options).ok());
  EXPECT_EQ(falkon.dispatcher().status().registered_executors, 2u);

  // No work arrives: both executors must deregister themselves.
  for (int i = 0; i < 200; ++i) {
    if (falkon.dispatcher().status().registered_executors == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(falkon.dispatcher().status().registered_executors, 0u);
}

TEST(ExecutorEndToEnd, BusyExecutorDoesNotIdleOut) {
  RealClock clock;
  InProcFalkon falkon(clock, DispatcherConfig{});
  ExecutorOptions options;
  options.idle_timeout_s = 0.10;
  ASSERT_TRUE(falkon.add_executors(1, noop_factory(), options).ok());

  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());
  // Trickle work every 30 ms for ~0.5 s: the executor must stay registered
  // because activity resets its idle clock.
  for (int burst = 0; burst < 15; ++burst) {
    std::vector<TaskSpec> one;
    one.push_back(make_sleep_task(TaskId{static_cast<std::uint64_t>(1000 + burst)}, 0.0));
    ASSERT_TRUE(session.value()->submit(std::move(one)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_EQ(falkon.dispatcher().status().registered_executors, 1u)
        << "burst " << burst;
  }
  auto results = session.value()->wait(15, 10.0);
  ASSERT_TRUE(results.ok());
}

TEST(ExecutorEndToEnd, CentralizedReleaseStopsExecutor) {
  RealClock clock;
  InProcFalkon falkon(clock, DispatcherConfig{});
  ASSERT_TRUE(falkon.add_executors(1, noop_factory(), ExecutorOptions{}).ok());
  ASSERT_EQ(falkon.dispatcher().status().registered_executors, 1u);

  auto released = falkon.dispatcher().request_release(1);
  ASSERT_EQ(released.size(), 1u);
  for (int i = 0; i < 200; ++i) {
    if (falkon.dispatcher().status().registered_executors == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(falkon.dispatcher().status().registered_executors, 0u);
}

TEST(ExecutorEndToEnd, PrefetchStillCompletesEverything) {
  RealClock clock;
  InProcFalkon falkon(clock, DispatcherConfig{});
  ExecutorOptions options;
  options.prefetch = true;
  ASSERT_TRUE(falkon.add_executors(2, noop_factory(), options).ok());
  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(100), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  std::set<std::uint64_t> ids;
  for (const auto& result : results.value()) ids.insert(result.task_id.value);
  EXPECT_EQ(ids.size(), 100u);
}

TEST(ExecutorEndToEnd, DispatcherExecutorBundling) {
  RealClock clock;
  DispatcherConfig config;
  config.max_tasks_per_dispatch = 10;  // allow bundles to executors
  InProcFalkon falkon(clock, config);
  ExecutorOptions options;
  options.max_bundle = 10;
  options.piggyback_tasks = 10;
  ASSERT_TRUE(falkon.add_executors(2, noop_factory(), options).ok());
  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(500), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 500u);
}

// One executor, one task per round. A delivery whose reply carries no
// piggy-backed task must send the executor straight to its wake-up wait:
// no empty get_work (falkon.executor.empty_polls stays at the single
// startup poll), and a submit landing right behind that delivery still
// reaches it as a notification. Neither a recovery sweep nor the idle
// takeover probe runs, so a lost wake-up would surface as a timed-out
// round and every get_work as an empty poll.
void expect_no_poll_and_no_lost_wakeup(DispatcherClient& client,
                                       const obs::Counter& empty_polls) {
  for (int i = 0; i < 400 && empty_polls.value() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(empty_polls.value(), 1u) << "startup poll on an empty queue";

  auto session = FalkonSession::open(client, ClientId{1});
  ASSERT_TRUE(session.ok());
  double slowest_s = 0.0;
  for (std::uint64_t round = 1; round <= 200; ++round) {
    std::vector<TaskSpec> one;
    one.push_back(make_sleep_task(TaskId{round}, 0.0));
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(session.value()->submit(std::move(one)).ok());
    auto results = session.value()->wait(1, /*deadline_s=*/5.0);
    ASSERT_TRUE(results.ok()) << "round " << round << ": "
                              << results.error().str();
    ASSERT_EQ(results.value().size(), 1u) << "round " << round;
    slowest_s = std::max(
        slowest_s, std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count());
  }
  EXPECT_LT(slowest_s, 1.0) << "a round waited far beyond a round trip";
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(empty_polls.value(), 1u)
      << "get_work issued after a delivery whose piggy-back was empty";
}

TEST(ExecutorWakeup, EmptyPiggybackWaitsForNotifyInProcess) {
  RealClock clock;
  obs::Obs obs;
  InProcFalkon falkon(clock, DispatcherConfig{});
  ExecutorOptions options;
  options.obs = &obs;
  options.takeover_probe_s = 0.0;
  ASSERT_TRUE(falkon.add_executors(1, noop_factory(), options).ok());
  expect_no_poll_and_no_lost_wakeup(
      falkon.client(), obs.registry().counter("falkon.executor.empty_polls"));
}

TEST(ExecutorWakeup, EmptyPiggybackWaitsForNotifyOverTcp) {
  RealClock clock;
  obs::Obs obs;
  Dispatcher dispatcher(clock, DispatcherConfig{});
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start().ok());
  ExecutorOptions options;
  options.obs = &obs;
  options.takeover_probe_s = 0.0;
  TcpExecutorHarness executor(clock, "127.0.0.1", server.rpc_port(),
                              server.push_port(),
                              std::make_unique<NoopEngine>(), options);
  ASSERT_TRUE(executor.start().ok());
  // The push subscription is registered on a reactor loop: drain every
  // loop (accept handoff, registration, subscribe frame) so the first
  // notification cannot race ahead of it.
  for (int i = 0; i < 3; ++i) server.reactor().barrier();
  auto client = TcpDispatcherClient::connect("127.0.0.1", server.rpc_port());
  ASSERT_TRUE(client.ok());
  expect_no_poll_and_no_lost_wakeup(
      *client.value(), obs.registry().counter("falkon.executor.empty_polls"));
  client.value().reset();
  executor.stop();
  server.stop();
}

TEST(ShellEngine, RunsRealProcessAndCapturesOutput) {
  ShellEngine engine;
  TaskSpec task;
  task.id = TaskId{1};
  task.executable = "/bin/sh";
  task.args = {"-c", "echo out-street; echo err-street 1>&2; exit 3"};
  task.capture_output = true;
  auto result = engine.run(task);
  EXPECT_EQ(result.exit_code, 3);
  EXPECT_EQ(result.state, TaskState::kFailed);
  EXPECT_NE(result.stdout_data.find("out-street"), std::string::npos);
  EXPECT_NE(result.stderr_data.find("err-street"), std::string::npos);
}

TEST(ShellEngine, EnvAndWorkingDirApplied) {
  ShellEngine engine;
  TaskSpec task;
  task.id = TaskId{2};
  task.executable = "/bin/sh";
  task.args = {"-c", "echo $FALKON_TEST_VAR; pwd"};
  task.env = {{"FALKON_TEST_VAR", "falkon-works"}};
  task.working_dir = "/tmp";
  task.capture_output = true;
  auto result = engine.run(task);
  EXPECT_TRUE(result.success());
  EXPECT_NE(result.stdout_data.find("falkon-works"), std::string::npos);
  EXPECT_NE(result.stdout_data.find("/tmp"), std::string::npos);
}

TEST(ShellEngine, MissingExecutableFailsCleanly) {
  ShellEngine engine;
  TaskSpec task;
  task.id = TaskId{3};
  task.executable = "/no/such/binary";
  auto result = engine.run(task);
  EXPECT_EQ(result.exit_code, 127);
  EXPECT_EQ(result.state, TaskState::kFailed);
}

TEST(ShellEngine, EndToEndThroughFalkon) {
  RealClock clock;
  InProcFalkon falkon(clock, DispatcherConfig{});
  ASSERT_TRUE(falkon
                  .add_executors(2,
                                 [](Clock&) {
                                   return std::make_unique<ShellEngine>();
                                 },
                                 ExecutorOptions{})
                  .ok());
  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());

  std::vector<TaskSpec> tasks;
  for (int i = 1; i <= 10; ++i) {
    TaskSpec task;
    task.id = TaskId{static_cast<std::uint64_t>(i)};
    task.executable = "/bin/sh";
    task.args = {"-c", "echo task-" + std::to_string(i)};
    task.capture_output = true;
    tasks.push_back(std::move(task));
  }
  auto results = session.value()->run(std::move(tasks), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  ASSERT_EQ(results.value().size(), 10u);
  for (const auto& result : results.value()) {
    EXPECT_TRUE(result.success());
    EXPECT_NE(result.stdout_data.find("task-"), std::string::npos);
  }
}

TEST(DataStagingEngine, CacheHitsSkipSharedFsCosts) {
  ScaledClock clock(10000.0);
  iomodel::IoModel model;
  DataStagingEngine engine(clock, model, /*concurrency=*/128,
                           /*cache_capacity_bytes=*/1ULL << 30);
  TaskSpec task = make_data_task(TaskId{1}, 0.0, DataLocation::kSharedFs,
                                 IoMode::kRead, 100 << 20, 0);
  task.data_object = "hot";
  const auto cold = engine.run(task);
  task.id = TaskId{2};
  const auto warm = engine.run(task);
  EXPECT_EQ(engine.cache_hits(), 1u);
  EXPECT_EQ(engine.cache_misses(), 1u);
  // The cached run reads from local disk: much faster under contention.
  EXPECT_LT(warm.exec_time_s, cold.exec_time_s * 0.5);
}

}  // namespace
}  // namespace falkon::core
