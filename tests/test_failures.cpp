// Failure-injection tests: flaky tasks, executors dying mid-run, lost
// responses, dispatcher shutdown under load — the replay policy (paper
// section 3.1) end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>

#include "common/clock.h"
#include "core/client.h"
#include "core/data_plane.h"
#include "core/policies.h"
#include "core/service.h"
#include "core/service_tcp.h"
#include "iomodel/io_model.h"
#include "obs/obs.h"

namespace falkon::core {
namespace {

std::vector<TaskSpec> sleep_tasks(int count, std::uint64_t first_id = 1) {
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < count; ++i) {
    tasks.push_back(
        make_sleep_task(TaskId{first_id + static_cast<std::uint64_t>(i)}, 0.0));
  }
  return tasks;
}

/// Fails each task's first `failures_per_task` attempts, then succeeds.
class FlakyEngine final : public TaskEngine {
 public:
  explicit FlakyEngine(int failures_per_task)
      : failures_per_task_(failures_per_task) {}

  TaskResult run(const TaskSpec& task) override {
    int seen;
    {
      std::lock_guard lock(mu_);
      seen = attempts_[task.id.value]++;
    }
    TaskResult result;
    result.task_id = task.id;
    if (seen < failures_per_task_) {
      result.exit_code = 1;
      result.state = TaskState::kFailed;
    } else {
      result.exit_code = 0;
      result.state = TaskState::kCompleted;
    }
    return result;
  }

 private:
  int failures_per_task_;
  std::mutex mu_;
  std::map<std::uint64_t, int> attempts_;
};

TEST(Failures, FlakyTasksSucceedThroughRetries) {
  RealClock clock;
  DispatcherConfig config;
  config.replay.max_retries = 3;
  InProcFalkon falkon(clock, config);
  // Shared flaky engine so attempt counts survive executor hops.
  auto engine = std::make_shared<FlakyEngine>(2);
  ASSERT_TRUE(falkon
                  .add_executors(3,
                                 [engine](Clock&) {
                                   // Thin forwarding wrapper: each executor
                                   // shares the counting engine.
                                   class Wrap final : public TaskEngine {
                                    public:
                                     explicit Wrap(std::shared_ptr<FlakyEngine> e)
                                         : e_(std::move(e)) {}
                                     TaskResult run(const TaskSpec& t) override {
                                       return e_->run(t);
                                     }

                                    private:
                                     std::shared_ptr<FlakyEngine> e_;
                                   };
                                   return std::make_unique<Wrap>(engine);
                                 },
                                 ExecutorOptions{})
                  .ok());

  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(40), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  ASSERT_EQ(results.value().size(), 40u);
  for (const auto& result : results.value()) {
    EXPECT_TRUE(result.success());  // every task eventually succeeded
  }
  const auto status = falkon.dispatcher().status();
  EXPECT_EQ(status.completed, 40u);
  EXPECT_EQ(status.failed, 0u);
  EXPECT_EQ(status.retried, 80u);  // 2 failures per task
}

TEST(Failures, TasksBeyondRetryBudgetAreReportedFailed) {
  RealClock clock;
  DispatcherConfig config;
  config.replay.max_retries = 1;
  InProcFalkon falkon(clock, config);
  auto engine_factory = [](Clock&) {
    return std::make_unique<FlakyEngine>(1000);  // never succeeds
  };
  ASSERT_TRUE(falkon.add_executors(2, engine_factory, ExecutorOptions{}).ok());

  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(10), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  ASSERT_EQ(results.value().size(), 10u);  // failures are still delivered
  for (const auto& result : results.value()) {
    EXPECT_EQ(result.state, TaskState::kFailed);
  }
  EXPECT_EQ(falkon.dispatcher().status().failed, 10u);
}

TEST(Failures, ExecutorDeathMidRunRequeuesItsWork) {
  RealClock clock;
  InProcFalkon falkon(clock, DispatcherConfig{});
  auto slow_factory = [](Clock& c) { return std::make_unique<SleepEngine>(c); };
  // One slow executor takes tasks; killing it must requeue in-flight work
  // to the survivor.
  ASSERT_TRUE(falkon.add_executors(2, slow_factory, ExecutorOptions{}).ok());

  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());
  std::vector<TaskSpec> tasks;
  for (int i = 1; i <= 30; ++i) {
    tasks.push_back(make_sleep_task(TaskId{static_cast<std::uint64_t>(i)},
                                    0.01));
  }
  ASSERT_TRUE(session.value()->submit(std::move(tasks)).ok());
  // Let execution begin, then stop the whole pool's first executor.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  falkon.dispatcher().request_release(1);  // centrally release one executor

  auto results = session.value()->wait(30, 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  std::set<std::uint64_t> ids;
  for (const auto& result : results.value()) ids.insert(result.task_id.value);
  EXPECT_EQ(ids.size(), 30u);
}

TEST(Failures, LostResponseRecoversViaReplayTimeout) {
  // A "black hole" executor accepts work and never responds; the replay
  // policy re-dispatches to a healthy executor after the timeout.
  ManualClock clock;
  DispatcherConfig config;
  config.replay.response_timeout_s = 5.0;
  config.replay.max_retries = 2;
  Dispatcher dispatcher(clock, config);
  struct NullSink final : ExecutorSink {
    void notify(ExecutorId, std::uint64_t) override {}
  };
  auto instance = dispatcher.create_instance(ClientId{1});
  auto blackhole =
      dispatcher.register_executor(wire::RegisterRequest{},
                                   std::make_shared<NullSink>());
  auto healthy = dispatcher.register_executor(wire::RegisterRequest{},
                                              std::make_shared<NullSink>());
  ASSERT_TRUE(instance.ok() && blackhole.ok() && healthy.ok());

  ASSERT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(5)).ok());
  // Black hole grabs everything...
  for (int i = 0; i < 5; ++i) {
    auto work = dispatcher.get_work(blackhole.value(), 1);
    ASSERT_TRUE(work.ok());
    ASSERT_EQ(work.value().size(), 1u);
  }
  EXPECT_EQ(dispatcher.status().dispatched, 5u);
  // ...and never answers. After the timeout all 5 are requeued.
  clock.advance(6.0);
  EXPECT_EQ(dispatcher.check_replays(), 5);

  // Healthy executor completes them.
  int completed = 0;
  for (int i = 0; i < 5; ++i) {
    auto work = dispatcher.get_work(healthy.value(), 1);
    ASSERT_TRUE(work.ok());
    ASSERT_EQ(work.value().size(), 1u);
    TaskResult result;
    result.task_id = work.value()[0].id;
    auto ack = dispatcher.deliver_results(healthy.value(), {result}, 0);
    ASSERT_TRUE(ack.ok());
    completed += static_cast<int>(ack.value().acknowledged);
  }
  EXPECT_EQ(completed, 5);
  EXPECT_EQ(dispatcher.status().completed, 5u);
}

TEST(Failures, SweeperRecoversLostResponseWithoutManualSweep) {
  // Same black-hole scenario as above, but nobody ever calls a sweep: the
  // TcpDispatcherServer's reactor timer drives sweep_once(), which must
  // notice the overdue tasks and requeue them on its own (docs/FAULTS.md).
  RealClock clock;
  obs::Obs obs;
  DispatcherConfig config;
  config.replay.response_timeout_s = 0.15;
  config.replay.max_retries = 5;
  config.sweep_interval_s = 0.02;
  config.obs = &obs;
  Dispatcher dispatcher(clock, config);
  TcpDispatcherServer server(dispatcher, &obs);
  ASSERT_TRUE(server.start().ok());
  struct NullSink final : ExecutorSink {
    void notify(ExecutorId, std::uint64_t) override {}
  };
  auto instance = dispatcher.create_instance(ClientId{1});
  auto blackhole = dispatcher.register_executor(wire::RegisterRequest{},
                                                std::make_shared<NullSink>());
  auto healthy = dispatcher.register_executor(wire::RegisterRequest{},
                                              std::make_shared<NullSink>());
  ASSERT_TRUE(instance.ok() && blackhole.ok() && healthy.ok());

  ASSERT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(5)).ok());
  for (int i = 0; i < 5; ++i) {
    auto work = dispatcher.get_work(blackhole.value(), 1);
    ASSERT_TRUE(work.ok());
    ASSERT_EQ(work.value().size(), 1u);
  }

  // The healthy executor just polls; the server's sweep does the recovery.
  int completed = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  while (completed < 5 && std::chrono::steady_clock::now() < deadline) {
    auto work = dispatcher.get_work(healthy.value(), 5);
    ASSERT_TRUE(work.ok());
    if (work.value().empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    std::vector<TaskResult> results;
    for (const auto& task : work.value()) {
      TaskResult result;
      result.task_id = task.id;
      results.push_back(result);
    }
    auto ack = dispatcher.deliver_results(healthy.value(), results, 0);
    ASSERT_TRUE(ack.ok());
    completed += static_cast<int>(ack.value().acknowledged);
  }
  EXPECT_EQ(completed, 5);
  const auto status = dispatcher.status();
  EXPECT_EQ(status.completed, 5u);
  EXPECT_GE(status.retried, 5u);
  EXPECT_GT(obs.registry().counter("falkon.dispatcher.sweeps").value(), 0u);
  EXPECT_EQ(obs.registry().counter("falkon.dispatcher.tasks_retried").value(),
            status.retried);
  server.stop();
  dispatcher.shutdown();
}

TEST(Failures, ExhaustedRetriesEndFailedNotDropped) {
  // A task stuck on an unresponsive executor past its retry budget must
  // reach a terminal failed state (delivered to the client), not linger in
  // dispatched_ forever — and status counters must agree with obs metrics.
  ManualClock clock;
  obs::Obs obs;
  DispatcherConfig config;
  config.replay.response_timeout_s = 5.0;
  config.replay.max_retries = 1;
  config.max_tasks_per_dispatch = 3;
  config.obs = &obs;
  Dispatcher dispatcher(clock, config);
  struct NullSink final : ExecutorSink {
    void notify(ExecutorId, std::uint64_t) override {}
  };
  auto instance = dispatcher.create_instance(ClientId{1});
  auto blackhole = dispatcher.register_executor(wire::RegisterRequest{},
                                                std::make_shared<NullSink>());
  ASSERT_TRUE(instance.ok() && blackhole.ok());

  ASSERT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(3)).ok());
  auto work = dispatcher.get_work(blackhole.value(), 3);
  ASSERT_TRUE(work.ok());
  ASSERT_EQ(work.value().size(), 3u);

  clock.advance(6.0);
  EXPECT_EQ(dispatcher.check_replays(), 3);  // first replay: retried
  work = dispatcher.get_work(blackhole.value(), 3);
  ASSERT_TRUE(work.ok());
  ASSERT_EQ(work.value().size(), 3u);  // black hole grabs them again

  clock.advance(6.0);
  EXPECT_EQ(dispatcher.check_replays(), 0);  // budget exhausted: no requeue

  const auto status = dispatcher.status();
  EXPECT_EQ(status.failed, 3u);
  EXPECT_EQ(status.retried, 3u);
  EXPECT_EQ(status.completed, 0u);
  EXPECT_EQ(status.dispatched, 0u);  // nothing left in flight
  EXPECT_EQ(status.queued, 0u);
  EXPECT_EQ(obs.registry().counter("falkon.dispatcher.tasks_failed").value(),
            status.failed);
  EXPECT_EQ(obs.registry().counter("falkon.dispatcher.tasks_retried").value(),
            status.retried);

  // The failures are delivered to the client as terminal results.
  auto results = dispatcher.wait_results(instance.value(), 10, 0.0);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 3u);
  for (const auto& result : results.value()) {
    EXPECT_EQ(result.state, TaskState::kFailed);
    EXPECT_NE(result.stderr_data.find("retry budget exhausted"),
              std::string::npos);
  }
}

TEST(Failures, HeartbeatTimeoutDeregistersDeadExecutor) {
  ManualClock clock;
  DispatcherConfig config;
  config.heartbeat_timeout_s = 5.0;
  config.max_tasks_per_dispatch = 2;
  Dispatcher dispatcher(clock, config);
  struct NullSink final : ExecutorSink {
    void notify(ExecutorId, std::uint64_t) override {}
  };
  auto instance = dispatcher.create_instance(ClientId{1});
  auto dead = dispatcher.register_executor(wire::RegisterRequest{},
                                           std::make_shared<NullSink>());
  auto alive = dispatcher.register_executor(wire::RegisterRequest{},
                                            std::make_shared<NullSink>());
  ASSERT_TRUE(instance.ok() && dead.ok() && alive.ok());

  ASSERT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(2)).ok());
  auto work = dispatcher.get_work(dead.value(), 2);
  ASSERT_TRUE(work.ok());
  ASSERT_EQ(work.value().size(), 2u);

  clock.advance(3.0);
  ASSERT_TRUE(dispatcher.heartbeat(alive.value()).ok());
  clock.advance(3.0);  // dead: 6 s silent; alive: 3 s since last beat
  EXPECT_EQ(dispatcher.check_liveness(), 1);

  const auto status = dispatcher.status();
  EXPECT_EQ(status.suspicions, 1u);
  EXPECT_EQ(status.registered_executors, 1u);
  EXPECT_EQ(status.queued, 2u);  // in-flight work was requeued

  // The "dead" executor beats after removal: counted as a false positive.
  EXPECT_FALSE(dispatcher.heartbeat(dead.value()).ok());
  EXPECT_EQ(dispatcher.status().false_suspicions, 1u);
}

TEST(Failures, PoisonTaskQuarantinedAfterKillingExecutors) {
  ManualClock clock;
  obs::Obs obs;
  DispatcherConfig config;
  config.heartbeat_timeout_s = 5.0;
  config.quarantine_threshold = 2;
  config.obs = &obs;
  Dispatcher dispatcher(clock, config);
  struct NullSink final : ExecutorSink {
    void notify(ExecutorId, std::uint64_t) override {}
  };
  auto instance = dispatcher.create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(1)).ok());

  // Victim 1 takes the task and dies (heartbeat timeout).
  auto victim1 = dispatcher.register_executor(wire::RegisterRequest{},
                                              std::make_shared<NullSink>());
  ASSERT_TRUE(victim1.ok());
  ASSERT_EQ(dispatcher.get_work(victim1.value(), 1).value().size(), 1u);
  clock.advance(6.0);
  EXPECT_EQ(dispatcher.check_liveness(), 1);
  EXPECT_EQ(dispatcher.status().queued, 1u);  // first death: requeued

  // Victim 2 takes it and dies too: threshold reached, task quarantined.
  auto victim2 = dispatcher.register_executor(wire::RegisterRequest{},
                                              std::make_shared<NullSink>());
  ASSERT_TRUE(victim2.ok());
  ASSERT_EQ(dispatcher.get_work(victim2.value(), 1).value().size(), 1u);
  clock.advance(6.0);
  EXPECT_EQ(dispatcher.check_liveness(), 1);

  const auto status = dispatcher.status();
  EXPECT_EQ(status.quarantined, 1u);
  EXPECT_EQ(status.failed, 1u);
  EXPECT_EQ(status.queued, 0u);  // NOT requeued a third time
  EXPECT_EQ(
      obs.registry().counter("falkon.dispatcher.tasks_quarantined").value(),
      1u);

  auto results = dispatcher.wait_results(instance.value(), 10, 0.0);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 1u);
  EXPECT_EQ(results.value()[0].state, TaskState::kFailed);
  EXPECT_NE(results.value()[0].stderr_data.find("quarantined"),
            std::string::npos);
}

TEST(Failures, RenotifySweepRecoversLostNotification) {
  // An executor whose notification vanished sits in the notified state
  // forever; the stale-notification sweep must re-send it.
  ManualClock clock;
  DispatcherConfig config;
  config.renotify_timeout_s = 2.0;
  config.obs = nullptr;
  Dispatcher dispatcher(clock, config);
  struct CountingSink final : ExecutorSink {
    std::atomic<int> notifies{0};
    void notify(ExecutorId, std::uint64_t) override { ++notifies; }
  };
  auto sink = std::make_shared<CountingSink>();
  auto instance = dispatcher.create_instance(ClientId{1});
  auto executor =
      dispatcher.register_executor(wire::RegisterRequest{}, sink);
  ASSERT_TRUE(instance.ok() && executor.ok());

  ASSERT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(1)).ok());
  // The first notification goes out on the submitting thread.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sink->notifies.load() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(sink->notifies.load(), 1);

  // Executor never pulls (the notify was "lost" on its side). After the
  // renotify timeout the sweep fires another one.
  clock.advance(3.0);
  dispatcher.renotify_stale();
  const auto deadline2 =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sink->notifies.load() < 2 &&
         std::chrono::steady_clock::now() < deadline2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(sink->notifies.load(), 2);
}

TEST(Failures, ShutdownUnblocksWaitingClients) {
  RealClock clock;
  auto dispatcher = std::make_unique<Dispatcher>(clock, DispatcherConfig{});
  auto instance = dispatcher->create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());

  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    auto results = dispatcher->wait_results(instance.value(), 1, 10.0);
    // Either an error (closed) or empty results; it must not hang.
    (void)results;
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());
  dispatcher->shutdown();
  waiter.join();
  EXPECT_TRUE(returned.load());
}

TEST(Failures, SubmitAfterShutdownFailsCleanly) {
  RealClock clock;
  Dispatcher dispatcher(clock, DispatcherConfig{});
  auto instance = dispatcher.create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  dispatcher.shutdown();
  auto submit = dispatcher.submit(instance.value(), sleep_tasks(1));
  ASSERT_FALSE(submit.ok());
  EXPECT_EQ(submit.error().code, ErrorCode::kClosed);
}

TEST(Failures, StaleDigestRouteFallsBackToPeerFetch) {
  // Heartbeat-staleness race (docs/DATA.md): executor A advertises an
  // object, evicts it before its next heartbeat, and the dispatcher —
  // still routing on the old digest — sends A the task anyway. The
  // misrouted task must fall back to a peer fetch (counted in
  // falkon.data.digest_stale), never fail or hang.
  RealClock clock;
  obs::Obs obs{obs::ObsConfig{}};
  DispatcherConfig config;
  config.obs = &obs;
  config.max_locality_wait_s = 0.5;
  Dispatcher dispatcher(clock, config,
                        std::make_unique<GoodCacheComputePolicy>());

  struct NullSink final : ExecutorSink {
    void notify(ExecutorId, std::uint64_t) override {}
  };

  // Two planes holding "hot"; only B's fetch server is live, so a fallback
  // must go peer-to-peer to B.
  DataPlane plane_a(DataPlaneOptions{.obs = &obs});
  DataPlane plane_b(DataPlaneOptions{.obs = &obs});
  plane_a.insert("hot", 64 << 10);
  plane_b.insert("hot", 64 << 10);
  ASSERT_TRUE(plane_b.start().ok());

  wire::RegisterRequest reg_a;
  reg_a.host = "127.0.0.1";
  reg_a.data_port = 1;  // any nonzero port registers the digest
  reg_a.cached = {"hot"};
  auto id_a =
      dispatcher.register_executor(reg_a, std::make_shared<NullSink>());
  wire::RegisterRequest reg_b;
  reg_b.host = "127.0.0.1";
  reg_b.data_port = plane_b.port();
  reg_b.cached = {"hot"};
  auto id_b =
      dispatcher.register_executor(reg_b, std::make_shared<NullSink>());
  ASSERT_TRUE(id_a.ok() && id_b.ok());

  // The race: A's cache drops the object after the digest went out. No
  // heartbeat carries the eviction before the next routing decision.
  plane_a.erase("hot");

  auto instance = dispatcher.create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  TaskSpec task =
      make_data_task(TaskId{1}, 0.0, DataLocation::kSharedFs, IoMode::kRead,
                     /*input_bytes=*/64 << 10, /*output_bytes=*/0);
  task.data_object = "hot";
  ASSERT_TRUE(dispatcher.submit(instance.value(), {task}).ok());

  auto work = dispatcher.get_work(id_a.value(), 1);
  ASSERT_TRUE(work.ok());
  ASSERT_EQ(work.value().size(), 1u);
  const TaskSpec& routed = work.value()[0];
  EXPECT_TRUE(routed.expect_cached);  // dispatcher believed A still held it
  EXPECT_EQ(routed.data_source,
            "127.0.0.1:" + std::to_string(plane_b.port()));

  iomodel::IoModel model;
  P2pDataEngine engine(clock, model, /*concurrency=*/2, plane_a, &obs);
  const TaskResult result = engine.run(routed);
  EXPECT_EQ(result.state, TaskState::kCompleted);
  EXPECT_EQ(engine.digest_stale(), 1u);
  EXPECT_EQ(engine.p2p_fetches(), 1u);
  EXPECT_EQ(obs.registry().counter("falkon.data.digest_stale").value(), 1u);
  // The route was legal at pick time — A's mirror still advertised the
  // object — so I11's stale-route self-check must NOT fire.
  EXPECT_EQ(dispatcher.data_stats().stale_routes, 0u);

  auto outcome =
      dispatcher.deliver_results(id_a.value(), {result}, /*want_tasks=*/0);
  EXPECT_TRUE(outcome.ok());
  dispatcher.shutdown();
}

}  // namespace
}  // namespace falkon::core
