// Dispatcher unit tests: the factory/instance client API, the hybrid
// push/pull executor protocol, piggy-backing, the replay policy, and
// exactly-once result delivery (paper sections 3.2-3.4).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/dispatcher.h"

namespace falkon::core {
namespace {

/// Records notifications instead of waking a real executor.
struct RecordingSink final : ExecutorSink {
  std::atomic<int> notifications{0};
  std::atomic<std::uint64_t> last_key{0};
  void notify(ExecutorId, std::uint64_t resource_key) override {
    last_key.store(resource_key);
    notifications.fetch_add(1);
  }
};

std::vector<TaskSpec> sleep_tasks(std::uint64_t first_id, int count,
                                  double duration = 0.0) {
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < count; ++i) {
    tasks.push_back(make_sleep_task(TaskId{first_id + static_cast<std::uint64_t>(i)},
                                    duration));
  }
  return tasks;
}

TaskResult success_for(const TaskSpec& spec) {
  TaskResult result;
  result.task_id = spec.id;
  result.exit_code = 0;
  result.state = TaskState::kCompleted;
  return result;
}

class DispatcherTest : public ::testing::Test {
 protected:
  DispatcherTest() : dispatcher_(clock_, DispatcherConfig{}) {}

  ExecutorId add_executor(std::shared_ptr<RecordingSink> sink = nullptr) {
    if (!sink) sink = std::make_shared<RecordingSink>();
    sinks_.push_back(sink);
    wire::RegisterRequest request;
    request.host = "test";
    auto id = dispatcher_.register_executor(request, sink);
    EXPECT_TRUE(id.ok());
    return id.value();
  }

  InstanceId make_instance() {
    auto instance = dispatcher_.create_instance(ClientId{1});
    EXPECT_TRUE(instance.ok());
    return instance.value();
  }

  ManualClock clock_;
  Dispatcher dispatcher_;
  std::vector<std::shared_ptr<RecordingSink>> sinks_;
};

TEST_F(DispatcherTest, FactoryInstanceLifecycle) {
  auto a = dispatcher_.create_instance(ClientId{1});
  auto b = dispatcher_.create_instance(ClientId{2});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_TRUE(dispatcher_.destroy_instance(a.value()).ok());
  EXPECT_FALSE(dispatcher_.destroy_instance(a.value()).ok());  // double free
  auto submit = dispatcher_.submit(a.value(), sleep_tasks(1, 1));
  ASSERT_FALSE(submit.ok());
  EXPECT_EQ(submit.error().code, ErrorCode::kNotFound);
}

TEST_F(DispatcherTest, SubmitGetWorkDeliverRoundtrip) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();

  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 3)).ok());
  EXPECT_EQ(dispatcher_.status().queued, 3u);

  auto work = dispatcher_.get_work(executor, 1);
  ASSERT_TRUE(work.ok());
  ASSERT_EQ(work.value().size(), 1u);
  EXPECT_EQ(work.value()[0].id, TaskId{1});
  EXPECT_EQ(dispatcher_.status().dispatched, 1u);
  EXPECT_EQ(dispatcher_.status().busy_executors, 1u);

  auto outcome = dispatcher_.deliver_results(
      executor, {success_for(work.value()[0])}, /*want_tasks=*/0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().acknowledged, 1u);
  EXPECT_EQ(dispatcher_.status().completed, 1u);

  auto results = dispatcher_.wait_results(instance, 10, 0.01);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 1u);
  EXPECT_EQ(results.value()[0].task_id, TaskId{1});
}

TEST_F(DispatcherTest, NotificationSentWhenWorkArrives) {
  // The notify goes out on the submitting thread, before submit returns.
  struct ThreadRecordingSink final : ExecutorSink {
    std::mutex mu;
    std::vector<std::pair<std::uint64_t, std::thread::id>> calls;
    void notify(ExecutorId id, std::uint64_t) override {
      std::lock_guard lock(mu);
      calls.emplace_back(id.value, std::this_thread::get_id());
    }
  };
  auto sink = std::make_shared<ThreadRecordingSink>();
  wire::RegisterRequest request;
  request.host = "test";
  auto executor = dispatcher_.register_executor(request, sink);
  ASSERT_TRUE(executor.ok());
  const InstanceId instance = make_instance();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 1)).ok());
  std::lock_guard lock(sink->mu);
  ASSERT_EQ(sink->calls.size(), 1u);
  EXPECT_EQ(sink->calls[0].first, executor.value().value);
  EXPECT_EQ(sink->calls[0].second, std::this_thread::get_id());
}

TEST_F(DispatcherTest, PiggybackDeliversNextTaskWithAck) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 2)).ok());

  auto work = dispatcher_.get_work(executor, 1);
  ASSERT_TRUE(work.ok());
  auto outcome = dispatcher_.deliver_results(
      executor, {success_for(work.value()[0])}, /*want_tasks=*/1);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().piggyback.size(), 1u);
  EXPECT_EQ(outcome.value().piggyback[0].id, TaskId{2});
  // Executor stays busy: the piggy-backed task is in flight.
  EXPECT_EQ(dispatcher_.status().busy_executors, 1u);
}

TEST_F(DispatcherTest, PiggybackDisabledByConfig) {
  DispatcherConfig config;
  config.piggyback = false;
  Dispatcher dispatcher(clock_, config);
  auto instance = dispatcher.create_instance(ClientId{1});
  wire::RegisterRequest reg;
  auto executor =
      dispatcher.register_executor(reg, std::make_shared<RecordingSink>());
  ASSERT_TRUE(instance.ok() && executor.ok());
  ASSERT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(1, 2)).ok());
  auto work = dispatcher.get_work(executor.value(), 1);
  ASSERT_TRUE(work.ok());
  auto outcome = dispatcher.deliver_results(
      executor.value(), {success_for(work.value()[0])}, /*want_tasks=*/1);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().piggyback.empty());
}

TEST_F(DispatcherTest, FailedTaskIsRetriedThenReported) {
  DispatcherConfig config;
  config.replay.max_retries = 2;
  Dispatcher dispatcher(clock_, config);
  auto instance = dispatcher.create_instance(ClientId{1});
  wire::RegisterRequest reg;
  auto executor =
      dispatcher.register_executor(reg, std::make_shared<RecordingSink>());
  ASSERT_TRUE(instance.ok() && executor.ok());
  ASSERT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(7, 1)).ok());

  // Fail the task max_retries + 1 times.
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto work = dispatcher.get_work(executor.value(), 1);
    ASSERT_TRUE(work.ok());
    ASSERT_EQ(work.value().size(), 1u) << "attempt " << attempt;
    TaskResult failure = success_for(work.value()[0]);
    failure.exit_code = 1;
    failure.state = TaskState::kFailed;
    ASSERT_TRUE(
        dispatcher.deliver_results(executor.value(), {failure}, 0).ok());
  }
  const auto status = dispatcher.status();
  EXPECT_EQ(status.retried, 2u);
  EXPECT_EQ(status.failed, 1u);
  EXPECT_EQ(status.queued, 0u);

  // The failure is reported to the client exactly once.
  auto results = dispatcher.wait_results(instance.value(), 10, 0.01);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 1u);
  EXPECT_EQ(results.value()[0].state, TaskState::kFailed);
}

TEST_F(DispatcherTest, ReplayTimeoutRequeuesAndDropsLateDuplicate) {
  DispatcherConfig config;
  config.replay.response_timeout_s = 10.0;
  config.replay.max_retries = 3;
  Dispatcher dispatcher(clock_, config);
  auto instance = dispatcher.create_instance(ClientId{1});
  wire::RegisterRequest reg;
  auto slow = dispatcher.register_executor(reg, std::make_shared<RecordingSink>());
  auto fast = dispatcher.register_executor(reg, std::make_shared<RecordingSink>());
  ASSERT_TRUE(instance.ok() && slow.ok() && fast.ok());
  ASSERT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(1, 1)).ok());

  auto work = dispatcher.get_work(slow.value(), 1);
  ASSERT_TRUE(work.ok());
  ASSERT_EQ(work.value().size(), 1u);

  EXPECT_EQ(dispatcher.check_replays(), 0);  // not yet overdue
  clock_.advance(11.0);
  EXPECT_EQ(dispatcher.check_replays(), 1);  // requeued
  EXPECT_EQ(dispatcher.status().queued, 1u);

  // The fast executor picks it up and completes it.
  auto retry = dispatcher.get_work(fast.value(), 1);
  ASSERT_TRUE(retry.ok());
  ASSERT_EQ(retry.value().size(), 1u);
  ASSERT_TRUE(dispatcher
                  .deliver_results(fast.value(), {success_for(retry.value()[0])}, 0)
                  .ok());

  // The slow executor's late duplicate is dropped.
  auto late = dispatcher.deliver_results(slow.value(),
                                         {success_for(work.value()[0])}, 0);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late.value().acknowledged, 0u);
  EXPECT_EQ(dispatcher.status().completed, 1u);

  auto results = dispatcher.wait_results(instance.value(), 10, 0.01);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results.value().size(), 1u);  // exactly once
}

TEST_F(DispatcherTest, ReplayDeadlineCoversTheWholeBundle) {
  // Ten 1 s tasks in one bundle: the executor runs them in order and
  // delivers all ten results together, so even the first task cannot
  // answer before ~10 s. Its replay deadline must not fire at its own
  // runtime plus the timeout (3 s) and re-dispatch a bundle that is
  // healthy, only once the whole bundle is overdue.
  DispatcherConfig config;
  config.replay.response_timeout_s = 2.0;
  config.max_tasks_per_dispatch = 10;
  Dispatcher dispatcher(clock_, config);
  auto instance = dispatcher.create_instance(ClientId{1});
  wire::RegisterRequest reg;
  auto executor =
      dispatcher.register_executor(reg, std::make_shared<RecordingSink>());
  ASSERT_TRUE(instance.ok() && executor.ok());
  ASSERT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(1, 10, 1.0)).ok());
  auto work = dispatcher.get_work(executor.value(), 10);
  ASSERT_TRUE(work.ok());
  ASSERT_EQ(work.value().size(), 10u);

  clock_.advance(11.0);  // past any single task's deadline
  EXPECT_EQ(dispatcher.check_replays(), 0);
  clock_.advance(1.5);  // past the bundle's 10 s + 2 s
  EXPECT_EQ(dispatcher.check_replays(), 10);
  EXPECT_EQ(dispatcher.status().queued, 10u);
}

TEST_F(DispatcherTest, DeregisterRequeuesInflightTasks) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 1)).ok());
  auto work = dispatcher_.get_work(executor, 1);
  ASSERT_TRUE(work.ok());
  ASSERT_EQ(work.value().size(), 1u);
  ASSERT_TRUE(dispatcher_.deregister_executor(executor, "test").ok());
  EXPECT_EQ(dispatcher_.status().queued, 1u);
  EXPECT_EQ(dispatcher_.status().registered_executors, 0u);
}

TEST_F(DispatcherTest, RequestReleaseNotifiesIdleExecutorsOnly) {
  auto sink_idle = std::make_shared<RecordingSink>();
  auto sink_busy = std::make_shared<RecordingSink>();
  add_executor(sink_idle);
  const ExecutorId busy = add_executor(sink_busy);
  const InstanceId instance = make_instance();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 1)).ok());
  ASSERT_TRUE(dispatcher_.get_work(busy, 1).ok());

  auto released = dispatcher_.request_release(5);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(sink_idle->last_key.load(), kReleaseResourceKey);
  // A released executor is not offered further work.
  auto more = dispatcher_.request_release(5);
  EXPECT_TRUE(more.empty());
}

TEST_F(DispatcherTest, BundledSubmitKeepsFifoOrder) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 100)).ok());
  DispatcherConfig config;
  for (std::uint64_t expected = 1; expected <= 100; ++expected) {
    auto work = dispatcher_.get_work(executor, 1);
    ASSERT_TRUE(work.ok());
    ASSERT_EQ(work.value().size(), 1u);
    EXPECT_EQ(work.value()[0].id, TaskId{expected});
    ASSERT_TRUE(dispatcher_
                    .deliver_results(executor, {success_for(work.value()[0])}, 0)
                    .ok());
  }
}

TEST_F(DispatcherTest, QueueAndOverheadTimingsUseClock) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 1)).ok());
  clock_.advance(5.0);  // task waits 5 s in the queue
  auto work = dispatcher_.get_work(executor, 1);
  ASSERT_TRUE(work.ok());
  clock_.advance(2.0);  // 2 s round trip on the executor
  TaskResult result = success_for(work.value()[0]);
  result.exec_time_s = 1.5;
  ASSERT_TRUE(dispatcher_.deliver_results(executor, {result}, 0).ok());

  auto results = dispatcher_.wait_results(instance, 1, 0.01);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 1u);
  EXPECT_DOUBLE_EQ(results.value()[0].queue_time_s, 5.0);
  EXPECT_DOUBLE_EQ(results.value()[0].overhead_s, 0.5);  // 2.0 - 1.5
}

/// Pull one task and deliver its result, as an executor on another thread.
void complete_one(Dispatcher& dispatcher, ExecutorId executor) {
  auto work = dispatcher.get_work(executor, 1);
  ASSERT_TRUE(work.ok());
  ASSERT_EQ(work.value().size(), 1u);
  ASSERT_TRUE(
      dispatcher.deliver_results(executor, {success_for(work.value()[0])}, 0)
          .ok());
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Polling clients have no result-ready push: wait_results is a blocking
// long-poll, so a delivery from another thread must wake a waiter parked
// on an empty mailbox instead of leaving it to its timeout.
TEST_F(DispatcherTest, WaitResultsWakesOnDeliveryFromAnotherThread) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 1)).ok());
  std::thread deliverer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    complete_one(dispatcher_, executor);
  });
  const auto start = std::chrono::steady_clock::now();
  auto results = dispatcher_.wait_results(instance, 10, 5.0);
  const double waited = seconds_since(start);
  deliverer.join();
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results.value().size(), 1u);
  EXPECT_LT(waited, 2.0);
}

// The lost-wakeup regression: each result lands right after the waiter
// drained the mailbox, racing its next wait_results call.
TEST_F(DispatcherTest, WaitResultsWakesOnDeliveryRightAfterDrain) {
  constexpr int kRounds = 200;
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, kRounds)).ok());
  std::atomic<int> drained{0};
  std::thread deliverer([&] {
    for (int round = 0; round < kRounds; ++round) {
      while (drained.load() < round) std::this_thread::yield();
      complete_one(dispatcher_, executor);
    }
  });
  double slowest = 0.0;
  int received = 0;
  for (int round = 0; round < kRounds; ++round) {
    const auto start = std::chrono::steady_clock::now();
    auto results = dispatcher_.wait_results(instance, 10, 5.0);
    slowest = std::max(slowest, seconds_since(start));
    if (results.ok()) received += static_cast<int>(results.value().size());
    drained.store(round + 1);
  }
  deliverer.join();
  EXPECT_EQ(received, kRounds);
  EXPECT_LT(slowest, 2.0);
}

std::size_t thread_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(
      std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

// The dispatcher owns no sweep thread: a sweep interval configures the
// cadence for whoever calls sweep_once(), nothing more.
TEST(DispatcherThreads, SweepIntervalStartsNoThreadBeyondNotifyPool) {
  RealClock clock;
  DispatcherConfig config;
  config.notify_threads = 2;
  config.sweep_interval_s = 0.01;
  // Let pool threads of earlier tests finish exiting before the baseline.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::size_t before = thread_count();
  Dispatcher dispatcher(clock, config);
  EXPECT_EQ(thread_count(), before + 2);
}

TEST_F(DispatcherTest, DestroyInstanceDropsQueuedTasks) {
  const InstanceId instance = make_instance();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 10)).ok());
  ASSERT_TRUE(dispatcher_.destroy_instance(instance).ok());
  EXPECT_EQ(dispatcher_.status().queued, 0u);
}

TEST_F(DispatcherTest, EstimateBalancedBundlingCapsRuntime) {
  DispatcherConfig config;
  config.max_tasks_per_dispatch = 10;
  config.max_bundle_runtime_s = 5.0;
  Dispatcher dispatcher(clock_, config);
  auto instance = dispatcher.create_instance(ClientId{1});
  wire::RegisterRequest reg;
  auto executor =
      dispatcher.register_executor(reg, std::make_shared<RecordingSink>());
  ASSERT_TRUE(instance.ok() && executor.ok());

  // Mixed durations: 2s, 2s, 2s, 9s, 1s ...
  std::vector<TaskSpec> tasks;
  for (double d : {2.0, 2.0, 2.0, 9.0, 1.0, 1.0}) {
    tasks.push_back(make_sleep_task(
        TaskId{static_cast<std::uint64_t>(tasks.size() + 1)}, d));
  }
  ASSERT_TRUE(dispatcher.submit(instance.value(), std::move(tasks)).ok());

  // First bundle: 2+2 = 4 <= 5, adding the third 2s task would hit 6 > 5.
  auto first = dispatcher.get_work(executor.value(), 10);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().size(), 2u);

  // A single oversized task is still dispatched alone (progress guarantee).
  std::vector<TaskResult> results;
  for (const auto& spec : first.value()) results.push_back(success_for(spec));
  ASSERT_TRUE(dispatcher.deliver_results(executor.value(), results, 0).ok());
  auto second = dispatcher.get_work(executor.value(), 10);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().size(), 1u);  // the lone 2s task (2+9 > 5)
  results.clear();
  results.push_back(success_for(second.value()[0]));
  ASSERT_TRUE(dispatcher.deliver_results(executor.value(), results, 0).ok());
  auto third = dispatcher.get_work(executor.value(), 10);
  ASSERT_TRUE(third.ok());
  ASSERT_EQ(third.value().size(), 1u);
  EXPECT_DOUBLE_EQ(third.value()[0].estimated_runtime_s, 9.0);
}

/// Property sweep: N tasks through E executors with piggy-backing; every
/// task completes exactly once, in any interleaving.
class DispatcherExactlyOnce
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DispatcherExactlyOnce, AllTasksCompleteExactlyOnce) {
  const auto [task_count, executor_count] = GetParam();
  ManualClock clock;
  Dispatcher dispatcher(clock, DispatcherConfig{});
  auto instance = dispatcher.create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());

  std::vector<ExecutorId> executors;
  for (int e = 0; e < executor_count; ++e) {
    wire::RegisterRequest reg;
    auto id = dispatcher.register_executor(reg, std::make_shared<RecordingSink>());
    ASSERT_TRUE(id.ok());
    executors.push_back(id.value());
  }
  ASSERT_TRUE(dispatcher.submit(instance.value(),
                                sleep_tasks(1, task_count)).ok());

  // Round-robin executors through get-work/deliver with piggy-backing.
  std::map<std::uint64_t, int> completions;
  int remaining = task_count;
  std::vector<std::vector<TaskSpec>> holding(executors.size());
  std::size_t turn = 0;
  int guard = task_count * 10 + 100;
  while (remaining > 0 && guard-- > 0) {
    const std::size_t e = turn++ % executors.size();
    if (holding[e].empty()) {
      auto work = dispatcher.get_work(executors[e], 1);
      ASSERT_TRUE(work.ok());
      holding[e] = work.take();
      if (holding[e].empty()) continue;
    }
    std::vector<TaskResult> results;
    for (auto& spec : holding[e]) {
      ++completions[spec.id.value];
      results.push_back(success_for(spec));
      --remaining;
    }
    holding[e].clear();
    auto ack = dispatcher.deliver_results(executors[e], std::move(results), 1);
    ASSERT_TRUE(ack.ok());
    holding[e] = std::move(ack.value().piggyback);
  }
  ASSERT_EQ(remaining, 0);
  EXPECT_EQ(completions.size(), static_cast<std::size_t>(task_count));
  for (const auto& [task, count] : completions) {
    EXPECT_EQ(count, 1) << "task " << task;
  }
  EXPECT_EQ(dispatcher.status().completed,
            static_cast<std::uint64_t>(task_count));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DispatcherExactlyOnce,
    ::testing::Combine(::testing::Values(1, 16, 128, 1000),
                       ::testing::Values(1, 4, 32)));

// ---- batched routing + push-mode result streaming ----

/// ClientSink double recording pushed ResultStream batches; `accept` false
/// makes deliver() refuse the batch (no connection bound to the instance),
/// which must drop the instance back to polling.
struct RecordingClientSink final : ClientSink {
  std::mutex mu;
  std::condition_variable cv;
  bool accept{true};
  std::vector<std::pair<std::uint64_t, std::size_t>> batches;  // seq, count
  std::size_t streamed{0};

  bool deliver(InstanceId, std::uint64_t seq,
               const std::vector<TaskResult>& results) override {
    std::lock_guard lock(mu);
    if (!accept) return false;
    batches.emplace_back(seq, results.size());
    streamed += results.size();
    cv.notify_all();
    return true;
  }
  bool wait_streamed(std::size_t n, double timeout_s = 5.0) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                       [&] { return streamed >= n; });
  }
};

class DispatcherStreamingTest : public DispatcherTest {
 protected:
  DispatcherStreamingTest() : client_sink_(std::make_shared<RecordingClientSink>()) {
    dispatcher_.set_client_sink(client_sink_);
  }

  /// Pull `count` tasks and deliver their results as one bundle — the
  /// batched route_all path.
  void complete_tasks(ExecutorId executor, int count) {
    std::vector<TaskResult> results;
    for (int i = 0; i < count; ++i) {
      auto work = dispatcher_.get_work(executor, 1);
      ASSERT_TRUE(work.ok());
      ASSERT_EQ(work.value().size(), 1u);
      results.push_back(success_for(work.value()[0]));
    }
    ASSERT_TRUE(dispatcher_.deliver_results(executor, results, 0).ok());
  }

  std::shared_ptr<RecordingClientSink> client_sink_;
};

TEST_F(DispatcherStreamingTest, SubscribeStreamsAcksAndRearms) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  auto cursor = dispatcher_.subscribe_results(instance, 0);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor.value(), 0u);

  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 3)).ok());
  complete_tasks(executor, 3);
  ASSERT_TRUE(client_sink_->wait_streamed(3));
  {
    std::lock_guard lock(client_sink_->mu);
    // Cumulative seq: the last batch's seq equals the total streamed.
    EXPECT_EQ(client_sink_->batches.back().first, client_sink_->streamed);
  }

  // Un-acked results stay in the mailbox; the cumulative ack drops them.
  cursor = dispatcher_.subscribe_results(instance, 3);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor.value(), 3u);
  auto polled = dispatcher_.wait_results(instance, 10, 0.0);
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled.value().empty());

  // The drain stays armed: the next completion streams without any new
  // subscribe call.
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(10, 1)).ok());
  complete_tasks(executor, 1);
  ASSERT_TRUE(client_sink_->wait_streamed(4));
}

TEST_F(DispatcherStreamingTest, RejectedPushFallsBackToPolling) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  {
    std::lock_guard lock(client_sink_->mu);
    client_sink_->accept = false;
  }
  ASSERT_TRUE(dispatcher_.subscribe_results(instance, 0).ok());
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 2)).ok());
  complete_tasks(executor, 2);
  // deliver() refused the batch: the cursor rolled back and every result
  // is still poll-able — nothing lost, nothing duplicated.
  auto polled = dispatcher_.wait_results(instance, 10, 5.0);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value().size(), 2u);
  polled = dispatcher_.wait_results(instance, 10, 0.0);
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled.value().empty());
}

TEST_F(DispatcherStreamingTest, PollOnStreamingInstanceStaysExactlyOnce) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.subscribe_results(instance, 0).ok());
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 2)).ok());
  complete_tasks(executor, 2);
  ASSERT_TRUE(client_sink_->wait_streamed(2));

  // Streamed but un-acked: the firewall-mode poll takes over and returns
  // the same two results (the client's task-id filter absorbs the overlap).
  auto polled = dispatcher_.wait_results(instance, 10, 0.0);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value().size(), 2u);
  // A stale ack from before the poll must not discard anything.
  auto cursor = dispatcher_.subscribe_results(instance, 2);
  ASSERT_TRUE(cursor.ok());
  polled = dispatcher_.wait_results(instance, 10, 0.0);
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled.value().empty());

  // Still streaming: the next completion is pushed again.
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(10, 1)).ok());
  complete_tasks(executor, 1);
  ASSERT_TRUE(client_sink_->wait_streamed(3));
}

}  // namespace
}  // namespace falkon::core
