// Unit tests for the common substrate: ids, Result, clocks, queues, thread
// pool, statistics, RNG, config, strings.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/clock.h"
#include "common/config.h"
#include "common/ids.h"
#include "common/queue.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/task.h"
#include "common/thread_pool.h"

namespace falkon {
namespace {

TEST(Ids, DefaultIsInvalidAndGeneratorIsMonotonic) {
  TaskId none;
  EXPECT_FALSE(none.valid());
  IdGenerator<TaskId> gen;
  TaskId a = gen.next();
  TaskId b = gen.next();
  EXPECT_TRUE(a.valid());
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
}

TEST(Ids, HashableInUnorderedContainers) {
  std::unordered_map<TaskId, int> map;
  map[TaskId{7}] = 1;
  map[TaskId{8}] = 2;
  EXPECT_EQ(map.at(TaskId{7}), 1);
  EXPECT_EQ(map.size(), 2u);
}

TEST(Result, ValueAndErrorPaths) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);

  Result<int> bad(make_error(ErrorCode::kTimeout, "too slow"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kTimeout);
  EXPECT_NE(bad.error().str().find("TIMEOUT"), std::string::npos);

  Status ok = ok_status();
  EXPECT_TRUE(ok.ok());
}

TEST(Clock, ManualClockAdvancesAndWakesSleepers) {
  ManualClock clock(100.0);
  EXPECT_DOUBLE_EQ(clock.now_s(), 100.0);

  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.sleep_s(5.0);
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  clock.advance(5.0);
  sleeper.join();
  EXPECT_TRUE(woke.load());
  EXPECT_DOUBLE_EQ(clock.now_s(), 105.0);
}

TEST(Clock, ScaledClockCompressesTime) {
  ScaledClock clock(100.0);
  EXPECT_DOUBLE_EQ(clock.rate(), 100.0);
  const double t0 = clock.now_s();
  clock.sleep_s(1.0);  // 10 ms real
  const double elapsed = clock.now_s() - t0;
  EXPECT_GE(elapsed, 0.9);
  EXPECT_LT(elapsed, 20.0);  // generous for CI jitter
}

TEST(BlockingQueue, FifoOrderAndBatchPop) {
  BlockingQueue<int> queue;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(queue.push(i).ok());
  EXPECT_EQ(queue.size(), 10u);
  auto batch = queue.pop_batch(4);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.front(), 0);
  EXPECT_EQ(batch.back(), 3);
  auto one = queue.pop();
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value(), 4);
}

TEST(BlockingQueue, CloseDrainsThenFails) {
  BlockingQueue<int> queue;
  ASSERT_TRUE(queue.push(1).ok());
  queue.close();
  EXPECT_FALSE(queue.push(2).ok());
  auto drained = queue.pop();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained.value(), 1);
  auto after = queue.pop();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.error().code, ErrorCode::kClosed);
}

TEST(BlockingQueue, PopForTimesOut) {
  BlockingQueue<int> queue;
  auto result = queue.pop_for(0.02);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kTimeout);
}

TEST(ThreadPool, RunsAllJobsAcrossThreads) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.submit([&] { counter.fetch_add(1); }).ok());
  }
  pool.shutdown();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_FALSE(pool.submit([] {}).ok());
}

TEST(Stats, AccumulatorMoments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);  // sample stddev
}

TEST(Stats, HistogramQuantiles) {
  Histogram hist(0.0, 100.0, 100);
  for (int i = 0; i < 1000; ++i) hist.add(static_cast<double>(i % 100));
  EXPECT_NEAR(hist.quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(hist.quantile(0.95), 95.0, 2.0);
  EXPECT_EQ(hist.moments().count(), 1000u);
}

TEST(Stats, HistogramUnderflowOverflowBins) {
  Histogram hist(0.0, 10.0, 10);
  hist.add(-5.0);   // below lo -> underflow, not bin 0
  hist.add(-0.01);  // just below lo
  hist.add(0.0);    // lo is inclusive
  hist.add(9.99);   // just below hi
  hist.add(10.0);   // hi is exclusive -> overflow
  hist.add(42.0);   // far above hi

  EXPECT_EQ(hist.underflow(), 2u);
  EXPECT_EQ(hist.overflow(), 2u);
  EXPECT_EQ(hist.bin_count(0), 1u);
  EXPECT_EQ(hist.bin_count(9), 1u);
  // Edge bins must not absorb out-of-range mass.
  std::size_t in_range = 0;
  for (std::size_t i = 0; i < hist.bins(); ++i) in_range += hist.bin_count(i);
  EXPECT_EQ(in_range, 2u);
  // Moments still see every sample.
  EXPECT_EQ(hist.moments().count(), 6u);
  EXPECT_DOUBLE_EQ(hist.moments().min(), -5.0);
  EXPECT_DOUBLE_EQ(hist.moments().max(), 42.0);
  // Quantiles resolve out-of-range mass to the range bounds.
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 10.0);
  // The ascii rendering surfaces the out-of-range mass.
  const std::string art = hist.ascii();
  EXPECT_NE(art.find("(underflow)"), std::string::npos);
  EXPECT_NE(art.find("(overflow)"), std::string::npos);
}

TEST(Stats, HistogramAllSamplesOutOfRange) {
  Histogram hist(0.0, 1.0, 4);
  hist.add(-1.0);
  hist.add(2.0);
  EXPECT_EQ(hist.underflow(), 1u);
  EXPECT_EQ(hist.overflow(), 1u);
  for (std::size_t i = 0; i < hist.bins(); ++i) EXPECT_EQ(hist.bin_count(i), 0u);
  EXPECT_EQ(hist.moments().count(), 2u);
  const std::string art = hist.ascii();
  EXPECT_NE(art.find("(underflow)"), std::string::npos);
  EXPECT_NE(art.find("(overflow)"), std::string::npos);
}

TEST(Stats, MovingAverageWindow) {
  MovingAverage ma(3);
  ma.add(3.0);
  EXPECT_DOUBLE_EQ(ma.value(), 3.0);
  ma.add(6.0);
  ma.add(9.0);
  EXPECT_DOUBLE_EQ(ma.value(), 6.0);
  ma.add(12.0);  // 3 drops out
  EXPECT_DOUBLE_EQ(ma.value(), 9.0);
}

TEST(Stats, TimeSeriesSampleAndIntegrate) {
  TimeSeries series;
  series.add(0.0, 1.0);
  series.add(10.0, 3.0);
  series.add(20.0, 0.0);
  EXPECT_DOUBLE_EQ(series.sample(5.0), 1.0);
  EXPECT_DOUBLE_EQ(series.sample(10.0), 3.0);
  EXPECT_DOUBLE_EQ(series.sample(-1.0, -7.0), -7.0);
  // integral: 1*10 + 3*10 + 0*10 = 40 over [0,30)
  EXPECT_DOUBLE_EQ(series.integrate(0.0, 30.0), 40.0);
}

TEST(Stats, ThroughputSamplerMovingAverage) {
  ThroughputSampler sampler(1.0);
  for (int t = 0; t < 10; ++t) {
    for (int k = 0; k < 5; ++k) sampler.record(t + 0.1 * k);
  }
  ASSERT_EQ(sampler.samples().size(), 10u);
  EXPECT_EQ(sampler.samples()[0], 5u);
  auto ma = sampler.moving_average(60);
  EXPECT_NEAR(ma.back(), 5.0, 1e-9);
}

TEST(Rng, DeterministicUnderSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformBoundsAndExponentialMean) {
  Rng rng(7);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform(2.0, 4.0);
    ASSERT_GE(u, 2.0);
    ASSERT_LT(u, 4.0);
    acc.add(rng.exponential(5.0));
  }
  EXPECT_NEAR(acc.mean(), 5.0, 0.2);
}

TEST(Config, ParseTypedValuesAndComments) {
  auto config = Config::parse(
      "# falkon config\n"
      "executors = 64\n"
      "idle_timeout_s = 15.5\n"
      "piggyback = true\n"
      "name = falkon-15 # trailing comment\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().get_int("executors", 0), 64);
  EXPECT_DOUBLE_EQ(config.value().get_double("idle_timeout_s", 0), 15.5);
  EXPECT_TRUE(config.value().get_bool("piggyback", false));
  EXPECT_EQ(config.value().get_string("name"), "falkon-15");
  EXPECT_EQ(config.value().get_int("missing", -3), -3);
}

TEST(Config, RejectsMalformedLines) {
  auto config = Config::parse("this is not a key value pair\n");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.error().code, ErrorCode::kInvalidArgument);
}

TEST(Strings, SplitTrimFormat) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(strf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(human_bytes(1ULL << 20), "1 MB");
  EXPECT_EQ(human_duration(7200.0), "2.00 h");
}

TEST(Task, SleepTaskBuilder) {
  auto task = make_sleep_task(TaskId{1}, 2.5);
  EXPECT_EQ(task.executable, "sleep");
  ASSERT_EQ(task.args.size(), 1u);
  EXPECT_DOUBLE_EQ(task.estimated_runtime_s, 2.5);
}

TEST(Task, StateNames) {
  EXPECT_STREQ(task_state_name(TaskState::kQueued), "QUEUED");
  EXPECT_STREQ(task_state_name(TaskState::kCompleted), "COMPLETED");
}

}  // namespace
}  // namespace falkon
