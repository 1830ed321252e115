// Shared pieces of the repo benchmark: the seeded task generator, the
// in-memory span log, and the decorators that time calls into the public
// interfaces of each layer (client, executor engine, dispatch policy,
// journal). Nothing here reaches inside src/: every number is taken at a
// public boundary.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/task.h"
#include "core/client.h"
#include "core/journal.h"
#include "core/policies.h"
#include "core/task_engine.h"
#include "obs/metrics.h"

namespace perfbench {

using falkon::TaskId;
using falkon::TaskResult;
using falkon::TaskSpec;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median / quantile of a sample (sorts a copy; empty -> 0).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Seeded task inputs. The seed drives the argument count and sizes, so the
/// codec sees a different but same-shaped payload per seed; the program
/// only ever receives the generated TaskSpecs.
class TaskGen {
 public:
  explicit TaskGen(std::uint64_t seed) : rng_(seed) {}
  TaskSpec make(std::uint64_t id);
  falkon::Rng& rng() { return rng_; }

 private:
  falkon::Rng rng_;
};

// ---------------------------------------------------------------- spans

/// One timed call at a layer boundary. `task` is the first task id the call
/// carried (0: none) and `count` how many; parents are resolved when the
/// trace is written: a span carrying task t is a child of the client submit
/// span that sent t.
struct Span {
  const char* name{""};
  std::uint64_t task{0};
  std::uint32_t count{0};
  std::uint32_t tid{0};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
};

/// Fixed-capacity span buffer, filled lock-free and written out once after
/// every thread that records into it has stopped. Spans past the capacity
/// are counted, not kept.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : spans_(capacity) {}

  /// Spans are only kept between enable() and disable().
  void enable() { on_.store(true, std::memory_order_relaxed); }
  void disable() { on_.store(false, std::memory_order_relaxed); }

  void record(const char* name, std::uint64_t task, std::uint32_t count,
              std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] std::uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t kept() const;

  /// Chrome trace-event JSON ("X" events; args carry span_id, parent_id,
  /// task_id, tasks). `other` is a preformatted JSON object body for the
  /// top-level otherData field.
  bool write_chrome(const std::string& path, const std::string& other) const;

 private:
  std::vector<Span> spans_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<bool> on_{false};
};

/// Calls and summed nanoseconds at one boundary, updated from any thread.
struct CallStats {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
  void reset() {
    calls.store(0, std::memory_order_relaxed);
    ns.store(0, std::memory_order_relaxed);
  }
  void add(std::int64_t elapsed_ns) {
    calls.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(static_cast<std::uint64_t>(elapsed_ns),
                 std::memory_order_relaxed);
  }
};

// ----------------------------------------------------------- decorators

/// Client stub wrapper used in every run. It stamps when each task was
/// sent and when its result reached the caller (the end-to-end latency
/// and the exactly-once check), and, with a SpanLog, also records spans
/// and per-call statistics for the traced run.
class MeasuredClient final : public falkon::core::DispatcherClient {
 public:
  MeasuredClient(falkon::core::DispatcherClient& inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  /// Expect task ids [first_id, first_id + count) next; resets the stamps.
  void expect(std::uint64_t first_id, std::size_t count);

  falkon::Result<falkon::InstanceId> create_instance(
      falkon::ClientId client) override {
    return inner_.create_instance(client);
  }
  falkon::Result<std::uint64_t> submit(falkon::InstanceId instance,
                                       std::vector<TaskSpec> tasks) override;
  falkon::Result<std::vector<TaskResult>> wait_results(
      falkon::InstanceId instance, std::uint32_t max_results,
      double timeout_s) override;
  falkon::Status destroy_instance(falkon::InstanceId instance) override {
    return inner_.destroy_instance(instance);
  }
  falkon::Result<falkon::core::DispatcherStatus> status() override {
    return inner_.status();
  }

  /// Per expected task: send and arrival stamps (0 = never), plus the
  /// results that were duplicated, unexpected or unsuccessful.
  std::vector<std::int64_t> sent_ns;
  std::vector<std::int64_t> arrived_ns;
  std::uint64_t received{0};
  std::uint64_t duplicates{0};
  std::uint64_t unexpected{0};
  std::uint64_t unsuccessful{0};

  // Traced-run statistics (untouched without a SpanLog).
  std::vector<double> submit_us;
  std::uint64_t waits{0};
  std::uint64_t empty_waits{0};
  std::uint64_t wait_results_total{0};

 private:
  falkon::core::DispatcherClient& inner_;
  SpanLog* spans_;
  std::uint64_t first_id_{0};
};

/// Times every TaskEngine::run of one executor.
class TracedEngine final : public falkon::core::TaskEngine {
 public:
  TracedEngine(std::unique_ptr<falkon::core::TaskEngine> inner, SpanLog& spans)
      : inner_(std::move(inner)), spans_(spans) {}
  [[nodiscard]] TaskResult run(const TaskSpec& task) override;
  CallStats stats;

 private:
  std::unique_ptr<falkon::core::TaskEngine> inner_;
  SpanLog& spans_;
};

/// Counts and times policy decisions. The fast-path flags are forwarded so
/// the dispatcher takes exactly the path it takes undecorated.
class TracedPolicy final : public falkon::core::DispatchPolicy {
 public:
  explicit TracedPolicy(std::unique_ptr<falkon::core::DispatchPolicy> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] std::size_t select(
      const TaskSpec& task,
      const std::vector<falkon::core::ExecutorCandidate>& idle) override;
  [[nodiscard]] std::size_t select_task(
      const falkon::core::ExecutorCandidate& self,
      const std::vector<const TaskSpec*>& queue) override;
  [[nodiscard]] bool selects_queue_head() const override {
    return inner_->selects_queue_head();
  }
  [[nodiscard]] bool selects_first_idle() const override {
    return inner_->selects_first_idle();
  }
  CallStats stats;

 private:
  std::unique_ptr<falkon::core::DispatchPolicy> inner_;
};

/// Times every journal hook and barrier in front of the real journal.
class TracedJournal final : public falkon::core::StateJournal {
 public:
  TracedJournal(falkon::core::StateJournal& inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  void on_instance_created(falkon::InstanceId instance,
                           falkon::ClientId client) override;
  void on_instance_destroyed(falkon::InstanceId instance) override;
  void on_submit(falkon::InstanceId instance, std::uint64_t submit_seq,
                 const std::vector<TaskSpec>& tasks) override;
  void on_assign(falkon::ExecutorId executor,
                 const std::vector<TaskId>& tasks) override;
  void on_requeue(const std::vector<TaskId>& tasks, bool retry) override;
  void on_complete(falkon::InstanceId instance, const TaskResult& result,
                   bool quarantined) override;
  void on_delivered(falkon::InstanceId instance,
                    const std::vector<TaskId>& tasks) override;
  void barrier() override;

  CallStats hooks;
  falkon::obs::Histogram barrier_us{0.1, 1e7};

 private:
  void note(const char* name, std::uint64_t task, std::size_t count,
            std::int64_t start_ns);

  falkon::core::StateJournal& inner_;
  SpanLog* spans_;
};

// --------------------------------------------------------------- probes

/// Message sizes (tasks per message) the workload produced on the wire. A
/// ResultBundle carries the results of the TaskBundle before it, so both
/// use `task_bundle`.
struct WireShapes {
  std::size_t submit{1};
  std::size_t task_bundle{1};
  std::size_t result_stream{1};
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// encode_message / decode_message cost and size per task for the four
/// hot messages, built from `tasks` at `shapes`.
std::vector<Metric> probe_wire(const std::vector<TaskSpec>& tasks,
                               const WireShapes& shapes);

/// Loopback RpcClient::call round trip against an echoing RpcServer,
/// carrying `sample` as a one-task SubmitRequest. Returns {p50, p99} in us.
std::pair<double, double> probe_rpc_rtt(const TaskSpec& sample);

/// In-process Dispatcher submit -> get_work -> deliver_results ->
/// wait_results cycle at `bundle` tasks per step; ns per task.
double probe_dispatcher_cycle(const std::vector<TaskSpec>& tasks,
                              std::size_t bundle);

/// ns per select()/select_task() call through TracedPolicy around the
/// dispatcher's default policy, on the workload's tasks.
double probe_policy(const std::vector<TaskSpec>& tasks);

/// Replays the dispatcher's journal transitions for `tasks` at `shapes`
/// into a fresh group-commit AsyncJournal in `dir` through TracedJournal:
/// the journal layer's cost for workloads whose live dispatcher runs
/// without one. Returns journal.* metrics.
std::vector<Metric> probe_journal(const std::vector<TaskSpec>& tasks,
                                  const WireShapes& shapes,
                                  const std::string& dir);

/// journal.* metrics from a TracedJournal after `tasks` tasks and the
/// journal directory's size.
std::vector<Metric> journal_metrics(const TracedJournal& journal,
                                    std::uint64_t tasks,
                                    std::uint64_t dir_bytes);

/// Total size of the regular files in `dir`.
std::uint64_t dir_bytes(const std::string& dir);

}  // namespace perfbench
