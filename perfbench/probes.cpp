// Isolated layer probes: each one drives a single layer through its public
// functions, outside the TCP stack, on the workload's own task shapes.

#include <algorithm>
#include <filesystem>

#include "common/clock.h"
#include "core/dispatcher.h"
#include "ha/async_journal.h"
#include "ha/journal.h"
#include "net/rpc.h"
#include "perfbench.h"
#include "wire/message.h"

namespace perfbench {

namespace fc = falkon::core;
namespace wire = falkon::wire;

namespace {

std::vector<TaskSpec> first_n(const std::vector<TaskSpec>& tasks,
                              std::size_t n) {
  return {tasks.begin(),
          tasks.begin() + static_cast<long>(std::min(n, tasks.size()))};
}

std::vector<TaskResult> results_for(const std::vector<TaskSpec>& tasks) {
  fc::NoopEngine engine;
  std::vector<TaskResult> results;
  results.reserve(tasks.size());
  for (const auto& task : tasks) results.push_back(engine.run(task));
  return results;
}

/// Median over rounds of ns per task for `op`, which handles `n` tasks per
/// call; each round runs enough calls to cover ~20k tasks.
template <class Op>
double ns_per_task(std::size_t n, Op&& op) {
  const std::size_t calls = std::max<std::size_t>(1, 20000 / n);
  std::vector<double> rounds;
  for (int round = 0; round < 7; ++round) {
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < calls; ++i) op();
    rounds.push_back(static_cast<double>(now_ns() - start) /
                     static_cast<double>(calls * n));
  }
  return median(std::move(rounds));
}

}  // namespace

std::vector<Metric> probe_wire(const std::vector<TaskSpec>& tasks,
                               const WireShapes& shapes) {
  wire::SubmitRequest submit;
  submit.instance_id = falkon::InstanceId{1};
  submit.tasks = first_n(tasks, shapes.submit);
  wire::TaskBundle task_bundle;
  task_bundle.executor_id = falkon::ExecutorId{1};
  task_bundle.bundle_seq = 1;
  task_bundle.tasks = first_n(tasks, shapes.task_bundle);
  wire::ResultBundle result_bundle;
  result_bundle.executor_id = falkon::ExecutorId{1};
  result_bundle.ack_seq = 1;
  result_bundle.results = results_for(first_n(tasks, shapes.task_bundle));
  result_bundle.want_tasks = wire::kAdaptiveWant;
  wire::ResultStream result_stream;
  result_stream.instance_id = falkon::InstanceId{1};
  result_stream.seq = 1;
  result_stream.results = results_for(first_n(tasks, shapes.result_stream));

  const std::pair<const char*, wire::Message> messages[] = {
      {"submit", submit},
      {"task_bundle", task_bundle},
      {"result_bundle", result_bundle},
      {"result_stream", result_stream},
  };
  const std::size_t sizes[] = {submit.tasks.size(), task_bundle.tasks.size(),
                               result_bundle.results.size(),
                               result_stream.results.size()};
  std::vector<Metric> encode, decode, bytes;
  wire::Writer writer;
  bool decoded_ok = true;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& [name, message] = messages[i];
    const std::size_t n = std::max<std::size_t>(sizes[i], 1);
    const auto encoded = wire::encode_message(message);
    encode.push_back({std::string("wire.encode_ns_per_task.") + name,
                      ns_per_task(n, [&] {
                        wire::encode_message_into(writer, message);
                      }),
                      "ns"});
    decode.push_back({std::string("wire.decode_ns_per_task.") + name,
                      ns_per_task(n, [&] {
                        decoded_ok &= wire::decode_message(encoded).ok();
                      }),
                      "ns"});
    bytes.push_back({std::string("wire.bytes_per_task.") + name,
                     static_cast<double>(encoded.size()) /
                         static_cast<double>(n),
                     "B"});
  }
  if (!decoded_ok) return {};
  std::vector<Metric> out = std::move(encode);
  out.insert(out.end(), decode.begin(), decode.end());
  out.insert(out.end(), bytes.begin(), bytes.end());
  return out;
}

std::pair<double, double> probe_rpc_rtt(const TaskSpec& sample) {
  falkon::net::RpcServer server;
  if (!server.start([](const wire::Message& request) { return request; })
           .ok()) {
    return {0.0, 0.0};
  }
  auto client = falkon::net::RpcClient::connect("127.0.0.1", server.port());
  if (!client.ok()) return {0.0, 0.0};
  wire::SubmitRequest request;
  request.instance_id = falkon::InstanceId{1};
  request.tasks = {sample};
  const wire::Message message = request;
  std::vector<double> rtt_us;
  for (int i = 0; i < 3200; ++i) {
    const std::int64_t start = now_ns();
    if (!client.value().call(message).ok()) return {0.0, 0.0};
    // The first 200 calls warm the connection and are not kept.
    if (i >= 200) rtt_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  client.value().close();
  server.stop();
  return {quantile(rtt_us, 0.5), quantile(rtt_us, 0.99)};
}

double probe_dispatcher_cycle(const std::vector<TaskSpec>& tasks,
                              std::size_t bundle) {
  falkon::RealClock clock;
  fc::Dispatcher dispatcher(clock, fc::DispatcherConfig{});
  struct NullSink final : fc::ExecutorSink {
    void notify(falkon::ExecutorId, std::uint64_t) override {}
  };
  auto instance = dispatcher.create_instance(falkon::ClientId{1});
  auto executor = dispatcher.register_executor(wire::RegisterRequest{},
                                               std::make_shared<NullSink>());
  if (!instance.ok() || !executor.ok()) return 0.0;
  fc::NoopEngine engine;
  std::uint64_t next_id = 1;
  const std::size_t cycles = std::max<std::size_t>(1, 40000 / bundle);
  std::vector<double> rounds;
  for (int round = 0; round < 5; ++round) {
    std::vector<std::vector<TaskSpec>> batches(cycles);
    for (auto& batch : batches) {
      for (std::size_t i = 0; i < bundle; ++i) {
        batch.push_back(tasks[(next_id - 1) % tasks.size()]);
        batch.back().id = TaskId{next_id++};
      }
    }
    const std::int64_t start = now_ns();
    for (auto& batch : batches) {
      if (!dispatcher.submit(instance.value(), std::move(batch)).ok()) {
        return 0.0;
      }
      for (std::size_t fetched = 0; fetched < bundle;) {
        auto work = dispatcher.get_work(executor.value(), wire::kAdaptiveBundle);
        if (!work.ok() || work.value().empty()) return 0.0;
        std::vector<TaskResult> results;
        for (const auto& task : work.value()) results.push_back(engine.run(task));
        fetched += results.size();
        if (!dispatcher.deliver_results(executor.value(), std::move(results), 0)
                 .ok()) {
          return 0.0;
        }
      }
      for (std::size_t received = 0; received < bundle;) {
        auto results = dispatcher.wait_results(
            instance.value(), static_cast<std::uint32_t>(bundle), 1.0);
        if (!results.ok() || results.value().empty()) return 0.0;
        received += results.value().size();
      }
    }
    rounds.push_back(static_cast<double>(now_ns() - start) /
                     static_cast<double>(cycles * bundle));
  }
  dispatcher.shutdown();
  return median(std::move(rounds));
}

double probe_policy(const std::vector<TaskSpec>& tasks) {
  TracedPolicy policy(std::make_unique<fc::NextAvailablePolicy>());
  std::vector<fc::ExecutorCandidate> idle;
  for (std::uint64_t e = 1; e <= 4; ++e) {
    idle.push_back({falkon::ExecutorId{e}, nullptr});
  }
  std::vector<const TaskSpec*> window;
  for (std::size_t i = 0; i < std::min<std::size_t>(32, tasks.size()); ++i) {
    window.push_back(&tasks[i]);
  }
  for (std::size_t i = 0; i < 100000; ++i) {
    (void)policy.select(tasks[i % tasks.size()], idle);
    (void)policy.select_task(idle[i % idle.size()], window);
  }
  return static_cast<double>(policy.stats.ns.load()) /
         static_cast<double>(policy.stats.calls.load());
}

std::vector<Metric> probe_journal(const std::vector<TaskSpec>& tasks,
                                  const WireShapes& shapes,
                                  const std::string& dir) {
  std::filesystem::remove_all(dir);
  falkon::ha::Journal::Options options;
  options.dir = dir;
  options.fsync = falkon::ha::FsyncPolicy::kGroupCommit;
  auto opened = falkon::ha::Journal::open(options);
  if (!opened.ok()) return {};
  std::vector<Metric> metrics;
  {
    falkon::ha::AsyncJournal journal(std::move(opened.value()));
    TracedJournal traced(journal, nullptr);
    const falkon::InstanceId instance{1};
    traced.on_instance_created(instance, falkon::ClientId{1});
    traced.barrier();
    // The dispatcher's order per submitted bundle: journal the submit and
    // wait for it, assign in task bundles, complete each task, and mark
    // the results delivered as the client acknowledges result frames.
    auto ids_of = [&](std::size_t from, std::size_t n) {
      std::vector<TaskId> ids;
      for (std::size_t i = from; i < std::min(from + n, tasks.size()); ++i) {
        ids.push_back(tasks[i].id);
      }
      return ids;
    };
    fc::NoopEngine engine;
    for (std::size_t at = 0; at < tasks.size(); at += shapes.submit) {
      const std::size_t end = std::min(at + shapes.submit, tasks.size());
      traced.on_submit(instance, 0,
                       {tasks.begin() + static_cast<long>(at),
                        tasks.begin() + static_cast<long>(end)});
      traced.barrier();
      for (std::size_t a = at; a < end; a += shapes.task_bundle) {
        traced.on_assign(falkon::ExecutorId{1},
                         ids_of(a, std::min(shapes.task_bundle, end - a)));
      }
      for (std::size_t c = at; c < end; ++c) {
        traced.on_complete(instance, engine.run(tasks[c]), false);
      }
      for (std::size_t d = at; d < end; d += shapes.result_stream) {
        traced.on_delivered(instance,
                            ids_of(d, std::min(shapes.result_stream, end - d)));
      }
    }
    traced.on_instance_destroyed(instance);
    traced.barrier();
    metrics = journal_metrics(traced, tasks.size(), dir_bytes(dir));
  }
  std::filesystem::remove_all(dir);
  return metrics;
}

}  // namespace perfbench
