#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "perfbench.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto at = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(at),
                   values.end());
  return values[at];
}

TaskSpec TaskGen::make(std::uint64_t id) {
  TaskSpec spec = falkon::make_noop_task(TaskId{id});
  // 1-4 arguments of 4-64 bytes: a command line's worth of payload, so the
  // codec and the queue carry realistic, seed-dependent task sizes.
  const auto n_args = rng_.uniform_int(1, 4);
  for (std::uint64_t a = 0; a < n_args; ++a) {
    const auto len = rng_.uniform_int(4, 64);
    std::string arg(len, 'x');
    for (auto& c : arg) c = static_cast<char>('a' + rng_.uniform_int(0, 25));
    spec.args.push_back(std::move(arg));
  }
  return spec;
}

// ---------------------------------------------------------------- spans

namespace {
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}
}  // namespace

void SpanLog::record(const char* name, std::uint64_t task, std::uint32_t count,
                     std::int64_t start_ns, std::int64_t end_ns) {
  if (!on_.load(std::memory_order_relaxed)) return;
  const std::uint64_t index = next_.fetch_add(1, std::memory_order_relaxed);
  if (index >= spans_.size()) return;
  spans_[index] = Span{name, task, count, thread_index(), start_ns, end_ns};
}

std::uint64_t SpanLog::kept() const {
  return std::min<std::uint64_t>(recorded(), spans_.size());
}

bool SpanLog::write_chrome(const std::string& path,
                           const std::string& other) const {
  const std::size_t n = kept();
  // Submit spans sorted by first task id: a span carrying task t is the
  // child of the submit span whose [task, task + count) range holds t.
  std::vector<std::size_t> submits;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::strcmp(spans_[i].name, "client.submit") == 0) submits.push_back(i);
  }
  std::sort(submits.begin(), submits.end(), [&](std::size_t a, std::size_t b) {
    return spans_[a].task < spans_[b].task;
  });
  auto parent_of = [&](const Span& span) -> std::uint64_t {
    if (span.task == 0 || std::strcmp(span.name, "client.submit") == 0 ||
        std::strcmp(span.name, "client.wait_results") == 0) {
      return 0;
    }
    auto it = std::upper_bound(
        submits.begin(), submits.end(), span.task,
        [&](std::uint64_t task, std::size_t i) { return task < spans_[i].task; });
    if (it == submits.begin()) return 0;
    const Span& s = spans_[*(it - 1)];
    return span.task < s.task + s.count ? *(it - 1) + 1 : 0;
  };

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = n > 0 ? spans_[0].start_ns : 0;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":{%s},\n",
               other.c_str());
  std::fprintf(f, "\"traceEvents\":[\n");
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span_id\":%zu,"
                 "\"parent_id\":%llu,\"task_id\":%llu,\"tasks\":%u}}\n",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1,
                 static_cast<unsigned long long>(parent_of(s)),
                 static_cast<unsigned long long>(s.task), s.count);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ----------------------------------------------------------- decorators

void MeasuredClient::expect(std::uint64_t first_id, std::size_t count) {
  first_id_ = first_id;
  sent_ns.assign(count, 0);
  arrived_ns.assign(count, 0);
  received = duplicates = unexpected = unsuccessful = 0;
}

falkon::Result<std::uint64_t> MeasuredClient::submit(
    falkon::InstanceId instance, std::vector<TaskSpec> tasks) {
  const std::int64_t start = now_ns();
  const std::uint64_t first = tasks.empty() ? 0 : tasks.front().id.value;
  const auto count = static_cast<std::uint32_t>(tasks.size());
  for (const auto& task : tasks) {
    const std::uint64_t at = task.id.value - first_id_;
    if (at < sent_ns.size()) sent_ns[at] = start;
  }
  auto accepted = inner_.submit(instance, std::move(tasks));
  if (spans_ != nullptr) {
    const std::int64_t end = now_ns();
    submit_us.push_back(static_cast<double>(end - start) / 1e3);
    spans_->record("client.submit", first, count, start, end);
  }
  return accepted;
}

falkon::Result<std::vector<TaskResult>> MeasuredClient::wait_results(
    falkon::InstanceId instance, std::uint32_t max_results, double timeout_s) {
  const std::int64_t start = now_ns();
  auto results = inner_.wait_results(instance, max_results, timeout_s);
  const std::int64_t end = now_ns();
  if (!results.ok()) return results;
  for (const auto& result : results.value()) {
    const std::uint64_t at = result.task_id.value - first_id_;
    if (at >= arrived_ns.size()) {
      ++unexpected;
      continue;
    }
    if (arrived_ns[at] != 0) {
      ++duplicates;
      continue;
    }
    arrived_ns[at] = end;
    ++received;
    if (!result.success()) ++unsuccessful;
  }
  if (spans_ != nullptr) {
    const auto& batch = results.value();
    ++waits;
    if (batch.empty()) ++empty_waits;
    wait_results_total += batch.size();
    spans_->record("client.wait_results",
                   batch.empty() ? 0 : batch.front().task_id.value,
                   static_cast<std::uint32_t>(batch.size()), start, end);
  }
  return results;
}

TaskResult TracedEngine::run(const TaskSpec& task) {
  const std::int64_t start = now_ns();
  TaskResult result = inner_->run(task);
  const std::int64_t end = now_ns();
  stats.add(end - start);
  spans_.record("executor.run", task.id.value, 1, start, end);
  return result;
}

std::size_t TracedPolicy::select(
    const TaskSpec& task,
    const std::vector<falkon::core::ExecutorCandidate>& idle) {
  const std::int64_t start = now_ns();
  const std::size_t pick = inner_->select(task, idle);
  stats.add(now_ns() - start);
  return pick;
}

std::size_t TracedPolicy::select_task(
    const falkon::core::ExecutorCandidate& self,
    const std::vector<const TaskSpec*>& queue) {
  const std::int64_t start = now_ns();
  const std::size_t pick = inner_->select_task(self, queue);
  stats.add(now_ns() - start);
  return pick;
}

void TracedJournal::note(const char* name, std::uint64_t task,
                         std::size_t count, std::int64_t start_ns) {
  const std::int64_t end = now_ns();
  hooks.add(end - start_ns);
  if (spans_ != nullptr) {
    spans_->record(name, task, static_cast<std::uint32_t>(count), start_ns,
                   end);
  }
}

void TracedJournal::on_instance_created(falkon::InstanceId instance,
                                        falkon::ClientId client) {
  const std::int64_t start = now_ns();
  inner_.on_instance_created(instance, client);
  note("journal.on_instance_created", 0, 0, start);
}

void TracedJournal::on_instance_destroyed(falkon::InstanceId instance) {
  const std::int64_t start = now_ns();
  inner_.on_instance_destroyed(instance);
  note("journal.on_instance_destroyed", 0, 0, start);
}

void TracedJournal::on_submit(falkon::InstanceId instance,
                              std::uint64_t submit_seq,
                              const std::vector<TaskSpec>& tasks) {
  const std::int64_t start = now_ns();
  inner_.on_submit(instance, submit_seq, tasks);
  note("journal.on_submit", tasks.empty() ? 0 : tasks.front().id.value,
       tasks.size(), start);
}

void TracedJournal::on_assign(falkon::ExecutorId executor,
                              const std::vector<TaskId>& tasks) {
  const std::int64_t start = now_ns();
  inner_.on_assign(executor, tasks);
  note("journal.on_assign", tasks.empty() ? 0 : tasks.front().value,
       tasks.size(), start);
}

void TracedJournal::on_requeue(const std::vector<TaskId>& tasks, bool retry) {
  const std::int64_t start = now_ns();
  inner_.on_requeue(tasks, retry);
  note("journal.on_requeue", tasks.empty() ? 0 : tasks.front().value,
       tasks.size(), start);
}

void TracedJournal::on_complete(falkon::InstanceId instance,
                                const TaskResult& result, bool quarantined) {
  const std::int64_t start = now_ns();
  inner_.on_complete(instance, result, quarantined);
  note("journal.on_complete", result.task_id.value, 1, start);
}

void TracedJournal::on_delivered(falkon::InstanceId instance,
                                 const std::vector<TaskId>& tasks) {
  const std::int64_t start = now_ns();
  inner_.on_delivered(instance, tasks);
  note("journal.on_delivered", tasks.empty() ? 0 : tasks.front().value,
       tasks.size(), start);
}

void TracedJournal::barrier() {
  const std::int64_t start = now_ns();
  inner_.barrier();
  const std::int64_t end = now_ns();
  barrier_us.record(static_cast<double>(end - start) / 1e3);
  if (spans_ != nullptr) spans_->record("journal.barrier", 0, 0, start, end);
}

std::vector<Metric> journal_metrics(const TracedJournal& journal,
                                    std::uint64_t tasks,
                                    std::uint64_t dir_bytes) {
  const double n = static_cast<double>(std::max<std::uint64_t>(tasks, 1));
  return {
      {"journal.calls_per_task",
       static_cast<double>(journal.hooks.calls.load()) / n, "count"},
      {"journal.ns_per_task", static_cast<double>(journal.hooks.ns.load()) / n,
       "ns"},
      {"journal.barrier_us_p99", journal.barrier_us.quantile(0.99), "us"},
      {"journal.bytes_per_task", static_cast<double>(dir_bytes) / n, "B"},
  };
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
