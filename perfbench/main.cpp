// The repo benchmark: one workload per process over the real TCP stack.
//
// A core::Dispatcher behind a TcpDispatcherServer serves 4 TcpExecutorHarness
// executors (NoopEngine, adaptive bundling up to 256 tasks, push-mode result
// stream) and one TcpDispatcherClient, all on loopback in this process.
//
//   batch_tcp            closed batch: each pass is one FalkonSession that
//                        submits 50k tasks in 5000-task bundles, then
//                        waits for every result
//   open_tcp             open loop: Poisson arrivals at 4000 tasks/s, one
//                        task per submit from a submitter thread, results
//                        drained by a second thread
//   batch_tcp_journaled  batch_tcp with a group-commit ha::AsyncJournal
//
// Usage: falkon_perfbench --workload W --seed N --seconds S --trace 0|1
//                         --scratch DIR [--trace-out FILE]
//
// Prints one line per metric ("name value unit"), then one JSON line with
// every metric. --trace 0 gives the end-to-end metrics; --trace 1 installs
// the timing decorators, samples the dispatcher, runs the isolated layer
// probes, writes the spans to --trace-out as Chrome-trace JSON and gives
// the per-layer metrics. Every run checks that each submitted task came
// back exactly once and succeeded; a failed check exits 1.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/clock.h"
#include "core/service_tcp.h"
#include "ha/async_journal.h"
#include "ha/journal.h"
#include "obs/obs.h"
#include "perfbench.h"

namespace fc = falkon::core;
namespace ha = falkon::ha;
using namespace perfbench;

namespace {

constexpr int kExecutors = 4;
constexpr std::uint32_t kMaxAdaptiveBundle = 256;
constexpr std::size_t kSubmitBundle = 5000;
constexpr std::size_t kBatchPassTasks = 50000;
constexpr double kOpenRate = 4000.0;  // tasks per second
constexpr int kBatchWarmupPasses = 6;
constexpr double kOpenWarmupS = 1.0;
constexpr std::int64_t kOpenWindowNs = 250000000;
constexpr int kSetups = 15;
constexpr std::size_t kSpanCapacity = 100000;

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0.0};
  bool trace{false};
  std::string scratch;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--scratch") {
      args.scratch = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  const bool known = args.workload == "batch_tcp" ||
                     args.workload == "open_tcp" ||
                     args.workload == "batch_tcp_journaled";
  return known && have_seed && args.seconds > 0 && !args.scratch.empty() &&
         (!args.trace || !args.trace_out.empty());
}

struct Cpu {
  double user_s{0.0};
  double sys_s{0.0};
  double ctx_switches{0.0};
};

Cpu cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(usage.ru_utime), secs(usage.ru_stime),
          static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw)};
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

long proc_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atol(line.c_str() + 8);
  }
  return 0;
}

/// TCP segments retransmitted in this network namespace (RetransSegs).
long tcp_retransmits() {
  std::ifstream snmp("/proc/net/snmp");
  std::string header, values;
  while (std::getline(snmp, header) && std::getline(snmp, values)) {
    if (header.rfind("Tcp:", 0) != 0) continue;
    std::istringstream names(header), numbers(values);
    std::string name, number;
    while (names >> name && numbers >> number) {
      if (name == "RetransSegs") return std::atol(number.c_str());
    }
  }
  return 0;
}

/// Steal and total jiffies of all CPUs: time the host ran something else
/// while this machine's CPUs wanted to run.
std::pair<double, double> cpu_steal_total() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  stat >> cpu >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5] >> v[6] >> v[7];
  return {v[7], v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7]};
}

long proc_fds() {
  std::error_code ec;
  long n = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/fd", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

/// The deployed stack. Declaration order is teardown order in reverse:
/// the client goes first, the journal last.
struct Stack {
  SpanLog* spans{nullptr};
  falkon::obs::Obs* obs{nullptr};
  falkon::RealClock clock;
  std::string journal_dir;
  std::unique_ptr<ha::AsyncJournal> journal;
  std::unique_ptr<TracedJournal> traced_journal;
  TracedPolicy* policy{nullptr};       // owned by the dispatcher
  std::vector<TracedEngine*> engines;  // owned by the harnesses
  std::unique_ptr<fc::Dispatcher> dispatcher;
  std::unique_ptr<fc::TcpDispatcherServer> server;
  std::vector<std::unique_ptr<fc::TcpExecutorHarness>> executors;
  std::unique_ptr<fc::TcpDispatcherClient> tcp;
  std::unique_ptr<MeasuredClient> client;
  std::unique_ptr<fc::FalkonSession> session;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { stop(); }

  bool start() {
    fc::DispatcherConfig config;
    config.max_adaptive_bundle = kMaxAdaptiveBundle;
    config.obs = obs;
    if (!journal_dir.empty()) {
      ha::Journal::Options options;
      options.dir = journal_dir;
      options.fsync = ha::FsyncPolicy::kGroupCommit;
      auto opened = ha::Journal::open(options);
      if (!opened.ok()) return false;
      journal = std::make_unique<ha::AsyncJournal>(std::move(opened.value()));
      if (spans != nullptr) {
        traced_journal = std::make_unique<TracedJournal>(*journal, spans);
        config.journal = traced_journal.get();
      } else {
        config.journal = journal.get();
      }
    }
    std::unique_ptr<fc::DispatchPolicy> dispatch_policy;
    if (spans != nullptr) {
      auto traced = std::make_unique<TracedPolicy>(
          std::make_unique<fc::NextAvailablePolicy>());
      policy = traced.get();
      dispatch_policy = std::move(traced);
    }
    dispatcher = std::make_unique<fc::Dispatcher>(clock, config,
                                                  std::move(dispatch_policy));
    server = std::make_unique<fc::TcpDispatcherServer>(*dispatcher);
    if (!server->start().ok()) return false;
    for (int e = 0; e < kExecutors; ++e) {
      std::unique_ptr<fc::TaskEngine> engine =
          std::make_unique<fc::NoopEngine>();
      if (spans != nullptr) {
        auto traced = std::make_unique<TracedEngine>(std::move(engine), *spans);
        engines.push_back(traced.get());
        engine = std::move(traced);
      }
      fc::ExecutorOptions options;
      options.adaptive_bundle = true;
      auto harness = std::make_unique<fc::TcpExecutorHarness>(
          clock, "127.0.0.1", server->rpc_port(), server->push_port(),
          std::move(engine), options);
      if (!harness->start().ok()) return false;
      executors.push_back(std::move(harness));
    }
    auto connected = fc::TcpDispatcherClient::connect(
        "127.0.0.1", server->rpc_port(), server->push_port());
    if (!connected.ok()) return false;
    tcp = std::move(connected.value());
    client = std::make_unique<MeasuredClient>(*tcp, spans);
    return open_session();
  }

  bool open_session() {
    session.reset();
    fc::SessionOptions options;
    options.bundle_size = kSubmitBundle;
    auto opened = fc::FalkonSession::open(*client, falkon::ClientId{1}, options);
    if (!opened.ok()) return false;
    session = std::move(opened.value());
    return true;
  }

  void stop() {
    session.reset();
    client.reset();
    tcp.reset();
    executors.clear();
    if (server) server->stop();
    if (dispatcher) dispatcher->shutdown();
  }
};

double cpu_s(const Cpu& cpu) { return cpu.user_s + cpu.sys_s; }

/// What one timed phase measured. Percentiles and per-task costs are taken
/// per window (a batch pass, or 250 ms of open-loop due times) and
/// reported as the median over windows, so one slow window moves a run's
/// figure no more than any other window does.
struct Phase {
  std::vector<double> tasks_per_s, cpu_us_per_task;
  std::vector<double> latency_p50_ms, latency_p99_ms, send_lag_p99_ms;
  std::uint64_t attempted{0};
  std::uint64_t completed{0};
  // Open loop, whole phase: the tail a single stall leaves behind.
  double whole_latency_p99_ms{0.0};
  double max_send_lag_ms{0.0};
};

/// Exactly-once check of one run of `n` expected tasks; returns the tasks
/// that were missing, duplicated, unexpected or unsuccessful.
std::uint64_t failures(const MeasuredClient& client, std::size_t n) {
  return (n - std::min<std::uint64_t>(client.received, n)) + client.duplicates +
         client.unexpected + client.unsuccessful;
}

/// ms from the due time of tasks [begin, end) to their send and arrival.
void add_window(const MeasuredClient& client,
                const std::vector<std::int64_t>& due_ns, std::size_t begin,
                std::size_t end, Phase& phase) {
  std::vector<double> latency, lag;
  for (std::size_t i = begin; i < end; ++i) {
    if (client.arrived_ns[i] != 0) {
      latency.push_back(static_cast<double>(client.arrived_ns[i] - due_ns[i]) / 1e6);
    }
    if (client.sent_ns[i] != 0) {
      lag.push_back(static_cast<double>(client.sent_ns[i] - due_ns[i]) / 1e6);
    }
  }
  phase.latency_p50_ms.push_back(quantile(latency, 0.5));
  phase.latency_p99_ms.push_back(quantile(latency, 0.99));
  phase.send_lag_p99_ms.push_back(quantile(lag, 0.99));
}

class Bench {
 public:
  explicit Bench(std::uint64_t seed) : gen_(seed) {}

  /// One closed-batch pass through a fresh session; false on a transport
  /// error (missing results are counted, not fatal).
  bool batch_pass(Stack& stack, Phase* phase) {
    std::vector<TaskSpec> tasks;
    tasks.reserve(kBatchPassTasks);
    const std::uint64_t first = next_id_;
    for (std::size_t i = 0; i < kBatchPassTasks; ++i) {
      tasks.push_back(gen_.make(next_id_++));
    }
    if (!stack.session && !stack.open_session()) return false;
    MeasuredClient& client = *stack.client;
    client.expect(first, kBatchPassTasks);
    const Cpu cpu0 = cpu_now();
    const std::int64_t start = now_ns();
    auto results = stack.session->run(std::move(tasks), 60.0);
    const std::int64_t end = now_ns();
    const Cpu cpu1 = cpu_now();
    stack.session.reset();
    attempted += kBatchPassTasks;
    failed += failures(client, kBatchPassTasks);
    if (phase == nullptr) return results.ok();
    phase->attempted += kBatchPassTasks;
    phase->completed += client.received - client.unsuccessful;
    phase->tasks_per_s.push_back(static_cast<double>(kBatchPassTasks) * 1e9 /
                                 static_cast<double>(end - start));
    phase->cpu_us_per_task.push_back((cpu_s(cpu1) - cpu_s(cpu0)) * 1e6 /
                                     static_cast<double>(kBatchPassTasks));
    // In a closed batch every task is due when the pass starts.
    add_window(client, std::vector<std::int64_t>(kBatchPassTasks, start), 0,
               kBatchPassTasks, *phase);
    return results.ok();
  }

  /// Poisson arrivals at kOpenRate for `seconds`: a submitter thread sends
  /// each task on its schedule, a drainer thread collects results.
  bool open_loop(Stack& stack, double seconds, Phase* phase) {
    std::vector<TaskSpec> tasks;
    std::vector<std::int64_t> offsets;
    const std::uint64_t first = next_id_;
    for (double t = gen_.rng().exponential(1.0 / kOpenRate); t < seconds;
         t += gen_.rng().exponential(1.0 / kOpenRate)) {
      offsets.push_back(static_cast<std::int64_t>(t * 1e9));
      tasks.push_back(gen_.make(next_id_++));
    }
    const std::size_t n = tasks.size();
    MeasuredClient& client = *stack.client;
    client.expect(first, n);
    const falkon::InstanceId instance = stack.session->instance();
    const std::int64_t start = now_ns() + 1000000;
    std::vector<std::int64_t> due(n);
    for (std::size_t i = 0; i < n; ++i) due[i] = start + offsets[i];

    // window_begin[w]: first task due in window w; window_cpu[w]: process
    // CPU when it was sent.
    std::vector<std::size_t> window_begin;
    std::vector<Cpu> window_cpu;
    std::atomic<bool> submit_failed{false};
    std::atomic<bool> submitted_all{false};
    std::thread submitter([&] {
      for (std::size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due[i])));
        if (offsets[i] / kOpenWindowNs >=
            static_cast<std::int64_t>(window_begin.size())) {
          window_begin.push_back(i);
          window_cpu.push_back(cpu_now());
        }
        std::vector<TaskSpec> one;
        one.push_back(std::move(tasks[i]));
        if (!client.submit(instance, std::move(one)).ok()) {
          submit_failed = true;
          break;
        }
      }
      submitted_all = true;
    });
    bool wait_failed = false;
    std::thread drainer([&] {
      std::int64_t last_progress = now_ns();
      while (client.received + client.duplicates < n) {
        const std::uint64_t before = client.received;
        if (!client.wait_results(instance, 1024, 0.05).ok()) {
          wait_failed = true;
          return;
        }
        if (client.received != before) last_progress = now_ns();
        // Give up 10 s after the last result once everything was sent.
        if (submitted_all && now_ns() - last_progress > 10000000000LL) return;
      }
    });
    submitter.join();
    drainer.join();
    attempted += n;
    failed += failures(client, n);
    const bool ok = !submit_failed && !wait_failed;
    if (phase == nullptr || !ok) return ok;
    const std::int64_t last_arrival =
        *std::max_element(client.arrived_ns.begin(), client.arrived_ns.end());
    phase->attempted += n;
    phase->completed += client.received - client.unsuccessful;
    phase->tasks_per_s.push_back(
        static_cast<double>(client.received - client.unsuccessful) * 1e9 /
        static_cast<double>(std::max<std::int64_t>(last_arrival - start, 1)));
    window_begin.push_back(n);
    for (std::size_t w = 0; w + 1 < window_begin.size(); ++w) {
      add_window(client, due, window_begin[w], window_begin[w + 1], *phase);
      // CPU is charged per complete window: from its first send to the
      // next window's first send.
      if (w + 1 < window_cpu.size()) {
        phase->cpu_us_per_task.push_back(
            (cpu_s(window_cpu[w + 1]) - cpu_s(window_cpu[w])) * 1e6 /
            static_cast<double>(window_begin[w + 1] - window_begin[w]));
      }
    }


    Phase whole;
    add_window(client, due, 0, n, whole);
    phase->whole_latency_p99_ms = whole.latency_p99_ms.front();
    for (std::size_t i = 0; i < n; ++i) {
      phase->max_send_lag_ms = std::max(
          phase->max_send_lag_ms,
          static_cast<double>(client.sent_ns[i] - due[i]) / 1e6);
    }
    return ok;
  }

  /// Every task this process submitted, and the ones that failed the
  /// exactly-once check (warm-up included).
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

 private:
  TaskGen gen_;
  std::uint64_t next_id_{1};
};

/// Dispatcher status sampled on a fixed period during the traced timed
/// phase, plus one /proc/self sample halfway through it.
class Sampler {
 public:
  Sampler(fc::Dispatcher& dispatcher, double seconds)
      : thread_([this, &dispatcher, seconds] {
          const std::int64_t start = now_ns();
          const auto half = static_cast<std::int64_t>(seconds * 0.5e9);
          while (!stop_) {
            depth_.push_back(static_cast<double>(dispatcher.status().queued));
            if (fds_ == 0 && now_ns() - start >= half) {
              fds_ = proc_fds();
              threads_ = proc_threads();
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }) {}

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  ~Sampler() {
    if (thread_.joinable()) join();
  }

  /// Stops the thread; the accessors are valid afterwards.
  void join() {
    stop_ = true;
    thread_.join();
    if (fds_ == 0) {
      fds_ = proc_fds();
      threads_ = proc_threads();
    }
  }
  [[nodiscard]] double depth_p50() const { return median(depth_); }
  [[nodiscard]] long fds() const { return fds_; }
  [[nodiscard]] long threads() const { return threads_; }

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> depth_;
  long fds_{0};
  long threads_{0};
  std::thread thread_;
};

std::string host_line() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  char line[256];
  std::snprintf(line, sizeof(line),
                "\"host_cores\":%u,\"loadavg\":[%.2f,%.2f,%.2f],"
                "\"build_type\":\"%s\"",
                std::thread::hardware_concurrency(), load[0], load[1], load[2],
                PERFBENCH_BUILD_TYPE);
  return line;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-40s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Reopen the journal directory and require a clean log whose recovered
/// image has nothing queued and every submitted task completed.
bool check_journal(const std::string& dir, std::uint64_t submitted) {
  ha::Journal::Options options;
  options.dir = dir;
  auto reopened = ha::Journal::open(options);
  if (!reopened.ok()) {
    std::fprintf(stderr, "journal reopen failed\n");
    return false;
  }
  const auto& stats = reopened.value()->recovery_stats();
  const auto image = reopened.value()->recovered_image();
  const bool ok = !stats.torn_tail && image.queue.empty() &&
                  image.submitted == submitted &&
                  image.completed == image.submitted;
  if (!ok) {
    std::fprintf(stderr,
                 "journal check failed: torn_tail=%d queued=%zu submitted=%llu "
                 "completed=%llu expected=%llu\n",
                 stats.torn_tail ? 1 : 0, image.queue.size(),
                 static_cast<unsigned long long>(image.submitted),
                 static_cast<unsigned long long>(image.completed),
                 static_cast<unsigned long long>(submitted));
  }
  return ok;
}

double histogram_mean_since(const falkon::obs::Histogram* h,
                            std::uint64_t count0, double sum0) {
  if (h == nullptr || h->count() <= count0) return 0.0;
  return (h->sum() - sum0) / static_cast<double>(h->count() - count0);
}

int run(const Args& args) {
  const bool batch = args.workload != "open_tcp";
  const bool journaled = args.workload == "batch_tcp_journaled";
  std::filesystem::create_directories(args.scratch);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d {%s}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, host_line().c_str());

  std::unique_ptr<SpanLog> spans;
  std::unique_ptr<falkon::obs::Obs> obs;
  if (args.trace) {
    spans = std::make_unique<SpanLog>(kSpanCapacity);
    obs = std::make_unique<falkon::obs::Obs>();
  }

  // Set-up, several times: each stack is started from nothing and all but
  // the last are torn down again.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    const std::string journal_dir =
        journaled ? args.scratch + "/journal-" + std::to_string(i) : "";
    if (!journal_dir.empty()) std::filesystem::remove_all(journal_dir);
    const std::int64_t start = now_ns();
    stack = std::make_unique<Stack>();
    stack->spans = spans.get();
    stack->obs = obs.get();
    stack->journal_dir = journal_dir;
    const bool started = stack->start();
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    if (!started) {
      std::fprintf(stderr, "stack start failed\n");
      return 1;
    }
  }

  Bench bench(args.seed);
  // Untimed warm-up: the first passes of a fresh process run slower while
  // the heap and the connections warm up.
  bool ok = true;
  if (batch) {
    for (int i = 0; ok && i < kBatchWarmupPasses; ++i) {
      ok = bench.batch_pass(*stack, nullptr);
    }
  } else {
    ok = bench.open_loop(*stack, kOpenWarmupS, nullptr);
  }

  // Timed phase. Traced runs reset the decorators' counters so they cover
  // exactly this phase.
  const falkon::obs::Histogram* bundle_h = nullptr;
  const falkon::obs::Histogram* route_h = nullptr;
  std::uint64_t bundle_n0 = 0, route_n0 = 0;
  double bundle_s0 = 0, route_s0 = 0;
  std::unique_ptr<Sampler> sampler;
  if (args.trace) {
    auto& reg = obs->registry();
    bundle_h = &reg.histogram("falkon.dispatcher.bundle_size", 1.0, 4096.0);
    route_h = &reg.histogram("falkon.dispatcher.route_batch_size", 1.0, 4096.0);
    bundle_n0 = bundle_h->count();
    bundle_s0 = bundle_h->sum();
    route_n0 = route_h->count();
    route_s0 = route_h->sum();
    for (auto* engine : stack->engines) engine->stats.reset();
    if (stack->traced_journal) stack->traced_journal->hooks.reset();
    stack->client->submit_us.clear();
    stack->client->waits = stack->client->empty_waits = 0;
    stack->client->wait_results_total = 0;
    spans->enable();
    sampler = std::make_unique<Sampler>(*stack->dispatcher, args.seconds);
  }
  Phase phase;
  const long retransmits0 = tcp_retransmits();
  const auto steal0 = cpu_steal_total();
  const Cpu cpu0 = cpu_now();
  const std::int64_t phase_start = now_ns();
  if (batch) {
    while (ok && static_cast<double>(now_ns() - phase_start) / 1e9 < args.seconds) {
      ok = bench.batch_pass(*stack, &phase);
    }
  } else {
    ok = ok && bench.open_loop(*stack, args.seconds, &phase);
  }
  const Cpu cpu1 = cpu_now();
  const long retransmits = tcp_retransmits() - retransmits0;
  const auto steal1 = cpu_steal_total();
  const double steal_pct = 100.0 * (steal1.first - steal0.first) /
                           std::max(1.0, steal1.second - steal0.second);
  if (sampler) sampler->join();
  if (spans) spans->disable();
  const auto status = stack->dispatcher->status();

  // A lost loopback segment waits out TCP's minimum retransmission timeout,
  // and CPU time stolen by the host delays every hop; the per-window
  // medians below do not show either, these lines do.
  std::printf("# timed phase: %llu tasks, %ld TCP segments retransmitted, "
              "host steal %.2f%%\n",
              static_cast<unsigned long long>(phase.attempted), retransmits,
              steal_pct);
  if (!batch) {
    std::printf("# whole phase: latency_p99_ms %.6f, send_lag_max_ms %.6f\n",
                phase.whole_latency_p99_ms, phase.max_send_lag_ms);
  }

  std::vector<Metric> metrics;
  double tasks_per_exchange = 1.0;
  double results_per_route = 1.0;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"tasks_per_s", median(phase.tasks_per_s), "1/s"},
        {"latency_p50_ms", median(phase.latency_p50_ms), "ms"},
        {"latency_p99_ms", median(phase.latency_p99_ms), "ms"},
        {"send_lag_p99_ms", median(phase.send_lag_p99_ms), "ms"},
        {"cpu_us_per_task", median(phase.cpu_us_per_task), "us"},
        {"rss_peak_mb", rss_peak_mb(), "MB"},
        {"failed_ratio",
         static_cast<double>(bench.failed) /
             static_cast<double>(std::max<std::uint64_t>(bench.attempted, 1)),
         "ratio"},
    };
  } else {
    const double tasks = static_cast<double>(std::max<std::uint64_t>(phase.completed, 1));
    const MeasuredClient& client = *stack->client;
    double engine_ns = 0, engine_calls = 0, engine_max = 0;
    for (auto* engine : stack->engines) {
      const auto calls = static_cast<double>(engine->stats.calls.load());
      engine_ns += static_cast<double>(engine->stats.ns.load());
      engine_calls += calls;
      engine_max = std::max(engine_max, calls);
    }
    engine_calls = std::max(engine_calls, 1.0);
    const double waits = static_cast<double>(std::max<std::uint64_t>(client.waits, 1));
    tasks_per_exchange = histogram_mean_since(bundle_h, bundle_n0, bundle_s0);
    results_per_route = histogram_mean_since(route_h, route_n0, route_s0);
    metrics = {
        {"tasks_per_s", median(phase.tasks_per_s), "1/s"},
        {"client.submit_us_p50", quantile(client.submit_us, 0.5), "us"},
        {"client.submit_us_p99", quantile(client.submit_us, 0.99), "us"},
        {"client.submit_us_max",
         client.submit_us.empty()
             ? 0.0
             : *std::max_element(client.submit_us.begin(), client.submit_us.end()),
         "us"},
        {"client.submit_calls", static_cast<double>(client.submit_us.size()), "count"},
        {"client.results_per_wait",
         static_cast<double>(client.wait_results_total) / waits, "count"},
        {"client.empty_wait_ratio", static_cast<double>(client.empty_waits) / waits,
         "ratio"},
        {"net.fds", static_cast<double>(sampler->fds()), "count"},
        {"net.tcp_retransmits", static_cast<double>(retransmits), "count"},
        {"proc.threads", static_cast<double>(sampler->threads()), "count"},
        {"dispatcher.queue_depth_p50", sampler->depth_p50(), "count"},
        {"dispatcher.retried_ratio",
         static_cast<double>(status.retried) /
             static_cast<double>(std::max<std::uint64_t>(status.submitted, 1)),
         "ratio"},
        {"dispatcher.policy_calls_per_task",
         static_cast<double>(stack->policy->stats.calls.load()) / tasks, "count"},
        {"dispatcher.tasks_per_exchange", tasks_per_exchange, "count"},
        {"dispatcher.results_per_route", results_per_route, "count"},
        {"executor.engine_ns_per_task", engine_ns / engine_calls, "ns"},
        {"executor.task_share_max", engine_max / engine_calls, "ratio"},
        {"proc.sys_share",
         (cpu1.sys_s - cpu0.sys_s) /
             std::max(1e-9, cpu1.user_s + cpu1.sys_s - cpu0.user_s - cpu0.sys_s),
         "ratio"},
        {"proc.ctx_switches_per_task",
         (cpu1.ctx_switches - cpu0.ctx_switches) / tasks, "count"},
    };
  }

  // Tear down, then check the journal the stack left behind.
  const std::uint64_t journal_tasks = bench.attempted;
  std::vector<Metric> journal_live;
  std::string journal_dir;
  if (journaled) {
    journal_dir = stack->journal_dir;
    if (stack->traced_journal) {
      journal_live = journal_metrics(*stack->traced_journal,
                                     std::max<std::uint64_t>(phase.completed, 1),
                                     dir_bytes(journal_dir));
    }
  }
  stack.reset();
  bool correct = ok && bench.failed == 0 && phase.attempted > 0;
  if (journaled) {
    correct = check_journal(journal_dir, journal_tasks) && correct;
  }

  if (args.trace) {
    // Isolated probes on the workload's own tasks (same seed, same ids) at
    // the message sizes the timed phase produced.
    auto shape = [](double mean) {
      return static_cast<std::size_t>(std::max(1.0, std::round(mean)));
    };
    WireShapes shapes;
    shapes.submit = batch ? kSubmitBundle : 1;
    shapes.task_bundle = shape(tasks_per_exchange);
    shapes.result_stream = shape(results_per_route);
    TaskGen probe_gen(args.seed);
    std::vector<TaskSpec> probe_tasks;
    for (std::uint64_t id = 1; id <= 20000; ++id) {
      probe_tasks.push_back(probe_gen.make(id));
    }
    auto wire = probe_wire(probe_tasks, shapes);
    const auto [rtt_p50, rtt_p99] = probe_rpc_rtt(probe_tasks.front());
    const double cycle_b1 = probe_dispatcher_cycle(probe_tasks, 1);
    const double cycle_b256 = probe_dispatcher_cycle(probe_tasks, 256);
    auto journal = journaled
                       ? journal_live
                       : probe_journal(probe_tasks, shapes,
                                       args.scratch + "/journal-probe");
    correct = correct && !wire.empty() && rtt_p50 > 0 && cycle_b1 > 0 &&
              cycle_b256 > 0 && !journal.empty();
    metrics.insert(metrics.end(), wire.begin(), wire.end());
    metrics.insert(metrics.end(), journal.begin(), journal.end());
    metrics.push_back({"net.rpc_rtt_us_p50", rtt_p50, "us"});
    metrics.push_back({"net.rpc_rtt_us_p99", rtt_p99, "us"});
    metrics.push_back({"dispatcher.cycle_ns_per_task.b1", cycle_b1, "ns"});
    metrics.push_back({"dispatcher.cycle_ns_per_task.b256", cycle_b256, "ns"});
    metrics.push_back(
        {"dispatcher.policy_ns_per_call", probe_policy(probe_tasks), "ns"});

    char other[512];
    std::snprintf(other, sizeof(other),
                  "\"workload\":\"%s\",\"seed\":%llu,%s,\"spans_recorded\":%llu,"
                  "\"spans_kept\":%llu",
                  args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed), host_line().c_str(),
                  static_cast<unsigned long long>(spans->recorded()),
                  static_cast<unsigned long long>(spans->kept()));
    if (!spans->write_chrome(args.trace_out, other)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      correct = false;
    }
    std::printf("# trace: %llu spans recorded, %llu kept, written to %s\n",
                static_cast<unsigned long long>(spans->recorded()),
                static_cast<unsigned long long>(spans->kept()),
                args.trace_out.c_str());
  }
  std::filesystem::remove_all(args.scratch);
  print_result(correct, bench.attempted, bench.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: falkon_perfbench --workload batch_tcp|open_tcp|"
                 "batch_tcp_journaled --seed N --seconds S --trace 0|1 "
                 "--scratch DIR [--trace-out FILE]\n");
    return 2;
  }
  return run(args);
}
