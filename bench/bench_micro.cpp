// Google-benchmark microbenchmarks for the hot paths of this C++
// implementation: codec, framing, dispatcher operations, the end-to-end
// in-process dispatch cycle, and the DES engine.
#include <benchmark/benchmark.h>
#include <dirent.h>
#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/clock.h"
#include "common/queue.h"
#include "core/client.h"
#include "core/service.h"
#include "core/service_tcp.h"
#include "ha/failover_client.h"
#include "ha/journal.h"
#include "ha/standby.h"
#include "ha/wal.h"
#include "net/socket.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "sim/event_queue.h"
#include "wire/framing.h"
#include "wire/message.h"

namespace {

using namespace falkon;

/// Shared observability context: instrumented benchmark variants record
/// into it, and main() writes the accumulated registry to BENCH_micro.json.
obs::Obs& bench_obs() {
  static obs::Obs obs;
  return obs;
}

TaskSpec sample_task(std::uint64_t id) {
  TaskSpec spec = make_sleep_task(TaskId{id}, 0.0);
  spec.working_dir = "/tmp/run";
  spec.env = {{"PATH", "/usr/bin"}};
  return spec;
}

void BM_EncodeSubmitBundle(benchmark::State& state) {
  wire::SubmitRequest request;
  request.instance_id = InstanceId{1};
  for (int i = 0; i < state.range(0); ++i) {
    request.tasks.push_back(sample_task(static_cast<std::uint64_t>(i) + 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::encode_message(request));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeSubmitBundle)->Arg(1)->Arg(100)->Arg(1000);

void BM_DecodeSubmitBundle(benchmark::State& state) {
  wire::SubmitRequest request;
  request.instance_id = InstanceId{1};
  for (int i = 0; i < state.range(0); ++i) {
    request.tasks.push_back(sample_task(static_cast<std::uint64_t>(i) + 1));
  }
  const auto bytes = wire::encode_message(request);
  for (auto _ : state) {
    auto decoded = wire::decode_message(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeSubmitBundle)->Arg(1)->Arg(100)->Arg(1000);

void BM_BlockingQueuePushPop(benchmark::State& state) {
  BlockingQueue<int> queue;
  for (auto _ : state) {
    (void)queue.push(1);
    benchmark::DoNotOptimize(queue.try_pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockingQueuePushPop);

void BM_ObsCounterInc(benchmark::State& state) {
  obs::Counter& counter = bench_obs().registry().counter("bench.micro.counter");
  for (auto _ : state) {
    counter.inc();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterInc)->ThreadRange(1, 8);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Histogram& hist =
      bench_obs().registry().histogram("bench.micro.histogram", 1e-6, 1e2);
  double v = 1e-5;
  for (auto _ : state) {
    hist.record(v);
    v = v < 1.0 ? v * 1.001 : 1e-5;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramRecord)->ThreadRange(1, 8);

void BM_ObsTracerRecord(benchmark::State& state) {
  static obs::Tracer tracer(1 << 16);
  std::uint64_t id = 0;
  for (auto _ : state) {
    tracer.record(TaskId{++id}, obs::Stage::kExec, 0.0, 1.0, 7);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsTracerRecord)->ThreadRange(1, 8);

/// One dispatcher protocol cycle: get_work + deliver_results with
/// piggy-backing (the 2-messages-per-task steady state of section 3.4).
/// The /obs variant runs the same cycle with the metrics registry attached
/// — the delta is the total instrumentation cost per task.
template <bool kWithObs>
void BM_DispatcherCycle(benchmark::State& state) {
  ManualClock clock;
  core::DispatcherConfig config;
  if (kWithObs) config.obs = &bench_obs();
  core::Dispatcher dispatcher(clock, config);
  auto instance = dispatcher.create_instance(ClientId{1});
  struct NullSink final : core::ExecutorSink {
    void notify(ExecutorId, std::uint64_t) override {}
  };
  auto executor = dispatcher.register_executor(wire::RegisterRequest{},
                                               std::make_shared<NullSink>());
  std::uint64_t next_id = 1;
  std::vector<TaskSpec> seed;
  seed.push_back(make_noop_task(TaskId{next_id++}));
  (void)dispatcher.submit(instance.value(), seed);
  auto work = dispatcher.get_work(executor.value(), 1);
  TaskSpec current = work.value()[0];

  for (auto _ : state) {
    // Keep exactly one task queued so the piggy-back path always hits.
    std::vector<TaskSpec> refill;
    refill.push_back(make_noop_task(TaskId{next_id++}));
    (void)dispatcher.submit(instance.value(), refill);
    TaskResult result;
    result.task_id = current.id;
    auto outcome = dispatcher.deliver_results(executor.value(), {result}, 1);
    current = outcome.value().piggyback[0];
    // Drain the client mailbox so it does not grow unboundedly.
    (void)dispatcher.wait_results(instance.value(), 64, 0.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatcherCycle<false>)->Name("BM_DispatcherCycle");
BENCHMARK(BM_DispatcherCycle<true>)->Name("BM_DispatcherCycle/obs");

/// Full in-process end-to-end: client -> dispatcher -> executor threads ->
/// results. Items/sec here is this implementation's "Figure 3" number.
void BM_EndToEndInProc(benchmark::State& state) {
  RealClock clock;
  core::InProcFalkon falkon(clock, core::DispatcherConfig{});
  (void)falkon.add_executors(
      static_cast<int>(state.range(0)),
      [](Clock&) { return std::make_unique<core::NoopEngine>(); },
      core::ExecutorOptions{});
  auto session = core::FalkonSession::open(falkon.client(), ClientId{1});
  std::uint64_t next_id = 1;
  constexpr int kBatch = 1000;
  for (auto _ : state) {
    std::vector<TaskSpec> tasks;
    tasks.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      tasks.push_back(make_noop_task(TaskId{next_id++}));
    }
    auto results = session.value()->run(std::move(tasks), 60.0);
    if (!results.ok()) state.SkipWithError("run failed");
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EndToEndInProc)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// Parse an integer field ("Threads:", "VmRSS:") out of /proc/self/status.
long proc_self_status(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long value = -1;
  const std::size_t field_len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0) {
      value = std::strtol(line + field_len, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

long open_fd_count() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  long count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count - 2;  // "." and ".."
}

/// Connection-scale probe: N idle executors registered and subscribed over
/// real TCP against one TcpDispatcherServer, then one task cycled through
/// the fleet per iteration. The client side uses raw blocking sockets (one
/// per executor, zero threads), so the process totals isolate the server's
/// per-connection cost: with the reactor the Threads counter must stay flat
/// from N=16 to N=1024 — connections live in one epoll set, not one reader
/// thread each. Counters:
///   threads / fds / rss_mb    process totals after the fleet is up
///   rss_per_conn_kb           (RSS after fleet - RSS before) / connections;
///                             both stream ends are in-process, so this is
///                             the marginal footprint of one reactor-owned
///                             connection plus its raw client socket
///   notify_us                 submit() returning -> Notify frame readable
///   getwork_us                Notify -> GetWorkReply with the task in hand
void BM_ConnectionScale(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  RealClock clock;
  core::DispatcherConfig config;
  core::Dispatcher dispatcher(clock, config);
  core::TcpDispatcherServer server(dispatcher);
  if (!server.start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  const long rss_before_kb = proc_self_status("VmRSS:");

  struct ProbeExecutor {
    net::TcpStream rpc;
    ExecutorId id;
  };
  std::vector<ProbeExecutor> fleet;
  fleet.reserve(static_cast<std::size_t>(n));
  wire::Frame frame;
  // One call at a time per connection; pushed Notify frames (correlation
  // id 0) that land ahead of the reply are skipped.
  auto roundtrip = [&frame](net::TcpStream& stream,
                            const wire::Message& request)
      -> Result<wire::Message> {
    if (auto status =
            wire::write_frame(stream, 1, wire::encode_message(request));
        !status.ok()) {
      return status.error();
    }
    do {
      if (auto status = wire::read_frame(stream, frame); !status.ok()) {
        return status.error();
      }
    } while (frame.corr == 0);
    return wire::decode_message(frame.payload);
  };
  for (int e = 0; e < n; ++e) {
    ProbeExecutor executor;
    auto rpc = net::TcpStream::connect("127.0.0.1", server.rpc_port());
    if (!rpc.ok()) {
      state.SkipWithError("connect failed");
      return;
    }
    executor.rpc = rpc.take();
    wire::RegisterRequest reg;
    reg.node_id = NodeId{static_cast<std::uint64_t>(e) + 1};
    reg.host = "probe";
    auto reply = roundtrip(executor.rpc, reg);
    if (!reply.ok() ||
        !std::holds_alternative<wire::RegisterReply>(reply.value())) {
      state.SkipWithError("register failed");
      return;
    }
    executor.id = std::get<wire::RegisterReply>(reply.value()).executor_id;
    wire::Notify subscribe;
    subscribe.executor_id = executor.id;
    if (!roundtrip(executor.rpc, subscribe).ok()) {
      state.SkipWithError("subscribe failed");
      return;
    }
    fleet.push_back(std::move(executor));
  }

  auto client = core::TcpDispatcherClient::connect("127.0.0.1",
                                                   server.rpc_port());
  if (!client.ok()) {
    state.SkipWithError("client connect failed");
    return;
  }
  auto instance = client.value()->create_instance(ClientId{1});
  if (!instance.ok()) {
    state.SkipWithError("create_instance failed");
    return;
  }

  const long threads = proc_self_status("Threads:");
  const long fds = open_fd_count();
  const long rss_kb = proc_self_status("VmRSS:");
  // Each probe executor is one TCP connection, with both its reactor-owned
  // end and its raw client end in this process.
  const double rss_per_conn_kb =
      std::max(0.0, static_cast<double>(rss_kb - rss_before_kb)) /
      static_cast<double>(n);

  std::vector<pollfd> pollfds(static_cast<std::size_t>(n));
  for (int e = 0; e < n; ++e) {
    pollfds[static_cast<std::size_t>(e)] = {fleet[e].rpc.fd(), POLLIN, 0};
  }
  std::uint64_t next_task = 1;
  double notify_s = 0.0;
  double getwork_s = 0.0;
  using Ticker = std::chrono::steady_clock;
  auto seconds_since = [](Ticker::time_point start) {
    return std::chrono::duration<double>(Ticker::now() - start).count();
  };
  wire::Frame push_frame;
  for (auto _ : state) {
    std::vector<TaskSpec> tasks;
    tasks.push_back(make_noop_task(TaskId{next_task++}));
    const auto t0 = Ticker::now();
    if (!client.value()->submit(instance.value(), std::move(tasks)).ok()) {
      state.SkipWithError("submit failed");
      return;
    }
    // The dispatcher notifies one idle executor; wait for whichever
    // connection has a frame (already buffered, or its socket turns
    // readable) — an idle executor has no call in flight, so it is the
    // pushed Notify — then drive that executor's exchange.
    int woken = -1;
    for (int e = 0; e < n && woken < 0; ++e) {
      if (fleet[e].rpc.buffered() > 0) woken = e;
    }
    while (woken < 0) {
      if (::poll(pollfds.data(), pollfds.size(), 5000) <= 0) {
        state.SkipWithError("no notify within 5s");
        return;
      }
      for (int e = 0; e < n; ++e) {
        if (pollfds[static_cast<std::size_t>(e)].revents & POLLIN) {
          woken = e;
          break;
        }
      }
    }
    notify_s += seconds_since(t0);
    if (!wire::read_frame(fleet[woken].rpc, push_frame).ok() ||
        push_frame.corr != 0) {
      state.SkipWithError("push read failed");
      return;
    }
    const auto t1 = Ticker::now();
    wire::GetWorkRequest get;
    get.executor_id = fleet[woken].id;
    get.max_tasks = 1;
    auto work = roundtrip(fleet[woken].rpc, get);
    if (!work.ok() ||
        !std::holds_alternative<wire::GetWorkReply>(work.value()) ||
        std::get<wire::GetWorkReply>(work.value()).tasks.size() != 1) {
      state.SkipWithError("get_work failed");
      return;
    }
    getwork_s += seconds_since(t1);
    wire::ResultRequest done;
    done.executor_id = fleet[woken].id;
    TaskResult result;
    result.task_id = std::get<wire::GetWorkReply>(work.value()).tasks[0].id;
    done.results.push_back(result);
    if (!roundtrip(fleet[woken].rpc, done).ok()) {
      state.SkipWithError("deliver failed");
      return;
    }
    if (!client.value()->wait_results(instance.value(), 64, 5.0).ok()) {
      state.SkipWithError("wait_results failed");
      return;
    }
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["fds"] = static_cast<double>(fds);
  state.counters["rss_mb"] = static_cast<double>(rss_kb) / 1024.0;
  state.counters["rss_per_conn_kb"] = rss_per_conn_kb;
  state.counters["notify_us"] = notify_s / iters * 1e6;
  state.counters["getwork_us"] = getwork_s / iters * 1e6;
  auto& registry = bench_obs().registry();
  const auto label = std::to_string(n);
  registry.gauge("bench.micro.connscale.threads", {{"executors", label}})
      .set(static_cast<double>(threads));
  registry.gauge("bench.micro.connscale.fds", {{"executors", label}})
      .set(static_cast<double>(fds));
  registry.gauge("bench.micro.connscale.rss_mb", {{"executors", label}})
      .set(static_cast<double>(rss_kb) / 1024.0);
  registry.gauge("bench.micro.connscale.rss_per_conn_kb",
                 {{"executors", label}})
      .set(rss_per_conn_kb);
  registry.gauge("bench.micro.connscale.notify_us", {{"executors", label}})
      .set(notify_s / iters * 1e6);
}
BENCHMARK(BM_ConnectionScale)->Arg(16)->Arg(256)->Arg(1024)->Iterations(200);

/// WAL append cost per fsync policy (docs/HA.md): 128-byte records, one
/// append per iteration, into a fresh temp-dir log. Arg maps onto
/// ha::FsyncPolicy — 0 none, 1 every-record, 2 group-commit — so the
/// spread between Arg(0) and Arg(1) is the durability price per record.
void BM_WalAppend(benchmark::State& state) {
  const auto policy = static_cast<ha::FsyncPolicy>(state.range(0));
  char tmpl[] = "/tmp/falkon_bench_wal_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  const std::string dir = tmpl;
  ha::WalOptions options;
  options.dir = dir;
  options.fsync = policy;
  options.group_commit_interval_s = 0.005;
  auto wal = ha::Wal::open(options);
  if (!wal.ok()) {
    state.SkipWithError("wal open failed");
  } else {
    const std::vector<std::uint8_t> payload(128, 0xAB);
    using Ticker = std::chrono::steady_clock;
    const auto t0 = Ticker::now();
    for (auto _ : state) {
      if (!wal.value()->append(payload).ok()) {
        state.SkipWithError("append failed");
        break;
      }
    }
    const double elapsed_s =
        std::chrono::duration<double>(Ticker::now() - t0).count();
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(payload.size()));
    if (elapsed_s > 0.0) {
      bench_obs()
          .registry()
          .gauge("bench.micro.wal.appends_per_s",
                 {{"fsync", ha::fsync_policy_name(policy)}})
          .set(static_cast<double>(state.iterations()) / elapsed_s);
    }
    wal.value().reset();
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}
BENCHMARK(BM_WalAppend)->Arg(0)->Arg(1)->Arg(2);

/// Measured failover downtime (docs/HA.md): a journaled primary with a warm
/// standby sharing its log directory, queued-but-unserved tasks as state to
/// recover, then the primary dies and the probe times kill -> a
/// FailoverClient status() answered by the promoted standby on the same
/// port. Manual time, so the reported ms IS the client-visible outage.
void BM_HaFailoverDowntime(benchmark::State& state) {
  namespace fs = std::filesystem;
  double last_downtime_s = 0.0;
  for (auto _ : state) {
    char primary_tmpl[] = "/tmp/falkon_bench_ha_p_XXXXXX";
    char standby_tmpl[] = "/tmp/falkon_bench_ha_s_XXXXXX";
    if (::mkdtemp(primary_tmpl) == nullptr ||
        ::mkdtemp(standby_tmpl) == nullptr) {
      state.SkipWithError("mkdtemp failed");
      return;
    }
    const std::string primary_dir = primary_tmpl;
    const std::string standby_dir = standby_tmpl;
    RealClock clock;

    ha::Journal::Options jopts;
    jopts.dir = primary_dir;
    auto journal = ha::Journal::open(jopts);
    if (!journal.ok()) {
      state.SkipWithError("journal open failed");
      return;
    }
    core::DispatcherConfig config;
    config.journal = journal.value().get();
    auto dispatcher = std::make_unique<core::Dispatcher>(clock, config);
    auto server = std::make_unique<core::TcpDispatcherServer>(*dispatcher);
    if (!server->start().ok()) {
      state.SkipWithError("server start failed");
      return;
    }
    server->set_replication_source(journal.value().get());

    ha::StandbyOptions sopts;
    sopts.primary_rpc_port = server->rpc_port();
    sopts.takeover_rpc_port = server->rpc_port();
    sopts.shared_log_dir = primary_dir;
    sopts.standby_dir = standby_dir;
    sopts.poll_interval_s = 0.01;
    sopts.failover_after_s = 0.2;
    ha::Standby standby(clock, sopts);
    if (!standby.start().ok()) {
      state.SkipWithError("standby start failed");
      return;
    }

    ha::FailoverClientOptions copts;
    copts.rpc_port = server->rpc_port();
    ha::FailoverClient client(copts);
    auto instance = client.create_instance(ClientId{1});
    if (!instance.ok()) {
      state.SkipWithError("create_instance failed");
      return;
    }
    std::vector<TaskSpec> tasks;
    for (std::uint64_t i = 1; i <= 64; ++i) {
      tasks.push_back(make_noop_task(TaskId{i}));
    }
    if (!client.submit(instance.value(), std::move(tasks)).ok()) {
      state.SkipWithError("submit failed");
      return;
    }
    // Let the standby catch up so promotion replays a warm log.
    const auto catchup_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (standby.applied_lsn() < journal.value()->last_lsn() &&
           std::chrono::steady_clock::now() < catchup_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    const auto t0 = std::chrono::steady_clock::now();
    server->stop();
    server.reset();
    dispatcher->shutdown();
    dispatcher.reset();
    journal.value().reset();
    // One FailoverClient call rides out the outage internally (reconnect +
    // backoff) and returns as soon as the promoted standby answers.
    if (!client.status().ok()) {
      state.SkipWithError("post-failover status failed");
      return;
    }
    last_downtime_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    state.SetIterationTime(last_downtime_s);

    standby.stop();
    std::error_code ec;
    fs::remove_all(primary_dir, ec);
    fs::remove_all(standby_dir, ec);
  }
  bench_obs()
      .registry()
      .gauge("bench.micro.ha.failover_downtime_ms")
      .set(last_downtime_s * 1e3);
}
BENCHMARK(BM_HaFailoverDowntime)
    ->Iterations(3)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_SimulationEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int remaining = 100000;
    std::function<void()> chain = [&] {
      if (--remaining > 0) sim.schedule_in(0.001, chain);
    };
    sim.schedule_at(0.0, chain);
    sim.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SimulationEventThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Registry snapshot of the instrumented runs, BENCH_*.json style.
  if (obs::save_metrics_json(bench_obs().registry(), "BENCH_micro.json").ok()) {
    std::printf("metrics snapshot: BENCH_micro.json\n");
  }
  return 0;
}
