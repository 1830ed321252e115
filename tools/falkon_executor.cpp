// falkon-executor: standalone executor daemon.
//
//   $ falkon-executor --host H --rpc-port N
//                     [--count K] [--engine shell|noop|sleep]
//                     [--idle-timeout S] [--bundle N] [--prefetch]
//                     [--poll INTERVAL_S]
//
// Starts K executors that register with a remote dispatcher, pull work,
// run it (by default as real processes), and release themselves after the
// idle timeout (the distributed resource-release policy).
#include <csignal>
#include <cstdio>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"
#include "core/service_tcp.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace falkon;

  std::string host = "127.0.0.1";
  std::uint16_t rpc_port = 0;
  int count = 1;
  std::string engine_name = "shell";
  core::ExecutorOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--rpc-port") {
      rpc_port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--count") {
      count = std::atoi(next());
    } else if (arg == "--engine") {
      engine_name = next();
    } else if (arg == "--idle-timeout") {
      options.idle_timeout_s = std::atof(next());
    } else if (arg == "--bundle") {
      options.max_bundle = static_cast<std::uint32_t>(std::atoi(next()));
      options.piggyback_tasks = options.max_bundle;
    } else if (arg == "--prefetch") {
      options.prefetch = true;
    } else if (arg == "--poll") {
      // Firewall-bypass mode: no pushed notifications, the executor polls.
      options.poll_interval_s = std::atof(next());
    } else if (arg == "--verbose") {
      Logger::instance().set_level(LogLevel::kDebug);
    } else {
      std::fprintf(stderr,
                   "usage: %s --host H --rpc-port N [--count K]"
                   " [--engine shell|noop|sleep] [--idle-timeout S]"
                   " [--bundle N] [--prefetch] [--poll INTERVAL_S] [--verbose]\n",
                   argv[0]);
      return 2;
    }
  }
  if (rpc_port == 0) {
    std::fprintf(stderr, "--rpc-port is required\n");
    return 2;
  }

  RealClock clock;
  auto make_engine = [&]() -> std::unique_ptr<core::TaskEngine> {
    if (engine_name == "noop") return std::make_unique<core::NoopEngine>();
    if (engine_name == "sleep") return std::make_unique<core::SleepEngine>(clock);
    return std::make_unique<core::ShellEngine>();
  };

  std::vector<std::unique_ptr<core::TcpExecutorHarness>> pool;
  for (int e = 0; e < count; ++e) {
    auto harness = std::make_unique<core::TcpExecutorHarness>(
        clock, host, rpc_port, /*push_port=*/0, make_engine(), options);
    if (auto status = harness->start(); !status.ok()) {
      std::fprintf(stderr, "executor %d failed to start: %s\n", e,
                   status.error().str().c_str());
      return 1;
    }
    pool.push_back(std::move(harness));
  }
  std::printf("falkon-executor: %d executor(s) registered with %s:%u"
              " (engine=%s, idle-timeout=%.0fs)\n",
              count, host.c_str(), rpc_port, engine_name.c_str(),
              options.idle_timeout_s);
  std::fflush(stdout);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // Run until killed or every executor self-released (idle timeout).
  for (;;) {
    if (g_stop) break;
    bool any_running = false;
    for (const auto& harness : pool) {
      if (harness->runtime().running()) any_running = true;
    }
    if (!any_running) {
      std::printf("all executors released (idle timeout); exiting\n");
      break;
    }
    clock.sleep_s(0.2);
  }
  std::uint64_t executed = 0;
  for (auto& harness : pool) {
    harness->stop();
    executed += harness->runtime().stats().tasks_executed;
  }
  std::printf("executed %llu tasks\n",
              static_cast<unsigned long long>(executed));
  return 0;
}
