// Chaos soak (docs/FAULTS.md): the full TCP deployment and the DES model
// each run ≥1000 tasks under a seeded FaultPlan mixing five-plus fault
// types (connection drops, request corruption, lost replies, lost push
// frames, executor crash/hang/slow, lost acks). The invariant under test
// is the recovery contract: every submitted task reaches exactly one
// terminal state (completed or failed), results are delivered to the
// client at most once, and the DES is bit-reproducible for a given seed.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/client.h"
#include "core/service_tcp.h"
#include "fault/fault.h"
#include "ha/failover_client.h"
#include "ha/journal.h"
#include "ha/standby.h"
#include "obs/obs.h"
#include "sim/sim_falkon.h"
#include "testkit/history.h"
#include "testkit/runners.h"

namespace falkon::core {
namespace {

void nap_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Client stub wrapper that survives injected reply drops: a failed call
/// discards the connection and redials. Only used for idempotent reads
/// (status, wait_results) — submit goes through call_once so a processed-
/// but-reply-lost submit is never blindly re-sent (that would duplicate
/// task ids).
class ReliableClient {
 public:
  ReliableClient(std::string host, std::uint16_t port)
      : host_(std::move(host)), port_(port) {}

  template <class Fn>
  auto call(Fn&& fn) -> decltype(fn(std::declval<TcpDispatcherClient&>())) {
    auto result = call_once(fn);
    for (int attempt = 0; attempt < 200 && !result.ok(); ++attempt) {
      nap_ms(10);
      result = call_once(fn);
    }
    return result;
  }

  template <class Fn>
  auto call_once(Fn&& fn) -> decltype(fn(std::declval<TcpDispatcherClient&>())) {
    if (!client_) {
      auto connected = TcpDispatcherClient::connect(host_, port_);
      if (!connected.ok()) return connected.error();
      client_ = connected.take();
    }
    auto result = fn(*client_);
    if (!result.ok()) client_.reset();  // sever: redial on the next call
    return result;
  }

 private:
  std::string host_;
  std::uint16_t port_;
  std::unique_ptr<TcpDispatcherClient> client_;
};

TEST(ChaosTcp, SoakEveryTaskReachesExactlyOneTerminalState) {
  constexpr std::uint64_t kTasks = 1000;
  constexpr int kExecutors = 6;

  RealClock clock;
  obs::Obs obs;

  fault::FaultPlan plan;
  plan.seed = 20260807;
  plan.with(fault::Site::kRpcConnect, fault::Action::kDrop, 0.15);
  plan.with(fault::Site::kRpcRequest, fault::Action::kDrop, 0.02);
  plan.with(fault::Site::kRpcRequest, fault::Action::kCorrupt, 0.02);
  plan.with(fault::Site::kRpcReply, fault::Action::kDrop, 0.01);
  plan.with(fault::Site::kPushFrame, fault::Action::kDrop, 0.10);
  plan.with(fault::Site::kExecutorTask, fault::Action::kCrash, 0.008);
  plan.with(fault::Site::kExecutorTask, fault::Action::kHang, 0.004, 0.2);
  plan.with(fault::Site::kExecutorTask, fault::Action::kSlow, 0.02, 0.01);
  plan.with(fault::Site::kDispatcherAck, fault::Action::kDrop, 0.02);
  fault::FaultInjector injector{plan, &obs};

  DispatcherConfig config;
  config.replay.response_timeout_s = 0.4;
  config.replay.max_retries = 1000;  // recovery, not exhaustion, ends tasks
  config.heartbeat_timeout_s = 0.6;
  config.sweep_interval_s = 0.05;
  config.renotify_timeout_s = 0.3;
  config.quarantine_threshold = 6;
  config.obs = &obs;
  config.fault = &injector;
  Dispatcher dispatcher(clock, config);
  TcpDispatcherServer server(dispatcher, &obs);
  ASSERT_TRUE(server.start(0, &injector).ok());

  // Executor fleet with a supervisor: injected crashes (and executors torn
  // down by false suspicions) exit their runtime; the supervisor respawns
  // the slot, like a provisioner keeping the allocation at size.
  std::uint64_t next_node = 1;
  std::vector<std::unique_ptr<TcpExecutorHarness>> fleet(kExecutors);
  auto spawn = [&](int slot) {
    ExecutorOptions options;
    options.node_id = NodeId{next_node++};
    options.heartbeat_interval_s = 0.15;
    options.link_retries = 6;
    options.register_retries = 6;
    options.backoff.base_s = 0.02;
    options.backoff.max_s = 0.2;
    // Half the fleet polls (firewall mode), half relies on push
    // notifications plus the renotify sweep for lost frames.
    options.poll_interval_s = (slot % 2 == 0) ? 0.25 : 0.0;
    options.fault = &injector;
    auto harness = std::make_unique<TcpExecutorHarness>(
        clock, "127.0.0.1", server.rpc_port(), server.push_port(),
        std::make_unique<NoopEngine>(), options);
    if (harness->start().ok()) fleet[slot] = std::move(harness);
  };
  for (int slot = 0; slot < kExecutors; ++slot) spawn(slot);

  ReliableClient client("127.0.0.1", server.rpc_port());
  auto instance = client.call(
      [](TcpDispatcherClient& c) { return c.create_instance(ClientId{1}); });
  ASSERT_TRUE(instance.ok()) << instance.error().str();

  std::vector<TaskSpec> tasks;
  for (std::uint64_t i = 1; i <= kTasks; ++i) {
    tasks.push_back(make_sleep_task(TaskId{i}, 0.0));
  }
  // The client path injects no request/connect faults, so a single submit
  // always reaches the dispatcher; only its reply can be lost. Confirm via
  // the (idempotent) status call instead of re-sending.
  auto submit = client.call_once([&](TcpDispatcherClient& c) {
    return c.submit(instance.value(), tasks);
  });
  if (!submit.ok()) {
    std::cerr << "submit reply lost (expected under chaos): "
              << submit.error().str() << "\n";
  }
  auto accepted = client.call([](TcpDispatcherClient& c) { return c.status(); });
  ASSERT_TRUE(accepted.ok());
  ASSERT_EQ(accepted.value().submitted, kTasks);

  // Soak: supervise the fleet until every task is terminal.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(90);
  for (;;) {
    const DispatcherStatus status = dispatcher.status();
    if (status.completed + status.failed >= kTasks) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "soak stalled: completed=" << status.completed
        << " failed=" << status.failed << " queued=" << status.queued
        << " dispatched=" << status.dispatched;
    for (int slot = 0; slot < kExecutors; ++slot) {
      if (!fleet[slot] || !fleet[slot]->runtime().running()) {
        fleet[slot].reset();
        spawn(slot);
      }
    }
    nap_ms(25);
  }

  // Exactly one terminal state per task, nothing in flight or queued.
  const DispatcherStatus status = dispatcher.status();
  EXPECT_EQ(status.completed + status.failed, kTasks);
  EXPECT_EQ(status.queued, 0u);
  EXPECT_EQ(status.dispatched, 0u);
  EXPECT_GT(status.retried, 0u);

  // No duplicate result delivery: every picked-up result id is distinct.
  // (A reply lost on the wait_results wire can drop a handful of already-
  // popped results, so collection may come up slightly short — but it can
  // never contain the same task twice.)
  std::set<std::uint64_t> ids;
  std::uint64_t collected = 0;
  int idle_polls = 0;
  while (collected < kTasks && idle_polls < 8) {
    auto batch = client.call_once([&](TcpDispatcherClient& c) {
      return c.wait_results(instance.value(), 256, 0.25);
    });
    if (!batch.ok() || batch.value().empty()) {
      ++idle_polls;
      continue;
    }
    idle_polls = 0;
    for (const auto& result : batch.value()) {
      EXPECT_TRUE(ids.insert(result.task_id.value).second)
          << "duplicate delivery of task " << result.task_id.value;
      EXPECT_GE(result.task_id.value, 1u);
      EXPECT_LE(result.task_id.value, kTasks);
      ++collected;
    }
  }
  EXPECT_GE(collected, kTasks * 9 / 10);

  // The recovery machinery actually ran, and obs agrees with the
  // dispatcher's own accounting.
  obs::Registry& reg = obs.registry();
  EXPECT_GT(reg.counter("falkon.dispatcher.sweeps").value(), 0u);
  EXPECT_GT(reg.counter("falkon.dispatcher.heartbeats").value(), 0u);
  EXPECT_EQ(reg.counter("falkon.dispatcher.tasks_retried").value(),
            status.retried);
  EXPECT_EQ(reg.counter("falkon.dispatcher.suspicions").value(),
            status.suspicions);
  EXPECT_EQ(reg.counter("falkon.dispatcher.false_suspicions").value(),
            status.false_suspicions);
  EXPECT_EQ(reg.counter("falkon.dispatcher.tasks_quarantined").value(),
            status.quarantined);

  // The plan's fault sites genuinely fired — but a site only gates when
  // the run gave it enough opportunities that silence would be a real
  // bug. P(no injection) = (1-p)^ops, so ops*p >= 14 puts that below
  // 1e-6; fewer samples (push_frame in a run that drains mostly via
  // piggy-backing can see only a handful of pushes) prove nothing.
  struct SiteProb {
    fault::Site site;
    double prob;
  };
  for (const SiteProb sp :
       {SiteProb{fault::Site::kRpcRequest, 0.04},
        SiteProb{fault::Site::kRpcReply, 0.01},
        SiteProb{fault::Site::kPushFrame, 0.10},
        SiteProb{fault::Site::kExecutorTask, 0.032},
        SiteProb{fault::Site::kDispatcherAck, 0.02}}) {
    const fault::SiteStats stats = injector.stats(sp.site);
    if (static_cast<double>(stats.ops) * sp.prob < 14.0) continue;
    EXPECT_GT(stats.injected, 0u)
        << "no injections at " << fault::site_name(sp.site) << " in "
        << stats.ops << " samples";
  }

  for (auto& harness : fleet) harness.reset();
  dispatcher.shutdown();
  server.stop();
}

// ---- HA chaos: primary killed mid-run, standby takes over ----

/// Scratch journal directory, removed on destruction.
class ChaosTempDir {
 public:
  ChaosTempDir() {
    char pattern[] = "/tmp/falkon_chaos_ha_XXXXXX";
    const char* made = ::mkdtemp(pattern);
    EXPECT_NE(made, nullptr);
    path_ = made ? made : "";
  }
  ~ChaosTempDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The dispatcher itself becomes a fault site: the supervision loop samples
// Site::kHaPrimary once per round from the seeded plan (the site
// random_plan never draws — HA takeover is always scripted), and when the
// draw says kCrash the primary is killed mid-run. The standby tails the
// journal over ReplFetch, promotes onto the primary's ports, executors
// re-register, the failover client rides out the downtime, and every task
// still reaches exactly one terminal state with each result delivered
// exactly once. The kill schedule is a deterministic function of the seed
// and the round count, so a failing seed replays the same decisions.
TEST(ChaosHa, PrimaryKilledMidRunStandbyFinishesExactlyOnce) {
  constexpr std::uint64_t kTasks = 400;
  constexpr int kExecutors = 4;

  ChaosTempDir primary_dir, standby_dir;
  RealClock clock;
  obs::Obs obs;

  fault::FaultPlan plan;
  plan.seed = 20260808;
  plan.with(fault::Site::kExecutorTask, fault::Action::kCrash, 0.005);
  plan.with(fault::Site::kExecutorTask, fault::Action::kSlow, 0.02, 0.01);
  plan.with(fault::Site::kRpcConnect, fault::Action::kDrop, 0.05);
  plan.with(fault::Site::kHaPrimary, fault::Action::kCrash, 0.05);
  fault::FaultInjector injector{plan, &obs};

  ha::Journal::Options jopts;
  jopts.dir = primary_dir.path();
  jopts.obs = &obs;
  auto journal = ha::Journal::open(jopts);
  ASSERT_TRUE(journal.ok()) << journal.error().str();

  auto make_config = [&](StateJournal* state_journal) {
    DispatcherConfig config;
    config.replay.response_timeout_s = 0.5;
    config.replay.max_retries = 1000;  // recovery, not exhaustion, ends tasks
    config.heartbeat_timeout_s = 1.0;
    config.sweep_interval_s = 0.05;
    config.renotify_timeout_s = 0.3;
    config.obs = &obs;
    config.journal = state_journal;
    return config;
  };
  auto dispatcher =
      std::make_unique<Dispatcher>(clock, make_config(journal.value().get()));
  auto server = std::make_unique<TcpDispatcherServer>(*dispatcher, &obs);
  ASSERT_TRUE(server->start(0, &injector).ok());
  server->set_replication_source(journal.value().get());
  const std::uint16_t rpc_port = server->rpc_port();

  ha::StandbyOptions sopts;
  sopts.primary_rpc_port = rpc_port;
  sopts.takeover_rpc_port = rpc_port;
  sopts.shared_log_dir = primary_dir.path();
  sopts.standby_dir = standby_dir.path();
  sopts.poll_interval_s = 0.01;
  sopts.failover_after_s = 0.3;
  sopts.dispatcher = make_config(nullptr);  // journal filled in on promote
  sopts.obs = &obs;
  ha::Standby standby(clock, sopts);
  ASSERT_TRUE(standby.start().ok());

  // Polling fleet (notices a takeover via get_work -> kNotFound) with a
  // supervisor respawning crashed slots against the fixed ports.
  std::uint64_t next_node = 1;
  std::vector<std::unique_ptr<TcpExecutorHarness>> fleet(kExecutors);
  auto spawn = [&](int slot) {
    ExecutorOptions options;
    options.node_id = NodeId{next_node++};
    options.poll_interval_s = 0.05;
    options.heartbeat_interval_s = 0.15;
    options.link_retries = 20;
    options.register_retries = 20;
    options.backoff.base_s = 0.02;
    options.backoff.max_s = 0.25;
    options.fault = &injector;
    auto harness = std::make_unique<TcpExecutorHarness>(
        clock, "127.0.0.1", rpc_port, /*push_port=*/0,
        std::make_unique<NoopEngine>(), options);
    if (harness->start().ok()) fleet[slot] = std::move(harness);
  };
  for (int slot = 0; slot < kExecutors; ++slot) spawn(slot);

  ha::FailoverClientOptions copts;
  copts.rpc_port = rpc_port;
  copts.max_attempts = 400;
  copts.backoff_max_s = 0.2;
  copts.obs = &obs;
  ha::FailoverClient client(copts);
  auto instance = client.create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok()) << instance.error().str();
  std::vector<TaskSpec> tasks;
  for (std::uint64_t i = 1; i <= kTasks; ++i) {
    tasks.push_back(make_sleep_task(TaskId{i}, 0.0));
  }
  auto accepted = client.submit(instance.value(), tasks);
  ASSERT_TRUE(accepted.ok()) << accepted.error().str();
  ASSERT_EQ(accepted.value(), kTasks);

  auto kill_primary = [&] {
    server->stop();
    server.reset();  // the server references the dispatcher: destroy it first
    dispatcher->shutdown();
    dispatcher.reset();
    journal.value().reset();  // fsync + release the log dir to the standby
  };

  // Supervision loop: sample the primary's fate once per round, respawn
  // dead executor slots, and run until every task is terminal on whichever
  // dispatcher is currently in charge.
  bool primary_alive = true;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (;;) {
    auto active_status = [&]() -> DispatcherStatus {
      if (primary_alive) return dispatcher->status();
      // promoted() is the release/acquire gate for dispatcher(): reading
      // the pointer before promotion races the tail thread's promote().
      if (standby.promoted()) return standby.dispatcher()->status();
      return DispatcherStatus{};
    };
    const DispatcherStatus status = active_status();
    if (!primary_alive && standby.promoted() &&
        status.completed + status.failed >= kTasks) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "chaos takeover stalled: primary_alive=" << primary_alive
        << " promoted=" << standby.promoted()
        << " completed=" << status.completed << " failed=" << status.failed
        << " queued=" << status.queued
        << " dispatched=" << status.dispatched;
    if (primary_alive) {
      const fault::Outcome fate = injector.sample(fault::Site::kHaPrimary);
      // Force the takeover if the seeded schedule hasn't fired by the time
      // the run is half done — this test is about failover, not luck.
      if (fate.action == fault::Action::kCrash ||
          status.completed >= kTasks / 2) {
        kill_primary();
        primary_alive = false;
      }
    }
    for (int slot = 0; slot < kExecutors; ++slot) {
      if (!fleet[slot] || !fleet[slot]->runtime().running()) {
        fleet[slot].reset();
        spawn(slot);
      }
    }
    nap_ms(25);
  }

  ASSERT_TRUE(standby.promoted());
  const DispatcherStatus final_status = standby.dispatcher()->status();
  EXPECT_EQ(final_status.completed + final_status.failed, kTasks);
  EXPECT_EQ(final_status.queued, 0u);
  EXPECT_EQ(final_status.dispatched, 0u);

  // Exactly-once delivery across the takeover: the journaled mailbox plus
  // the client-side dedup hand the caller each task id exactly once, even
  // for results that completed on the old primary.
  std::set<std::uint64_t> ids;
  int idle_polls = 0;
  while (ids.size() < kTasks && idle_polls < 20) {
    auto batch = client.wait_results(instance.value(), 256, 0.25);
    if (!batch.ok() || batch.value().empty()) {
      ++idle_polls;
      continue;
    }
    idle_polls = 0;
    for (const auto& result : batch.value()) {
      EXPECT_TRUE(ids.insert(result.task_id.value).second)
          << "duplicate delivery of task " << result.task_id.value;
      EXPECT_GE(result.task_id.value, 1u);
      EXPECT_LE(result.task_id.value, kTasks);
    }
  }
  EXPECT_EQ(ids.size(), kTasks);

  EXPECT_GT(client.reconnects(), 0u);
  EXPECT_GT(obs.registry().gauge("falkon.ha.standby.failover_s").value(), 0.0);

  for (auto& harness : fleet) harness.reset();
  standby.stop();
}

// Double takeover under the invariant model: a multi-standby deployment
// loses its primary, exactly one standby wins the election and takes over;
// then the winner is killed too and the second election among the
// survivors must seat exactly one new primary at a strictly higher epoch.
// The testkit HA runner drives the whole story and the I1-I10 invariants
// (notably I9 one-primary-per-epoch, I10 exactly-once-across-promotion)
// check it offline.
TEST(ChaosHa, DoubleFailoverSecondElectionPromotesSurvivor) {
  testkit::WorkloadSpec spec;
  spec.seed = 20260808;
  spec.task_count = 200;
  spec.executors = 4;
  spec.task_length_s = 0.01;
  spec.client_bundle = 32;
  spec.max_retries = 100;
  spec.replay_timeout_s = 0.5;
  spec.kill_primary_after = 0.25;

  testkit::HaRunOptions ha;
  ha.standbys = 3;
  ha.kill_winner_too = true;
  ha.deadline_s = 120.0;

  const testkit::RunHistory history = testkit::run_tcp_ha(spec, ha);
  const auto violations = testkit::check_invariants(history);
  EXPECT_TRUE(violations.empty()) << testkit::join_violations(violations);
  // Seed primary + exactly two promotions, epochs strictly climbing.
  ASSERT_EQ(history.primary_epochs.size(), 3u)
      << "expected primary + two promoted standbys";
  EXPECT_EQ(history.primary_epochs[0], 0u);
  EXPECT_GT(history.primary_epochs[1], 0u);
  EXPECT_GT(history.primary_epochs[2], history.primary_epochs[1]);
  EXPECT_EQ(history.completed, spec.task_count);
  EXPECT_EQ(history.result_ids.size(), spec.task_count);
}

// ---- DES soak ----

fault::FaultPlan des_plan() {
  fault::FaultPlan plan;
  plan.seed = 424242;
  plan.with(fault::Site::kExecutorTask, fault::Action::kCrash, 0.01);
  plan.with(fault::Site::kExecutorTask, fault::Action::kHang, 0.01, 1.0);
  plan.with(fault::Site::kExecutorTask, fault::Action::kSlow, 0.03, 0.05);
  plan.with(fault::Site::kDispatcherNotify, fault::Action::kDrop, 0.02);
  plan.with(fault::Site::kDispatcherAck, fault::Action::kDrop, 0.02);
  return plan;
}

sim::SimFalkonConfig des_config(fault::FaultInjector& injector) {
  sim::SimFalkonConfig config;
  config.executors = 48;
  config.task_count = 1200;
  config.task_length_s = 0.05;
  config.seed = 7;
  config.replay_timeout_s = 2.0;
  config.max_retries = 6;
  config.fault = &injector;
  return config;
}

TEST(ChaosDes, SoakEveryTaskReachesExactlyOneTerminalState) {
  obs::Obs obs;
  fault::FaultInjector injector{des_plan(), &obs};
  const sim::SimFalkonResult result =
      [&] {
        sim::SimFalkonConfig config = des_config(injector);
        config.obs = &obs;
        return sim::simulate_falkon(config);
      }();

  EXPECT_EQ(result.completed + result.failed, 1200u);
  EXPECT_GT(result.retried, 0u);
  EXPECT_GT(result.injected_faults, 0u);
  EXPECT_GT(result.makespan_s, 0.0);

  // Every configured site fired under the fixed seed.
  for (const fault::Site site :
       {fault::Site::kExecutorTask, fault::Site::kDispatcherNotify,
        fault::Site::kDispatcherAck}) {
    EXPECT_GT(injector.stats(site).injected, 0u)
        << "no injections at " << fault::site_name(site);
  }

  // obs counters agree with the simulation's own accounting.
  obs::Registry& reg = obs.registry();
  EXPECT_EQ(reg.counter("falkon.sim.tasks_failed").value(), result.failed);
  EXPECT_EQ(reg.counter("falkon.sim.tasks_retried").value(), result.retried);
}

TEST(ChaosDes, SameSeedIsBitReproducible) {
  fault::FaultInjector a{des_plan()};
  const sim::SimFalkonResult first = sim::simulate_falkon(des_config(a));
  fault::FaultInjector b{des_plan()};
  const sim::SimFalkonResult second = sim::simulate_falkon(des_config(b));

  EXPECT_EQ(first.makespan_s, second.makespan_s);  // bit-exact, no tolerance
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.failed, second.failed);
  EXPECT_EQ(first.retried, second.retried);
  EXPECT_EQ(first.injected_faults, second.injected_faults);
  EXPECT_EQ(first.throughput_samples, second.throughput_samples);
  EXPECT_EQ(first.queue_series, second.queue_series);
  EXPECT_EQ(first.busy_series, second.busy_series);
  EXPECT_EQ(a.total_injected(), b.total_injected());
}

TEST(ChaosDes, RetryBudgetExhaustionFailsTasksTerminally) {
  fault::FaultPlan plan;
  plan.seed = 99;
  plan.with(fault::Site::kExecutorTask, fault::Action::kCrash, 0.3);
  fault::FaultInjector injector{plan};

  sim::SimFalkonConfig config;
  config.executors = 16;
  config.task_count = 300;
  config.task_length_s = 0.01;
  config.seed = 3;
  config.replay_timeout_s = 1.0;
  config.max_retries = 0;  // any lost attempt is terminal
  config.fault = &injector;
  const sim::SimFalkonResult result = sim::simulate_falkon(config);

  EXPECT_EQ(result.completed + result.failed, 300u);
  EXPECT_GT(result.failed, 0u);
  EXPECT_EQ(result.retried, 0u);  // no budget, so no replays
}

}  // namespace
}  // namespace falkon::core
