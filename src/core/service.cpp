#include "core/service.h"

#include <algorithm>

#include "common/logging.h"

namespace falkon::core {

LocalExecutorHarness::LocalExecutorHarness(Clock& clock, Dispatcher& dispatcher,
                                           std::unique_ptr<TaskEngine> engine,
                                           ExecutorOptions options)
    : target_(std::make_shared<NotifyTarget>()),
      link_(dispatcher, target_),
      engine_(std::move(engine)),
      runtime_(std::make_unique<ExecutorRuntime>(clock, link_, *engine_,
                                                 options)) {
  std::lock_guard lock(target_->mu);
  target_->runtime = runtime_.get();
}

LocalExecutorHarness::~LocalExecutorHarness() {
  runtime_->stop();
  // Disconnect the sink before the runtime is destroyed: a notification
  // sent meanwhile from another thread (a submit, the sweep) will find a
  // null target.
  std::lock_guard lock(target_->mu);
  target_->runtime = nullptr;
}

Status LocalExecutorHarness::start() { return runtime_->start(); }

InProcFalkon::InProcFalkon(Clock& clock, DispatcherConfig config,
                           std::unique_ptr<DispatchPolicy> policy)
    : clock_(clock),
      dispatcher_(clock, config, std::move(policy)),
      client_(dispatcher_) {}

InProcFalkon::~InProcFalkon() { stop_executors(); }

Status InProcFalkon::add_executors(int count, const EngineFactory& factory,
                                   ExecutorOptions options) {
  for (int i = 0; i < count; ++i) {
    auto engine = factory(clock_);
    auto harness = std::make_unique<LocalExecutorHarness>(
        clock_, dispatcher_, std::move(engine), options);
    if (auto status = harness->start(); !status.ok()) return status;
    std::lock_guard lock(mu_);
    executors_.push_back(std::move(harness));
  }
  return ok_status();
}

std::size_t InProcFalkon::executor_count() const {
  std::lock_guard lock(mu_);
  return executors_.size();
}

std::vector<ExecutorStats> InProcFalkon::executor_stats() const {
  std::lock_guard lock(mu_);
  std::vector<ExecutorStats> stats;
  stats.reserve(executors_.size());
  for (const auto& harness : executors_) {
    stats.push_back(harness->runtime().stats());
  }
  return stats;
}

void InProcFalkon::stop_executors() {
  std::vector<std::unique_ptr<LocalExecutorHarness>> taken;
  {
    std::lock_guard lock(mu_);
    taken.swap(executors_);
  }
  for (auto& harness : taken) harness->runtime().request_stop();
  taken.clear();  // joins
}

FalkonCluster::FalkonCluster(Clock& clock, FalkonClusterConfig config)
    : clock_(clock),
      config_(std::move(config)),
      dispatcher_(clock, config_.dispatcher),
      client_(dispatcher_),
      scheduler_(clock, config_.lrm, config_.lrm_nodes),
      gram_(clock, scheduler_, config_.gram) {
  if (!config_.engine_factory) {
    config_.engine_factory = [](Clock& c) {
      return std::make_unique<SleepEngine>(c);
    };
  }
  std::unique_ptr<CentralizedReleasePolicy> central;
  if (config_.centralized_release_threshold > 0) {
    central = std::make_unique<QueueThresholdReleasePolicy>(
        config_.centralized_release_threshold);
  }
  provisioner_ = std::make_unique<Provisioner>(
      clock_, dispatcher_, gram_, scheduler_, config_.provisioner,
      make_acquisition_policy(config_.acquisition_policy),
      [this](const lrm::JobContext& context, AllocationId allocation) {
        return launch_allocation(context, allocation);
      },
      std::move(central));
}

FalkonCluster::~FalkonCluster() { stop(); }

int FalkonCluster::launch_allocation(const lrm::JobContext& context,
                                     AllocationId allocation) {
  const int per_node = std::max(1, config_.provisioner.executors_per_node);
  int launched = 0;
  for (const NodeId node : context.nodes) {
    for (int slot = 0; slot < per_node; ++slot) {
      ExecutorOptions options = config_.executor_template;
      options.node_id = node;
      options.allocation_id = allocation;
      auto harness = std::make_unique<LocalExecutorHarness>(
          clock_, dispatcher_, config_.engine_factory(clock_), options);
      harness->runtime().set_exit_listener([this, allocation, node](ExecutorId) {
        provisioner_->executor_exited(allocation, node);
      });
      if (auto status = harness->start(); !status.ok()) {
        LOG_WARN("cluster", "executor start failed: %s",
                 status.error().str().c_str());
        continue;
      }
      ++launched;
      std::lock_guard lock(mu_);
      if (stopping_) {
        harness->runtime().request_stop();
      }
      executors_.push_back(std::move(harness));
    }
  }
  return launched;
}

void FalkonCluster::reap_exited_locked() {
  // Harnesses whose runtime exited (idle-timeout release) are joined and
  // destroyed here, on the stepping thread, never on their own thread.
  auto dead_begin = std::partition(
      executors_.begin(), executors_.end(),
      [](const std::unique_ptr<LocalExecutorHarness>& h) {
        return h->runtime().running();
      });
  executors_.erase(dead_begin, executors_.end());
}

void FalkonCluster::step() {
  provisioner_->step();
  std::lock_guard lock(mu_);
  reap_exited_locked();
}

void FalkonCluster::start_drivers() { provisioner_->start_driver(); }

void FalkonCluster::stop() {
  {
    std::lock_guard lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  provisioner_->stop_driver();
  std::vector<std::unique_ptr<LocalExecutorHarness>> taken;
  {
    std::lock_guard lock(mu_);
    taken.swap(executors_);
  }
  for (auto& harness : taken) harness->runtime().request_stop();
  taken.clear();
  scheduler_.stop_driver();
}

std::size_t FalkonCluster::live_executors() const {
  std::lock_guard lock(mu_);
  std::size_t live = 0;
  for (const auto& harness : executors_) {
    if (harness->runtime().running()) ++live;
  }
  return live;
}

}  // namespace falkon::core
