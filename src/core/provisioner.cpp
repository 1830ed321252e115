#include "core/provisioner.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace falkon::core {

Provisioner::Provisioner(Clock& clock, Dispatcher& dispatcher,
                         lrm::Gram4Gateway& gram,
                         lrm::BatchScheduler& scheduler,
                         ProvisionerConfig config,
                         std::unique_ptr<AcquisitionPolicy> acquisition,
                         ExecutorLauncher launcher,
                         std::unique_ptr<CentralizedReleasePolicy> central)
    : clock_(clock),
      dispatcher_(dispatcher),
      gram_(gram),
      scheduler_(scheduler),
      config_(config),
      acquisition_(acquisition ? std::move(acquisition)
                               : std::make_unique<AllAtOncePolicy>()),
      launcher_(std::move(launcher)),
      central_release_(std::move(central)) {
  if (config_.obs != nullptr) {
    obs::Registry& reg = config_.obs->registry();
    m_allocations_ = &reg.counter("falkon.provisioner.allocations_requested");
    m_allocated_ = &reg.gauge("falkon.provisioner.pending_executors");
    m_registered_idle_ = &reg.gauge("falkon.provisioner.idle_executors");
    m_active_ = &reg.gauge("falkon.provisioner.active_executors");
    m_queued_ = &reg.gauge("falkon.provisioner.queued_tasks");
  }
}

Provisioner::~Provisioner() { stop_driver(); }

void Provisioner::step() {
  // Drive the substrate: the gateway hands pending requests to the LRM and
  // the LRM processes its scheduling cycle and job transitions. Their
  // callbacks (allocation start/done) run on this thread, lock-free.
  gram_.step();
  scheduler_.step();
  dispatcher_.sweep_once();

  const DispatcherStatus status = dispatcher_.status();
  {
    std::lock_guard lock(mu_);
    AcquisitionContext ctx;
    ctx.queued_tasks = static_cast<int>(status.queued);
    ctx.busy_executors = static_cast<int>(status.busy_executors);
    ctx.idle_executors = static_cast<int>(status.idle_executors);
    ctx.pending_executors = pending_executors_;
    ctx.max_executors = config_.max_executors;
    ctx.lrm_free_nodes = scheduler_.free_nodes();
    ctx.executors_per_node = config_.executors_per_node;

    for (const int size : acquisition_->plan(ctx)) {
      request_allocation_locked(size);
    }
    // Maintain the configured floor regardless of demand.
    const int supply =
        static_cast<int>(status.registered_executors) + pending_executors_;
    if (supply < config_.min_executors) {
      request_allocation_locked(config_.min_executors - supply);
    }

    const double now = clock_.now_s();
    allocated_series_.add(now, pending_executors_);
    registered_series_.add(now, status.idle_executors);
    active_series_.add(now, status.busy_executors);
    queued_series_.add(now, static_cast<double>(status.queued));
    if (m_allocated_) {
      m_allocated_->set(pending_executors_);
      m_registered_idle_->set(status.idle_executors);
      m_active_->set(status.busy_executors);
      m_queued_->set(static_cast<double>(status.queued));
    }
  }

  if (central_release_) {
    ReleaseContext rctx;
    rctx.queued_tasks = static_cast<int>(status.queued);
    rctx.idle_executors = static_cast<int>(status.idle_executors);
    rctx.registered_executors = static_cast<int>(status.registered_executors);
    rctx.min_executors = config_.min_executors;
    const int release = central_release_->executors_to_release(rctx);
    if (release > 0) (void)dispatcher_.request_release(release);
  }
}

void Provisioner::request_allocation_locked(int executors) {
  if (executors <= 0) return;
  if (m_allocations_) m_allocations_->inc();
  const int per_node = std::max(1, config_.executors_per_node);
  const int nodes =
      static_cast<int>(std::ceil(static_cast<double>(executors) /
                                 static_cast<double>(per_node)));
  const int granted_executors = nodes * per_node;

  const AllocationId alloc_id = allocation_ids_.next();
  Allocation alloc;
  alloc.id = alloc_id;
  alloc.executors_requested = granted_executors;
  alloc.jobs_pending_start = nodes;

  // One GRAM request backing `nodes` single-node jobs: the whole batch
  // pays GRAM's request overhead once ("all-at-once" semantics), but each
  // node frees as soon as its own executors release themselves.
  std::vector<lrm::JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    lrm::JobSpec spec;
    spec.nodes = 1;
    spec.walltime_s = config_.allocation_walltime_s;
    spec.run_time_s = -1.0;  // released when the node's executors exit
    spec.on_start = [this, alloc_id, per_node](const lrm::JobContext& context) {
      int launched = 0;
      if (launcher_) launched = launcher_(context, alloc_id);
      bool complete_now = false;
      {
        std::lock_guard lock(mu_);
        auto it = allocations_.find(alloc_id.value);
        if (it == allocations_.end()) return;
        Allocation& a = it->second;
        NodeLease& lease = a.leases[context.nodes.front().value];
        lease.lrm_job = context.job_id;
        lease.started = true;
        lease.executors_live = launched;
        if (a.jobs_pending_start > 0) --a.jobs_pending_start;
        pending_executors_ = std::max(0, pending_executors_ - per_node);
        stats_.executors_launched += static_cast<std::uint64_t>(launched);
        if (launched == 0) {
          lease.finished = true;
          complete_now = true;
        }
      }
      if (complete_now) (void)scheduler_.complete(context.job_id);
    };
    spec.on_done = [this, alloc_id, per_node](JobId job, bool) {
      std::lock_guard lock(mu_);
      auto it = allocations_.find(alloc_id.value);
      if (it == allocations_.end()) return;
      Allocation& a = it->second;
      bool had_started = false;
      for (auto& [node, lease] : a.leases) {
        if (lease.lrm_job == job) {
          had_started = lease.started;
          lease.finished = true;
          break;
        }
      }
      if (!had_started) {
        // Cancelled/killed before starting: these executors never arrive.
        if (a.jobs_pending_start > 0) --a.jobs_pending_start;
        pending_executors_ = std::max(0, pending_executors_ - per_node);
      }
      bool all_done = a.jobs_pending_start == 0;
      for (const auto& [node, lease] : a.leases) {
        all_done = all_done && lease.finished;
      }
      if (all_done) ++stats_.allocations_completed;
    };
    specs.push_back(std::move(spec));
  }

  auto submitted = gram_.submit_batch(std::move(specs));
  if (!submitted.ok()) {
    LOG_WARN("provisioner", "allocation request failed: %s",
             submitted.error().str().c_str());
    return;
  }
  allocations_[alloc_id.value] = std::move(alloc);
  pending_executors_ += granted_executors;
  ++stats_.allocations_requested;
  LOG_DEBUG("provisioner", "requested %d nodes (%d executors) in one request",
            nodes, granted_executors);
}

void Provisioner::executor_exited(AllocationId allocation, NodeId node) {
  bool complete = false;
  JobId lrm_job;
  {
    std::lock_guard lock(mu_);
    ++stats_.executors_exited;
    auto it = allocations_.find(allocation.value);
    if (it == allocations_.end()) return;
    Allocation& a = it->second;
    auto lease_it = a.leases.find(node.value);
    if (lease_it == a.leases.end()) return;
    NodeLease& lease = lease_it->second;
    if (lease.executors_live > 0) --lease.executors_live;
    if (lease.executors_live == 0 && lease.started && !lease.finished) {
      complete = true;
      lrm_job = lease.lrm_job;
    }
  }
  // This node's executors are all gone: give the node back immediately.
  if (complete) (void)scheduler_.complete(lrm_job);
}

ProvisionerStats Provisioner::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

int Provisioner::pending_executors() const {
  std::lock_guard lock(mu_);
  return pending_executors_;
}

void Provisioner::start_driver() {
  stop_driver();
  driver_stop_.store(false);
  driver_ = std::thread([this] {
    while (!driver_stop_.load()) {
      step();
      clock_.sleep_s(config_.poll_interval_s);
    }
  });
}

void Provisioner::stop_driver() {
  driver_stop_.store(true);
  if (driver_.joinable()) driver_.join();
}

}  // namespace falkon::core
