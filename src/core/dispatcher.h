// The Falkon dispatcher (paper sections 3.2-3.4).
//
// "The dispatcher accepts tasks from clients and implements the dispatch
// policy." It is deliberately *streamlined*: no multiple queues, no
// priorities, no accounting — a single FIFO wait queue per service, an
// executor registry, and a notification engine. That narrowness is the
// paper's core claim: it buys 2-3 orders of magnitude in dispatch
// throughput over full-featured LRMs.
//
// Client side (factory/instance pattern): create_instance() returns an
// InstanceId (the "EPR"); submit/wait_results/destroy operate on it.
// Executor side (hybrid push/pull, section 3.3): the dispatcher pushes a
// notification through an ExecutorSink {3}; the executor pulls work with
// get_work {4,5}, executes, and delivers results {6}; the acknowledgement
// {7} optionally piggy-backs the next task(s) (section 3.4).
//
// Locking (the dispatch hot path is sharded; there is no global lock):
//   * The executor registry is split into `executor_shards` shards, each a
//     mutex + id->entry map. A shard mutex only guards map membership;
//     entry state lives behind the entry's own mutex, so concurrent
//     get_work/deliver_results for different executors never contend.
//   * The wait queue has its own mutex (`queue_mu_`), instances another
//     (`inst_mu_`). Lock order: inst_mu_ -> queue_mu_, entry->mu ->
//     queue_mu_; shard mutexes and instance mutexes are leaves; two entry
//     mutexes are never held together.
//   * Counters are atomics; busy_ is maintained incrementally on state
//     transitions instead of recounted under a global lock.
//   * Result routing runs outside all dispatcher locks; `sink_mu_` guards
//     only the client sink pointer.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/task.h"
#include "common/thread_pool.h"
#include "core/journal.h"
#include "core/policies.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "wire/message.h"

namespace falkon::core {

/// Release sentinel (see wire/message.h), re-exported for core users.
using wire::kReleaseResourceKey;

struct DispatcherConfig {
  /// Threads in the pool that drains mailboxes to streaming clients
  /// (ClientSink). Executor notifications no longer use it: they go out
  /// on the thread that made work available (see ExecutorSink).
  int notify_threads{4};
  ReplayPolicy replay;
  /// Piggy-back new tasks on result acknowledgements (section 3.4).
  bool piggyback{true};
  /// Dispatcher->executor bundling cap per exchange. The paper keeps this
  /// at 1 ("every task is transmitted individually from dispatcher to an
  /// executor") because it lacks runtime estimates; larger values enable
  /// the ablation.
  std::uint32_t max_tasks_per_dispatch{1};

  /// Estimate-balanced bundling (section 3.4: load imbalance from
  /// dispatcher-executor bundling "can be addressed by having clients
  /// assign each task an estimated runtime"): a bundle stops growing once
  /// its summed estimated runtime reaches this budget, so one executor is
  /// never handed many long tasks. 0 disables the budget (count-only cap).
  double max_bundle_runtime_s{0.0};

  /// Cap for adaptively sized bundles: when an executor requests
  /// wire::kAdaptiveBundle / wire::kAdaptiveWant, the dispatcher targets
  /// clamp(queue_depth / registered_executors, 1, max_adaptive_bundle)
  /// tasks per exchange (still honouring max_bundle_runtime_s). Adaptive
  /// requests deliberately ignore max_tasks_per_dispatch.
  std::uint32_t max_adaptive_bundle{256};

  /// Shards in the executor registry. Executor ids hash onto shards, so
  /// exchanges from different executors proceed under different locks.
  /// Values < 1 are treated as 1.
  int executor_shards{8};

  /// Locality deferral bound (docs/DATA.md, invariant I12): when > 0 and
  /// the task at the head of the wait queue has been runnable longer than
  /// this, locality-seeking policies (good-cache-compute, data-aware) are
  /// overridden and the head is dispatched to the next executor that asks,
  /// so cache affinity can never starve a task. 0 disables the bound.
  double max_locality_wait_s{0.0};

  /// Observability context (metrics + lifecycle tracing); nullptr disables
  /// all instrumentation at zero cost. See docs/OBSERVABILITY.md.
  obs::Obs* obs{nullptr};

  // ---- failure detection & recovery (docs/FAULTS.md) ----

  /// Failure detector: deregister an executor whose last heartbeat (or
  /// registration) is older than this, requeueing its in-flight tasks.
  /// 0 disables the detector.
  double heartbeat_timeout_s{0.0};
  /// Recovery sweep period (model time) for whoever drives sweep_once():
  /// TcpDispatcherServer arms a reactor timer at this period when > 0;
  /// in-process deployments call sweep_once() themselves.
  double sweep_interval_s{0.0};
  /// Re-send the notification of an executor stuck in the notified state
  /// longer than this (0 disables) — recovers notifications lost or shed
  /// in transit.
  double renotify_timeout_s{0.0};
  /// Poison-task quarantine: permanently fail a task once this many
  /// distinct executors died while holding it (0 disables), so one bad
  /// task cannot kill the worker pool executor by executor.
  int quarantine_threshold{0};
  /// Fault injection (lost notifications, lost acks); nullptr in
  /// production — same zero-cost discipline as `obs`.
  fault::FaultInjector* fault{nullptr};

  // ---- durability & failover (docs/HA.md) ----

  /// Write-ahead journal receiving every state transition; nullptr (the
  /// default) disables journaling entirely — same zero-cost discipline as
  /// `obs` and `fault`. Typically an ha::Journal; must outlive the
  /// dispatcher.
  StateJournal* journal{nullptr};
};

struct DispatcherStatus {
  std::uint64_t submitted{0};
  std::uint64_t queued{0};
  std::uint64_t dispatched{0};  // currently on executors
  std::uint64_t completed{0};
  std::uint64_t failed{0};
  std::uint64_t retried{0};
  /// Failure-detector verdicts: executors deregistered for missing
  /// heartbeats, and how many of those later proved alive (false
  /// positives: a heartbeat or delivery arrived after the suspicion).
  std::uint64_t suspicions{0};
  std::uint64_t false_suspicions{0};
  /// Tasks permanently failed by the poison-task quarantine.
  std::uint64_t quarantined{0};
  std::uint32_t registered_executors{0};
  std::uint32_t busy_executors{0};
  std::uint32_t idle_executors{0};

  [[nodiscard]] wire::StatusReply to_wire() const;
};

/// How the dispatcher pushes notifications to one executor. In-process
/// deployments wake the executor runtime directly; the TCP deployment
/// pushes a frame on the executor's RPC connection.
class ExecutorSink {
 public:
  virtual ~ExecutorSink() = default;
  /// Called on whichever thread made the executor's work available — a
  /// submitting client, another executor's exchange, the recovery sweep —
  /// and over TCP that may be a reactor loop thread. It must not block
  /// (take only leaf locks, never wait on I/O) and must not call back into
  /// the dispatcher. Dispatcher locks are not held during the call.
  virtual void notify(ExecutorId id, std::uint64_t resource_key) = 0;

  /// Called after the dispatcher has unlinked `id` (deregistration, failure
  /// detection, poison-blame eviction) so transports can release any
  /// per-executor state — push bindings, unretired bundle sequence
  /// numbers. Invoked outside the dispatcher's entry locks; default no-op.
  virtual void on_removed(ExecutorId id) { (void)id; }
};

/// How the dispatcher pushes results to streaming clients (message {8} of
/// paper Figure 2 carried as a ResultStream — docs/PROTOCOL.md). Optional:
/// clients may instead block in wait_results (the paper's firewall-bypass
/// mode).
class ClientSink {
 public:
  virtual ~ClientSink() = default;

  /// Push a drained mailbox batch to a streaming subscriber. Returns false
  /// when the batch could not be handed to the transport (no bound connection,
  /// unknown subscription key): the dispatcher rolls its streaming cursor
  /// back and the results stay in the mailbox for wait_results polling. A
  /// transport that accepted the frame but lost it downstream (backpressure
  /// shed, severed connection) may still return true — loss is recovered
  /// by the ack protocol, never by this return value.
  virtual bool deliver(InstanceId instance, std::uint64_t seq,
                       const std::vector<TaskResult>& results) = 0;
};

class Dispatcher {
 public:
  Dispatcher(Clock& clock, DispatcherConfig config,
             std::unique_ptr<DispatchPolicy> policy = nullptr);
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  // ---- client operations (factory/instance pattern) ----
  Result<InstanceId> create_instance(ClientId client);
  Status destroy_instance(InstanceId instance);

  /// Bundled submit {1,2}; returns the number of tasks accepted.
  /// `submit_seq` (optional) is a per-instance, strictly increasing client
  /// sequence number for exactly-once submission across failover: a seq at
  /// or below the instance's high-water mark is a duplicate of a submit the
  /// dispatcher already journaled (the client retried after losing the
  /// reply), and is acknowledged without enqueueing anything. 0 disables
  /// dedup for this call.
  Result<std::uint64_t> submit(InstanceId instance, std::vector<TaskSpec> tasks,
                               std::uint64_t submit_seq = 0);

  /// Seed a freshly constructed dispatcher from a recovered image (cold
  /// restart from WAL+snapshot, or standby promotion — docs/HA.md). Must be
  /// called before any clients or executors are attached; the configured
  /// journal is NOT replayed into (it already contains this state).
  void restore(const DispatcherImage& image);

  /// Blocking result pick-up {9,10}: waits until at least one result is
  /// available (or timeout), returns up to `max_results`.
  Result<std::vector<TaskResult>> wait_results(InstanceId instance,
                                               std::uint32_t max_results,
                                               double timeout_s);

  /// Enter or acknowledge push-mode result streaming (SubscribeResults —
  /// docs/PROTOCOL.md). `ack_seq == 0` (re)subscribes: the streaming
  /// cursor resets and the whole mailbox backlog is re-pushed (the client
  /// dedups by task id, so re-delivery is safe). `ack_seq > 0` cumulatively
  /// acknowledges every streamed result with seq <= ack_seq; acknowledged
  /// results leave the mailbox and are journaled as delivered at that
  /// point — the HA `on_delivered` barrier moves from poll time to ack
  /// time, never disappears. Returns the current push cursor (total
  /// results streamed since the last subscribe).
  Result<std::uint64_t> subscribe_results(InstanceId instance,
                                          std::uint64_t ack_seq);

  // ---- executor operations ----
  Result<ExecutorId> register_executor(const wire::RegisterRequest& request,
                                       std::shared_ptr<ExecutorSink> sink);
  Status deregister_executor(ExecutorId executor, const std::string& reason);

  /// Liveness beacon from an executor. kNotFound if the executor is not
  /// registered (e.g. the failure detector already removed it — the
  /// executor should re-register).
  Status heartbeat(ExecutorId executor);

  /// Pull work {4,5}: up to `max_tasks` tasks for this executor (respecting
  /// the dispatch policy's task selection, e.g. data-aware).
  /// `max_tasks == wire::kAdaptiveBundle` asks the dispatcher to size the
  /// bundle from current queue depth.
  Result<std::vector<TaskSpec>> get_work(ExecutorId executor,
                                         std::uint32_t max_tasks);

  struct DeliverOutcome {
    std::uint64_t acknowledged{0};
    std::vector<TaskSpec> piggyback;
  };

  /// Deliver results {6} and acknowledge {7}, optionally piggy-backing up
  /// to `want_tasks` new tasks in the acknowledgement (or an adaptively
  /// sized bundle for wire::kAdaptiveWant).
  Result<DeliverOutcome> deliver_results(ExecutorId executor,
                                         std::vector<TaskResult> results,
                                         std::uint32_t want_tasks);

  /// Record that `executor` now holds `object` in its local cache (mirror
  /// consulted by the data-aware policy).
  void note_cached_object(ExecutorId executor, const std::string& object);

  /// Replace the dispatcher's mirror of an executor's cache with an
  /// advertised digest (registration piggyback, kHeartbeatRequest piggyback
  /// or a standalone kCacheDigest). `generation` is the executor's digest
  /// sequence number: a digest at or below the last applied generation is
  /// stale (reordered on the wire) and ignored. `data_port` updates the
  /// executor's P2P fetch endpoint (0 keeps the current one).
  void apply_digest(ExecutorId executor, std::uint64_t generation,
                    std::uint32_t data_port,
                    const std::vector<std::string>& objects);

  /// Remove one object from an executor's mirrored cache (kDataEvict
  /// notice) so the locality router stops routing on it (invariant I11).
  /// kNotFound when the executor is unknown or never advertised the object
  /// (the transport answers with an ErrorReply; the connection survives).
  Status evict_cached_object(ExecutorId executor, const std::string& object);

  /// Data-diffusion self-check counters (docs/DATA.md). stale_routes and
  /// locality_overwait are invariant violations (I11/I12) and must read 0;
  /// locality_deferrals counts non-head locality picks (diagnostic).
  struct DataStats {
    std::uint64_t stale_routes{0};
    std::uint64_t locality_overwait{0};
    std::uint64_t locality_deferrals{0};
    std::uint64_t digests_applied{0};
    std::uint64_t evictions{0};
  };
  [[nodiscard]] DataStats data_stats() const;

  // ---- provisioner operations ----
  [[nodiscard]] DispatcherStatus status() const;

  /// Number of executor-registry shards (config.executor_shards clamped).
  /// Transport layers align their event-loop partitioning with this so an
  /// executor's notify/push stays within one shard end to end.
  [[nodiscard]] std::size_t executor_shard_count() const {
    return shard_count_;
  }

  /// True when a StateJournal is attached: submit and create_instance then
  /// wait in its barrier() before they return.
  [[nodiscard]] bool journaled() const { return config_.journal != nullptr; }

  /// Replay policy enforcement: requeue dispatched tasks whose response
  /// timeout elapsed; tasks already out of retry budget are failed
  /// permanently so they cannot linger on a black-holed executor forever.
  /// Returns the number of tasks requeued. Part of sweep_once().
  int check_replays();

  /// Failure detector: deregister executors whose heartbeat is older than
  /// config.heartbeat_timeout_s and requeue (or quarantine) their
  /// in-flight tasks. Returns the number of executors removed. Part of
  /// sweep_once().
  int check_liveness();

  /// Re-send notifications to executors stuck in the notified state past
  /// config.renotify_timeout_s (lost-notification recovery). Part of
  /// sweep_once().
  void renotify_stale();

  /// One full recovery sweep (replay timeouts + failure detector + stale
  /// renotify). The dispatcher owns no thread for it: TcpDispatcherServer
  /// calls it from a reactor timer every sweep_interval_real_s();
  /// in-process callers (the provisioner's poll loop, test runners) call
  /// it themselves. No-op after shutdown.
  void sweep_once();

  /// The sweep period in real seconds (config interval is model time).
  [[nodiscard]] double sweep_interval_real_s() const;

  /// Centralized release: push a release request to `count` idle executors;
  /// returns ids actually asked.
  std::vector<ExecutorId> request_release(int count);

  /// Install the result-streaming channel {8} used by instances that
  /// called subscribe_results().
  void set_client_sink(std::shared_ptr<ClientSink> sink);

  void shutdown();

 private:
  struct QueuedTask {
    InstanceId instance;
    TaskSpec spec;
    double enqueue_s{0.0};
    int attempts{0};
    /// Distinct executors that died while holding this task (quarantine).
    std::vector<std::uint64_t> killers;
  };

  struct DispatchedTask {
    InstanceId instance;
    TaskSpec spec;
    ExecutorId executor;
    double enqueue_s{0.0};
    double dispatch_s{0.0};
    /// Estimated runtime of the whole bundle this task went out in. The
    /// executor runs a bundle in order and delivers its results together,
    /// so no task in it can answer before the bundle is done.
    double bundle_runtime_s{0.0};
    int attempts{0};
    std::vector<std::uint64_t> killers;
  };

  enum class ExecState : std::uint8_t { kIdle, kNotified, kBusy };

  struct ExecutorEntry {
    ExecutorId id;
    wire::RegisterRequest info;
    std::shared_ptr<ExecutorSink> sink;

    /// Guards every mutable field below. Held while exchanging work with
    /// this executor; never held together with another entry's mutex.
    std::mutex mu;
    /// Set when the entry has been unlinked from its shard; a caller that
    /// grabbed the shared_ptr just before removal sees it and treats the
    /// executor as deregistered.
    bool removed{false};
    ExecState state{ExecState::kIdle};
    std::uint32_t inflight{0};
    double registered_s{0.0};
    double last_heartbeat_s{0.0};
    /// When the pending notification was sent (-1: none outstanding);
    /// drives the stale-notification resend.
    double notified_s{-1.0};
    /// Copy-on-write: candidates snapshot the set, so the data-aware
    /// policy can probe it after the entry lock is released.
    std::shared_ptr<const std::unordered_set<std::string>> cached_objects;
    /// Highest digest generation applied for this executor; stale digests
    /// (wire reordering) are dropped.
    std::uint64_t digest_generation{0};
    bool release_requested{false};
    /// This executor's in-flight tasks (by TaskId). Sharded counterpart of
    /// the old global dispatched map: a late duplicate from an executor
    /// that no longer owns the task misses here and is dropped.
    std::unordered_map<std::uint64_t, DispatchedTask> dispatched;
    /// Prefetched tasks claimed for this executor while the queue lock was
    /// already held; the next adaptive exchange serves them without
    /// touching queue_mu_. Reclaimed into the queue whenever the executor
    /// goes idle, times out, or deregisters.
    std::deque<QueuedTask> outbox;
  };

  struct Shard {
    std::mutex mu;
    std::unordered_map<std::uint64_t, std::shared_ptr<ExecutorEntry>> entries;
  };

  /// Per-instance result mailbox; shared_ptr so waiters survive destroy.
  struct Instance {
    ClientId client;
    /// Submit-dedup high-water mark (docs/HA.md); guarded by inst_mu_ —
    /// submit() and restore() both hold it, wait paths never touch this.
    std::uint64_t last_submit_seq{0};
    std::mutex mu;
    std::condition_variable cv;
    std::deque<TaskResult> results;
    bool open{true};

    // ---- push-mode streaming state (docs/PROTOCOL.md), guarded by mu ----
    // Invariant: streamed-but-unacknowledged results form a contiguous
    // FRONT prefix of `results` of length `streamed_prefix` — new results
    // append at the back, the drain extends the prefix toward the back,
    // and only acks/polls pop the front. Results therefore never leave the
    // mailbox at push time; a lost ResultStream frame costs re-delivery
    // (client-side task-id dedup), never loss.
    bool streaming{false};
    std::size_t streamed_prefix{0};
    std::uint64_t stream_pushed{0};  // cumulative results pushed since subscribe
    std::uint64_t stream_acked{0};   // cumulative results acknowledged
    bool drain_scheduled{false};     // edge trigger for the pool drain task
    /// Bumped whenever the cursors above are reset (resubscribe, poll on a
    /// streaming instance). The drain releases `mu` while a frame is in
    /// flight; on push failure it rolls its cursor advance back only if the
    /// regime is still the one it advanced — a reset in between already
    /// re-accounted for every mailbox result.
    std::uint64_t stream_epoch{0};
  };

  /// A result ready to be routed to its instance mailbox once dispatcher
  /// locks are released (route_all resolves the instance then).
  struct PendingRoute {
    InstanceId instance_id;
    TaskResult result;
  };

  Shard& shard_for(std::uint64_t executor_value);
  std::shared_ptr<ExecutorEntry> find_entry(std::uint64_t executor_value);
  std::vector<std::shared_ptr<ExecutorEntry>> snapshot_entries();

  /// Lock an entry, recording the wait in falkon.dispatcher.lock_wait_s
  /// when the acquisition actually contended.
  std::unique_lock<std::mutex> lock_entry(ExecutorEntry& entry);

  // Requires entry.mu held. State transition keeping busy_ incremental
  // and, for first-idle policies, the ordered idle set in sync.
  void set_state_locked(ExecutorEntry& entry, ExecState next);

  /// Drop an executor from the ordered idle set (removal, release request).
  /// idle_mu_ is a leaf: taken under entry mutexes, never holds another.
  void idle_erase(std::uint64_t executor_value);

  /// Add an executor to the ordered idle set. Caller guarantees the entry
  /// is idle, not removed and not release-requested.
  void idle_insert(std::uint64_t executor_value);

  // Requires entry.mu held.
  void cache_insert_locked(ExecutorEntry& entry, const std::string& object);

  // Requires entry.mu held. Removes one object from the COW cached set.
  void cache_erase_locked(ExecutorEntry& entry, const std::string& object);

  /// "host:port" of an executor other than `exclude` that holds `object`
  /// per the holders index, or "" when none. Takes data_mu_ then a shard
  /// mutex (both leaves; caller may hold an entry mutex, never another
  /// entry's).
  std::string alternate_holder(const std::string& object,
                               std::uint64_t exclude);

  // holders_ index maintenance; take data_mu_ internally (leaf).
  void holders_add(const std::string& object, std::uint64_t executor_value);
  void holders_remove(const std::string& object, std::uint64_t executor_value);

  ExecutorCandidate candidate_of(const ExecutorEntry& entry);

  /// Bookkeeping for an operation naming an unregistered executor: clears
  /// a pending suspicion (false positive) and returns kNotFound.
  Error unknown_executor(std::uint64_t executor_value);

  /// Offer the queue head to idle executors, chosen by the dispatch
  /// policy, until either runs out. Takes no lock on entry; safe to call
  /// from any thread.
  void pump_notifications();

  /// Remove one executor and requeue its in-flight tasks; with `blame` set
  /// the executor's death is charged to those tasks and ones past the
  /// quarantine threshold are failed permanently into `to_route`. Returns
  /// false when the executor was not registered.
  bool remove_executor(std::uint64_t executor_value, const std::string& reason,
                       bool blame, std::vector<PendingRoute>& to_route);

  /// Route a delivery batch to its instance mailboxes: one inst_mu_
  /// acquisition resolving every distinct instance, then per instance one
  /// mailbox lock, one bulk append, and one wake-up (the mailbox condition
  /// variable for polling instances, a stream drain for streaming ones) —
  /// a 256-task ResultBundle costs 1 lock acquisition, not 256.
  void route_all(std::vector<PendingRoute>& to_route);

  /// Append `results` to one instance's mailbox and wake its consumers.
  void deliver_batch(InstanceId instance_id,
                     const std::shared_ptr<Instance>& instance,
                     std::vector<TaskResult> results);

  /// Requires instance->mu held: schedule a stream drain on the notify
  /// pool unless one is already pending (edge trigger).
  void schedule_drain_locked(InstanceId instance_id,
                             const std::shared_ptr<Instance>& instance);

  /// Push the unstreamed mailbox suffix to the client sink as a chain of
  /// capped ResultStream frames. With `flush` (the notify-pool path) it
  /// coalesces briefly and drains everything including sub-frame tails;
  /// without (called inline from the delivering thread) it streams only
  /// full frames and hands any leftover to a scheduled flush, so the
  /// caller's RPC reply is never held hostage to a coalescing wait.
  void stream_drain(InstanceId instance_id,
                    const std::shared_ptr<Instance>& instance, bool flush);

  // Requires entry.mu held (NOT queue_mu_). Pops up to max_tasks for
  // `entry` honouring the dispatch policy; `adaptive` sizes the bundle
  // from queue depth instead. Updates entry state and its dispatched map.
  std::vector<TaskSpec> take_work_entry_locked(ExecutorEntry& entry,
                                               std::uint32_t max_tasks,
                                               bool adaptive);

  // Requires entry.mu held. Moves one queued task into the entry's
  // dispatched map and appends its spec to `out`.
  void dispatch_one_locked(ExecutorEntry& entry, QueuedTask task, double now,
                           std::vector<TaskSpec>& out);

  // Requires entry.mu held. Returns the entry's prefetched tasks to the
  // front of the wait queue.
  void drain_outbox_locked(ExecutorEntry& entry);

  // Takes queue_mu_ internally.
  void requeue_task(QueuedTask task, bool front);

  static QueuedTask to_queued(DispatchedTask task);

  Clock& clock_;
  DispatcherConfig config_;
  std::unique_ptr<DispatchPolicy> policy_;
  /// Cached policy_->selects_queue_head(): skips the per-pop lookahead
  /// window for head-of-queue policies (the common case).
  bool policy_head_only_{false};
  /// Cached policy_->selects_first_idle(): pump_notifications pops its
  /// target from idle_set_ in O(log n) instead of snapshotting and sorting
  /// the whole registry per notification (which is quadratic in fleet size
  /// when draining a deep queue).
  bool policy_first_idle_{false};
  /// Runs scheduled stream drains (schedule_drain_locked) only.
  ThreadPool notify_pool_;

  // Observability handles, resolved once at construction; all null when
  // config_.obs is null, so the hot paths pay one predicted branch each.
  obs::Tracer* tracer_{nullptr};
  obs::Counter* m_submitted_{nullptr};
  obs::Counter* m_dispatched_{nullptr};
  obs::Counter* m_completed_{nullptr};
  obs::Counter* m_failed_{nullptr};
  obs::Counter* m_retried_{nullptr};
  obs::Counter* m_notifications_{nullptr};
  obs::Counter* m_heartbeats_{nullptr};
  obs::Counter* m_suspicions_{nullptr};
  obs::Counter* m_false_suspicions_{nullptr};
  obs::Counter* m_quarantined_{nullptr};
  obs::Counter* m_renotifies_{nullptr};
  obs::Counter* m_sweeps_{nullptr};
  obs::Gauge* m_queue_depth_{nullptr};
  obs::Histogram* m_queue_time_{nullptr};
  obs::Histogram* m_overhead_{nullptr};
  obs::Histogram* m_bundle_size_{nullptr};
  obs::Histogram* m_lock_wait_{nullptr};
  obs::Counter* m_route_batches_{nullptr};
  obs::Counter* m_route_results_{nullptr};
  obs::Histogram* m_route_batch_size_{nullptr};
  obs::Counter* m_stream_pushed_{nullptr};
  obs::Counter* m_stream_acked_{nullptr};
  obs::Counter* m_stream_push_failures_{nullptr};
  obs::Counter* m_data_stale_routes_{nullptr};
  obs::Counter* m_data_overwait_{nullptr};
  obs::Counter* m_data_deferrals_{nullptr};
  obs::Counter* m_data_digests_{nullptr};
  obs::Counter* m_data_evictions_{nullptr};

  // ---- sharded executor registry ----
  std::unique_ptr<Shard[]> shards_;
  std::size_t shard_count_{1};

  /// Idle executors ordered newest-registration-first (descending id),
  /// maintained on every state transition when policy_first_idle_. The
  /// LIFO order keeps long-idle executors idle so the distributed release
  /// policy can reclaim them — same observable order the full scan
  /// produced. Guarded by idle_mu_, a leaf below the entry mutexes.
  std::mutex idle_mu_;
  std::set<std::uint64_t, std::greater<>> idle_set_;

  // ---- wait queue ----
  mutable std::mutex queue_mu_;
  std::deque<QueuedTask> queue_;
  /// Relaxed mirror of queue_.size() read by adaptive bundle sizing
  /// without taking queue_mu_.
  std::atomic<std::size_t> queue_size_{0};

  // ---- client instances ----
  std::mutex inst_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Instance>> instances_;
  IdGenerator<InstanceId> instance_ids_;  // guarded by inst_mu_

  std::mutex ids_mu_;
  IdGenerator<ExecutorId> executor_ids_;  // guarded by ids_mu_

  std::mutex sink_mu_;
  std::shared_ptr<ClientSink> client_sink_;  // guarded by sink_mu_

  /// Executors removed by the failure detector; a later heartbeat or
  /// delivery from one of these ids is counted as a false suspicion.
  /// Bounded by the number of detector verdicts in the process lifetime.
  std::mutex suspect_mu_;
  std::unordered_set<std::uint64_t> suspected_;

  /// Reverse index of the per-entry cached_objects mirrors:
  /// object -> executors advertising it. Consulted to stamp an alternate
  /// P2P source onto dispatched tasks. Guarded by data_mu_, a leaf taken
  /// under entry mutexes (never holds another lock).
  mutable std::mutex data_mu_;
  std::unordered_map<std::string, std::unordered_set<std::uint64_t>> holders_;
  /// executor -> "host:port" P2P fetch endpoint (executors with a data
  /// server only). Kept here rather than read from other entries so
  /// alternate_holder never touches a second entry mutex.
  std::unordered_map<std::uint64_t, std::string> data_endpoints_;

  // Data-diffusion counters (see data_stats()).
  std::atomic<std::uint64_t> n_data_stale_routes_{0};
  std::atomic<std::uint64_t> n_data_overwait_{0};
  std::atomic<std::uint64_t> n_data_deferrals_{0};
  std::atomic<std::uint64_t> n_data_digests_{0};
  std::atomic<std::uint64_t> n_data_evictions_{0};

  // ---- counters (lock-free snapshots for status()) ----
  std::atomic<std::uint64_t> n_submitted_{0};
  std::atomic<std::uint64_t> n_completed_{0};
  std::atomic<std::uint64_t> n_failed_{0};
  std::atomic<std::uint64_t> n_retried_{0};
  std::atomic<std::uint64_t> n_suspicions_{0};
  std::atomic<std::uint64_t> n_false_suspicions_{0};
  std::atomic<std::uint64_t> n_quarantined_{0};
  std::atomic<std::uint64_t> dispatched_count_{0};
  std::atomic<std::uint64_t> outboxed_{0};
  std::atomic<std::uint32_t> registered_{0};
  std::atomic<std::uint32_t> busy_{0};

  std::atomic<bool> shutdown_{false};
};

}  // namespace falkon::core
