// Fixed-size thread pool.
//
// Used by the dispatcher's notification engine (paper section 3.2: "a pool
// of threads operate to send out notifications") and by the RPC server for
// handling concurrent connections.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/queue.h"

namespace falkon {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads, std::string name = "pool");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a job; fails with kClosed after shutdown() was called.
  Status submit(std::function<void()> job);

  /// Stop accepting jobs, run what is queued, join all workers. Idempotent.
  void shutdown();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }
  [[nodiscard]] std::size_t pending() const { return jobs_.size(); }

 private:
  void worker_loop();

  BlockingQueue<std::function<void()>> jobs_;
  std::vector<std::thread> workers_;
  std::string name_;
};

/// Threads that outlive their jobs, for owners that start a long-running
/// loop again and again (a client's result-stream reader, one per session).
/// run() hands the job to a parked thread, or starts a thread when none is
/// parked; a thread whose job returns parks for the next one. Each start
/// then reuses the same few threads instead of creating and exiting one,
/// which keeps the threads' thread-local state — glibc's per-thread malloc
/// arena above all — from being handed out anew every time (see
/// docs/PERFORMANCE.md, "Process memory").
class ThreadCache {
 public:
  using Ticket = std::uint64_t;

  ThreadCache() = default;
  /// Joins every thread. Jobs must have returned (their owners wait()).
  ~ThreadCache();

  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;

  /// Run `job` on a parked thread, or on a new one when none is parked.
  Ticket run(std::function<void()> job);
  /// Block until the job behind `ticket` has returned. Its thread is parked
  /// again by then, so a run() right after reuses it.
  void wait(Ticket ticket);

 private:
  void park_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<std::pair<Ticket, std::function<void()>>> jobs_;
  std::unordered_set<Ticket> done_;
  Ticket next_ticket_{1};
  std::size_t parked_{0};  // parked threads not yet claimed by a run()
  bool closed_{false};
  std::vector<std::thread> threads_;
};

}  // namespace falkon
