#include "common/thread_pool.h"

#include <utility>

namespace falkon {

ThreadPool::ThreadPool(std::size_t num_threads, std::string name)
    : name_(std::move(name)) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

Status ThreadPool::submit(std::function<void()> job) {
  return jobs_.push(std::move(job));
}

void ThreadPool::shutdown() {
  jobs_.close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    auto job = jobs_.pop();
    if (!job.ok()) return;  // closed and drained
    job.value()();
  }
}

ThreadCache::~ThreadCache() {
  {
    std::lock_guard lock(mu_);
    closed_ = true;
  }
  work_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

ThreadCache::Ticket ThreadCache::run(std::function<void()> job) {
  std::lock_guard lock(mu_);
  const Ticket ticket = next_ticket_++;
  jobs_.emplace_back(ticket, std::move(job));
  if (parked_ > 0) {
    --parked_;
    work_cv_.notify_one();
  } else {
    threads_.emplace_back([this] { park_loop(); });
  }
  return ticket;
}

void ThreadCache::wait(Ticket ticket) {
  std::unique_lock lock(mu_);
  done_cv_.wait(lock, [&] { return done_.count(ticket) != 0; });
  done_.erase(ticket);
}

void ThreadCache::park_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return closed_ || !jobs_.empty(); });
    if (jobs_.empty()) return;  // closed
    const Ticket ticket = jobs_.front().first;
    std::function<void()> job = std::move(jobs_.front().second);
    jobs_.pop_front();
    lock.unlock();
    job();
    job = nullptr;
    lock.lock();
    // Parked and done in one step: whoever waits on the ticket finds this
    // thread available to its next run().
    ++parked_;
    done_.insert(ticket);
    done_cv_.notify_all();
  }
}

}  // namespace falkon
