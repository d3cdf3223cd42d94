#include "runtime/thread_pool.h"

#include <algorithm>
#include <utility>

namespace jarvis::runtime {

ThreadPool::ThreadPool(std::size_t workers, std::size_t queue_capacity,
                       obs::Registry* registry)
    : worker_count_(std::max<std::size_t>(1, workers)),
      queue_capacity_(std::max<std::size_t>(1, queue_capacity)) {
  if (registry != nullptr) {
    executed_counter_ = registry->GetCounter("runtime.pool.tasks_executed");
    failed_counter_ = registry->GetCounter("runtime.pool.tasks_failed");
    queue_depth_gauge_ = registry->GetGauge("runtime.pool.queue_depth",
                                            obs::Determinism::kTiming);
    task_timer_ = registry->GetTimerUs("runtime.pool.task_us");
  }
  // Spawn under the lock: workers_ is guarded, and a worker that starts
  // instantly blocks on the same mutex until construction finishes.
  util::MutexLock lock(mutex_);
  workers_.reserve(worker_count_);
  for (std::size_t i = 0; i < worker_count_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  if (!task) return false;
  {
    util::MutexLock lock(mutex_);
    while (!shutting_down_ && queue_.size() >= queue_capacity_) {
      not_full_.Wait(mutex_);
    }
    if (shutting_down_) return false;
    queue_.push_back(std::move(task));
    if (queue_depth_gauge_ != nullptr) {
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
    }
  }
  not_empty_.Signal();
  return true;
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  if (!task) return false;
  {
    util::MutexLock lock(mutex_);
    if (shutting_down_ || queue_.size() >= queue_capacity_) return false;
    queue_.push_back(std::move(task));
    if (queue_depth_gauge_ != nullptr) {
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
    }
  }
  not_empty_.Signal();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      util::MutexLock lock(mutex_);
      while (!shutting_down_ && queue_.empty()) {
        not_empty_.Wait(mutex_);
      }
      // Graceful shutdown: drain the queue before exiting, so Shutdown()
      // runs everything already accepted.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      if (queue_depth_gauge_ != nullptr) {
        queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
      }
    }
    not_full_.Signal();

    bool failed = false;
    try {
      obs::ScopedTimer timer(task_timer_);
      task();
    } catch (...) {
      failed = true;  // the backstop: a throwing task never ends the process
    }

    if (executed_counter_ != nullptr) {
      executed_counter_->Increment();
      if (failed) failed_counter_->Increment();
    }
    {
      util::MutexLock lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.SignalAll();
    }
  }
}

void ThreadPool::WaitIdle() {
  util::MutexLock lock(mutex_);
  while (!queue_.empty() || active_ != 0) {
    idle_.Wait(mutex_);
  }
}

void ThreadPool::Shutdown() {
  std::vector<std::thread> to_join;
  {
    util::MutexLock lock(mutex_);
    if (shutting_down_) {
      // Another thread is (or finished) joining; wait until the workers
      // are really gone so every Shutdown caller gets the same
      // "all tasks completed" postcondition. Joining the same
      // std::thread twice is UB, hence swap-and-wait instead of a
      // shared join loop.
      while (!joined_) {
        shutdown_done_.Wait(mutex_);
      }
      return;
    }
    shutting_down_ = true;
    to_join.swap(workers_);
  }
  not_empty_.SignalAll();
  not_full_.SignalAll();
  for (auto& worker : to_join) {
    if (worker.joinable()) worker.join();
  }
  {
    util::MutexLock lock(mutex_);
    joined_ = true;
  }
  shutdown_done_.SignalAll();
}

}  // namespace jarvis::runtime
