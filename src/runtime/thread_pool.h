// Fixed-size worker pool with a bounded work queue — the execution engine
// under runtime::Fleet. Design constraints, in order:
//
//   * No detached threads: every worker is joined in Shutdown() (and the
//     destructor), so no task outlives the pool and TSan sees a clean
//     happens-before edge from every task to the code after Shutdown().
//   * Bounded queue: Submit() blocks once `queue_capacity` tasks are
//     waiting, so a fast producer (the fleet scheduler enqueuing thousands
//     of tenants) cannot balloon memory; backpressure instead of OOM.
//   * Exception capture per task: a task that throws is caught (and
//     counted in runtime.pool.tasks_failed when a registry is wired) — one
//     bad tenant must never std::terminate the process ("quarantined, not
//     torn down"). Callers that need per-task error detail (Fleet does)
//     catch inside their own task body; this layer is the backstop.
//
// Locking model (DESIGN.md §13): one util::Mutex guards every piece of
// mutable pool state — the annotations below make that machine-checked
// under the `thread-safety` preset, and tools/lint.py rule 9 insists every
// member is either guarded or explicitly justified. Shutdown is safe to
// race from any number of threads: exactly one caller swaps the workers
// out and joins them; the others block until the join completes, so the
// "all tasks finished" postcondition holds for every caller.
//
// The pool is deliberately minimal: no futures, no priorities, no work
// stealing. Fleet jobs are coarse (a whole tenant pipeline), so a mutex +
// two condition variables saturate any core count the fleet can use.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace jarvis::runtime {

class ThreadPool {
 public:
  // Starts `workers` threads (at least 1) sharing a queue that holds at
  // most `queue_capacity` waiting tasks (at least 1). A non-null
  // `registry` wires runtime.pool.* instruments: tasks_executed /
  // tasks_failed counters, a queue-depth gauge sampled at every
  // enqueue/dequeue, and a task-latency histogram (all but the executed
  // counter are kTiming — scheduling-dependent by nature).
  explicit ThreadPool(std::size_t workers, std::size_t queue_capacity = 256,
                      obs::Registry* registry = nullptr);

  // Drains and joins (Shutdown).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; blocks while the queue is at capacity. Returns false
  // (and drops the task) if the pool has been shut down.
  bool Submit(std::function<void()> task) JARVIS_EXCLUDES(mutex_);

  // Non-blocking admission control: enqueues only if the queue has room
  // RIGHT NOW; false at capacity or after shutdown, without ever waiting.
  // This is what lets a serving layer reject with an explicit overload
  // response instead of stacking blocked producers behind a full queue
  // (serve::Server; DESIGN.md §15).
  bool TrySubmit(std::function<void()> task) JARVIS_EXCLUDES(mutex_);

  // Blocks until every submitted task has finished executing (queue empty
  // and no worker mid-task). New Submits may still follow.
  void WaitIdle() JARVIS_EXCLUDES(mutex_);

  // Stops accepting work, runs everything already queued to completion,
  // and joins all workers. Idempotent and safe to call concurrently:
  // every caller returns only after the join has completed.
  void Shutdown() JARVIS_EXCLUDES(mutex_);

  // Fixed at construction (never the live thread count mid-shutdown, so
  // it is safe to read while another thread shuts the pool down).
  std::size_t worker_count() const { return worker_count_; }

 private:
  void WorkerLoop() JARVIS_EXCLUDES(mutex_);

  mutable util::Mutex mutex_;
  util::CondVar not_empty_;      // workers wait for tasks
  util::CondVar not_full_;       // producers wait for queue room
  util::CondVar idle_;           // WaitIdle waits for quiescence
  util::CondVar shutdown_done_;  // losers of the shutdown race wait here
  std::deque<std::function<void()>> queue_ JARVIS_GUARDED_BY(mutex_);
  // Swapped out (not just cleared) by the single joining Shutdown caller,
  // so the std::thread objects are only ever joined once.
  std::vector<std::thread> workers_ JARVIS_GUARDED_BY(mutex_);
  const std::size_t worker_count_;    // unguarded: fixed at construction
  const std::size_t queue_capacity_;  // unguarded: fixed at construction
  std::size_t active_ JARVIS_GUARDED_BY(mutex_) = 0;  // tasks executing now
  bool shutting_down_ JARVIS_GUARDED_BY(mutex_) = false;
  bool joined_ JARVIS_GUARDED_BY(mutex_) = false;
  // Instrument pointers are wired once in the constructor (before any
  // worker starts) and read-only afterwards; the instruments themselves
  // are internally synchronized atomics.
  obs::Counter* executed_counter_ = nullptr;   // unguarded: wired in ctor
  obs::Counter* failed_counter_ = nullptr;     // unguarded: wired in ctor
  obs::Gauge* queue_depth_gauge_ = nullptr;    // unguarded: wired in ctor
  obs::Histogram* task_timer_ = nullptr;       // unguarded: wired in ctor
};

}  // namespace jarvis::runtime
