#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace jarvis::runtime {
namespace {

std::uint64_t PoolCounter(const obs::Registry& registry,
                          const std::string& name) {
  return registry.TakeSnapshot().CounterValue("runtime.pool." + name);
}

TEST(ThreadPool, ExecutesEverySubmittedTask) {
  obs::Registry registry;
  ThreadPool pool(4, 256, &registry);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(pool.Submit([&counter] { ++counter; }));
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 200);
  EXPECT_EQ(PoolCounter(registry, "tasks_executed"), 200u);
  EXPECT_EQ(PoolCounter(registry, "tasks_failed"), 0u);
}

TEST(ThreadPool, TrySubmitRejectsAtCapacityWithoutBlocking) {
  // One worker parked on a gate + a one-slot queue: admission state is
  // fully deterministic, so TrySubmit's accept/reject answers are exact.
  ThreadPool pool(1, /*queue_capacity=*/1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> started;
  ASSERT_TRUE(pool.Submit([&started, gate] {
    started.set_value();
    gate.wait();
  }));
  started.get_future().wait();  // the worker has DEQUEUED the parked task

  std::atomic<int> ran{0};
  EXPECT_TRUE(pool.TrySubmit([&ran] { ++ran; }));   // fills the only slot
  EXPECT_FALSE(pool.TrySubmit([&ran] { ++ran; }));  // at capacity: reject
  EXPECT_FALSE(pool.TrySubmit([&ran] { ++ran; }));  // still full, still no wait

  release.set_value();
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 1);  // only the admitted task ever ran
  // With the queue empty again, admission resumes.
  EXPECT_TRUE(pool.TrySubmit([&ran] { ++ran; }));
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, TrySubmitRefusesNullAndShutDown) {
  ThreadPool pool(1, 4);
  EXPECT_FALSE(pool.TrySubmit(std::function<void()>()));
  pool.Shutdown();
  EXPECT_FALSE(pool.TrySubmit([] {}));
}

TEST(ThreadPool, BoundedQueueBackpressureStillRunsEverything) {
  // A tiny queue forces Submit to block on backpressure; every task must
  // still execute exactly once.
  ThreadPool pool(2, /*queue_capacity=*/2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.Submit([&counter] { ++counter; }));
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, CapturesTaskExceptionsAndSurvives) {
  obs::Registry registry;
  ThreadPool pool(2, 256, &registry);
  std::atomic<int> ok{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([] { throw std::runtime_error("tenant exploded"); });
    pool.Submit([&ok] { ++ok; });
  }
  pool.WaitIdle();
  EXPECT_EQ(ok.load(), 10);
  EXPECT_EQ(PoolCounter(registry, "tasks_failed"), 10u);
  EXPECT_EQ(PoolCounter(registry, "tasks_executed"), 20u);
  // The pool still accepts and runs work after failures.
  pool.Submit([&ok] { ++ok; });
  pool.WaitIdle();
  EXPECT_EQ(ok.load(), 11);
}

TEST(ThreadPool, CapturesNonStdExceptions) {
  obs::Registry registry;
  ThreadPool pool(1, 256, &registry);
  pool.Submit([] { throw 42; });  // NOLINT(hicpp-exception-baseclass)
  pool.WaitIdle();
  EXPECT_EQ(PoolCounter(registry, "tasks_failed"), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.WaitIdle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ShutdownDrainsQueueThenRejects) {
  ThreadPool pool(1, 64);
  std::atomic<int> counter{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&counter] { ++counter; });
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 32);  // graceful: queued work ran to completion
  EXPECT_FALSE(pool.Submit([&counter] { ++counter; }));
  EXPECT_EQ(counter.load(), 32);
  pool.Shutdown();  // idempotent
}

TEST(ThreadPool, DestructorJoinsWithoutLosingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3, 8);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  }  // ~ThreadPool: drain + join; no detached threads survive this scope
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ConcurrentProducers) {
  ThreadPool pool(4, 16);
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  producers.reserve(4);
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < 50; ++i) {
        pool.Submit([&counter] { ++counter; });
      }
    });
  }
  for (auto& producer : producers) producer.join();
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ConcurrentShutdownJoinsEveryWorkerExactlyOnce) {
  // Regression: a Shutdown racing the destructor (or another Shutdown)
  // used to double-join the same std::thread. Now exactly one caller swaps
  // the workers out and joins; the others block on shutdown_done_, so the
  // drained-queue postcondition holds for all of them.
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { ++counter; });
  }
  std::vector<std::thread> closers;
  for (int t = 0; t < 4; ++t) {
    closers.emplace_back([&pool] { pool.Shutdown(); });
  }
  for (auto& closer : closers) closer.join();
  EXPECT_EQ(counter.load(), 100);  // every queued task ran before return
  EXPECT_FALSE(pool.Submit([] {}));
  pool.Shutdown();  // idempotent after the race; destructor makes it 6 calls
}

TEST(ThreadPool, TasksRunOnWorkerThreads) {
  ThreadPool pool(2);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&mutex, &ids] {
      std::lock_guard<std::mutex> lock(mutex);
      ids.insert(std::this_thread::get_id());
    });
  }
  pool.WaitIdle();
  EXPECT_FALSE(ids.count(std::this_thread::get_id()));
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 2u);
}

}  // namespace
}  // namespace jarvis::runtime
