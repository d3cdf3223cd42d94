// util::Mutex contract tests: the RAII guards, the CondVar pairing, and —
// the point of the wrapper — the always-on owner-tracking assertions that
// turn self-deadlocks and foreign unlocks into util::CheckError instead of
// hangs. The concurrent cases double as TSan coverage (label `runtime`).
#include "util/mutex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "util/check.h"

namespace jarvis::util {
namespace {

TEST(Mutex, LockUnlockRoundTrip) {
  Mutex mutex;
  mutex.Lock();
  mutex.AssertHeld();
  mutex.Unlock();
  EXPECT_THROW(mutex.AssertHeld(), CheckError);
}

TEST(Mutex, ReentrantLockIsACheckErrorNotADeadlock) {
  Mutex mutex;
  MutexLock lock(mutex);
  EXPECT_THROW(mutex.Lock(), CheckError);
}

TEST(Mutex, UnlockByNonOwnerIsACheckError) {
  Mutex mutex;
  std::atomic<bool> locked{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    mutex.Lock();
    locked.store(true);
    while (!release.load()) std::this_thread::yield();
    mutex.Unlock();
  });
  while (!locked.load()) std::this_thread::yield();
  EXPECT_THROW(mutex.Unlock(), CheckError);
  release.store(true);
  holder.join();
}

TEST(Mutex, AssertNotHeldCatchesTheOwner) {
  Mutex mutex;
  mutex.AssertNotHeld();  // free: fine
  MutexLock lock(mutex);
  EXPECT_THROW(mutex.AssertNotHeld(), CheckError);
}

TEST(Mutex, MutexLockSerializesConcurrentIncrements) {
  Mutex mutex;
  std::size_t counter = 0;  // non-atomic on purpose: the lock is the fence
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&mutex, &counter] {
      for (int i = 0; i < 1000; ++i) {
        MutexLock lock(mutex);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, 4000u);
}

TEST(SharedMutex, WriterExcludesWritersAndTracksOwner) {
  SharedMutex mutex;
  {
    WriterMutexLock lock(mutex);
    mutex.AssertHeld();
    EXPECT_THROW(mutex.Lock(), CheckError);  // re-entrant writer
  }
  EXPECT_THROW(mutex.AssertHeld(), CheckError);
}

TEST(SharedMutex, WriterDowngradeViaReaderLockIsACheckError) {
  SharedMutex mutex;
  WriterMutexLock lock(mutex);
  EXPECT_THROW(mutex.ReaderLock(), CheckError);
}

TEST(SharedMutex, ReadersShareWritersSerialize) {
  SharedMutex mutex;
  std::size_t value = 0;  // non-atomic: reader/writer lock is the fence
  std::atomic<std::size_t> reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        WriterMutexLock lock(mutex);
        ++value;
      }
    });
  }
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      std::size_t last = 0;
      for (int i = 0; i < 500; ++i) {
        ReaderMutexLock lock(mutex);
        EXPECT_GE(value, last);  // monotone under the writers above
        last = value;
        reads.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(value, 1000u);
  EXPECT_EQ(reads.load(), 2000u);
}

TEST(CondVar, WaitReleasesAndReacquiresWithExactOwnership) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(mutex);
    ready = true;
    cv.Signal();
  });
  {
    MutexLock lock(mutex);
    while (!ready) {
      cv.Wait(mutex);
    }
    // Re-acquired on wakeup: the owner assertion must agree.
    mutex.AssertHeld();
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(CondVar, PredicateOverloadHandlesSpuriousWakeups) {
  Mutex mutex;
  CondVar cv;
  int stage = 0;
  std::thread producer([&] {
    for (int next = 1; next <= 3; ++next) {
      MutexLock lock(mutex);
      stage = next;
      cv.SignalAll();
    }
  });
  {
    MutexLock lock(mutex);
    cv.Wait(mutex, [&] { return stage == 3; });
    EXPECT_EQ(stage, 3);
  }
  producer.join();
}

}  // namespace
}  // namespace jarvis::util
