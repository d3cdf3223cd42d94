// Annotated synchronization primitives — the only lock types allowed in
// src/ (tools/lint.py rule 8 bans raw std::mutex & friends outside this
// header pair). Thin wrappers over the std primitives that carry the
// capability annotations of util/thread_annotations.h, so the Clang
// `thread-safety` preset can prove lock discipline at compile time, plus an
// always-on held-lock assertion:
//
//   * Mutex / SharedMutex are capabilities. Members they protect carry
//     JARVIS_GUARDED_BY(mutex_); methods that assume the lock carry
//     JARVIS_REQUIRES(mutex_); public methods that take the lock carry
//     JARVIS_EXCLUDES(mutex_).
//   * MutexLock / WriterMutexLock / ReaderMutexLock are the RAII guards
//     (scoped capabilities). Prefer them over manual Lock/Unlock.
//   * CondVar pairs with Mutex (condition_variable_any under the hood, so
//     waits route through the annotated lock/unlock and keep the owner
//     bookkeeping exact across the sleep).
//
// Held-lock assertions: every Mutex tracks its owning thread (two relaxed
// atomic ops per lock/unlock — noise next to the lock itself, and the
// locks in this codebase sit on coarse paths: task scheduling, event
// publication, metric wiring). That buys three runtime checks in every
// build type, each throwing util::CheckError instead of deadlocking or
// corrupting silently:
//   * Lock() detects same-thread re-acquisition (self-deadlock) — the
//     dynamic backstop for the JARVIS_EXCLUDES re-entrancy contracts the
//     static analysis can't see through a std::function boundary.
//   * Unlock() detects release by a non-owner thread.
//   * AssertHeld() lets a REQUIRES-annotated helper verify its contract
//     dynamically too (opt-in, call it at the top of the helper).
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "util/thread_annotations.h"

namespace jarvis::util {

// Exclusive mutex (std::mutex + owner tracking + capability annotations).
class JARVIS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  ~Mutex();
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() JARVIS_ACQUIRE();
  void Unlock() JARVIS_RELEASE();

  // Throws util::CheckError unless the calling thread holds the lock. Use
  // at the top of JARVIS_REQUIRES helpers to back the static contract with
  // a dynamic one.
  void AssertHeld() const JARVIS_ASSERT_CAPABILITY(this);
  // Throws util::CheckError if the calling thread holds the lock (e.g. a
  // callback about to call back into an EXCLUDES API).
  void AssertNotHeld() const;

  // BasicLockable spelling so std facilities (CondVar's
  // condition_variable_any) compose while keeping the owner bookkeeping.
  void lock() JARVIS_ACQUIRE() { Lock(); }
  void unlock() JARVIS_RELEASE() { Unlock(); }

 private:
  std::mutex mutex_;
  // The thread currently holding mutex_ (default id = none). Relaxed is
  // enough: exact values are only compared against the reader's own id,
  // and writes are ordered by the mutex itself.
  std::atomic<std::thread::id> owner_{};
};

// Reader/writer mutex. Owner tracking covers the exclusive side only — a
// shared holder set cannot be tracked without per-thread state, which this
// codebase bans (lint rule 7).
class JARVIS_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  ~SharedMutex();
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() JARVIS_ACQUIRE();
  void Unlock() JARVIS_RELEASE();
  void ReaderLock() JARVIS_ACQUIRE_SHARED();
  void ReaderUnlock() JARVIS_RELEASE_SHARED();

  // Exclusive-held assertion (see Mutex::AssertHeld).
  void AssertHeld() const JARVIS_ASSERT_CAPABILITY(this);

 private:
  std::shared_mutex mutex_;
  std::atomic<std::thread::id> owner_{};  // exclusive owner only
};

// RAII exclusive lock over a Mutex.
class JARVIS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) JARVIS_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.Lock();
  }
  ~MutexLock() JARVIS_RELEASE() { mutex_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

// RAII exclusive lock over a SharedMutex (the writer side).
class JARVIS_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mutex) JARVIS_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.Lock();
  }
  ~WriterMutexLock() JARVIS_RELEASE() { mutex_.Unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mutex_;
};

// RAII shared (reader) lock over a SharedMutex.
class JARVIS_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mutex) JARVIS_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.ReaderLock();
  }
  ~ReaderMutexLock() JARVIS_RELEASE() { mutex_.ReaderUnlock(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mutex_;
};

// Condition variable paired with util::Mutex. Waits release and re-acquire
// through the mutex's annotated lock/unlock, so owner tracking stays exact
// while the thread sleeps. The analysis does not model the release inside
// Wait — REQUIRES(mutex) holds at entry and at return, which is the
// contract callers see.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mutex`, blocks until notified, re-acquires.
  // Spurious wakeups happen; use the predicate overload.
  void Wait(Mutex& mutex) JARVIS_REQUIRES(mutex);

  // Waits until pred() is true (re-evaluated under the lock after every
  // wakeup).
  template <typename Predicate>
  void Wait(Mutex& mutex, Predicate pred) JARVIS_REQUIRES(mutex) {
    while (!pred()) {
      Wait(mutex);
    }
  }

  void Signal();     // wake one waiter
  void SignalAll();  // wake every waiter

 private:
  std::condition_variable_any cv_;
};

}  // namespace jarvis::util
