#include "util/mutex.h"

#include "util/check.h"

namespace jarvis::util {

namespace {

// Default-constructed id == "no thread".
const std::thread::id kNoOwner{};

}  // namespace

// ---------------------------------------------------------------------------
// Mutex

Mutex::~Mutex() {
  // Destroying a locked mutex is UB; surface it as a contract violation
  // while the owner information is still there.
  JARVIS_CHECK(owner_.load(std::memory_order_relaxed) == kNoOwner,
               "util::Mutex destroyed while locked");
}

void Mutex::Lock() {
  JARVIS_CHECK(
      owner_.load(std::memory_order_relaxed) != std::this_thread::get_id(),
      "util::Mutex::Lock: re-entrant lock on the owning thread "
      "(self-deadlock; see the JARVIS_EXCLUDES contract of the caller)");
  mutex_.lock();
  owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
}

void Mutex::Unlock() {
  JARVIS_CHECK(
      owner_.load(std::memory_order_relaxed) == std::this_thread::get_id(),
      "util::Mutex::Unlock: calling thread does not hold the lock");
  owner_.store(kNoOwner, std::memory_order_relaxed);
  mutex_.unlock();
}

void Mutex::AssertHeld() const {
  JARVIS_CHECK(
      owner_.load(std::memory_order_relaxed) == std::this_thread::get_id(),
      "util::Mutex::AssertHeld: calling thread does not hold the lock");
}

void Mutex::AssertNotHeld() const {
  JARVIS_CHECK(
      owner_.load(std::memory_order_relaxed) != std::this_thread::get_id(),
      "util::Mutex::AssertNotHeld: calling thread holds the lock");
}

// ---------------------------------------------------------------------------
// SharedMutex

SharedMutex::~SharedMutex() {
  JARVIS_CHECK(owner_.load(std::memory_order_relaxed) == kNoOwner,
               "util::SharedMutex destroyed while exclusively locked");
}

void SharedMutex::Lock() {
  JARVIS_CHECK(
      owner_.load(std::memory_order_relaxed) != std::this_thread::get_id(),
      "util::SharedMutex::Lock: re-entrant exclusive lock (self-deadlock)");
  mutex_.lock();
  owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
}

void SharedMutex::Unlock() {
  JARVIS_CHECK(
      owner_.load(std::memory_order_relaxed) == std::this_thread::get_id(),
      "util::SharedMutex::Unlock: calling thread does not hold the lock");
  owner_.store(kNoOwner, std::memory_order_relaxed);
  mutex_.unlock();
}

void SharedMutex::ReaderLock() {
  JARVIS_CHECK(
      owner_.load(std::memory_order_relaxed) != std::this_thread::get_id(),
      "util::SharedMutex::ReaderLock: exclusive owner downgrading via "
      "re-entrant reader lock (self-deadlock)");
  mutex_.lock_shared();
}

void SharedMutex::ReaderUnlock() { mutex_.unlock_shared(); }

void SharedMutex::AssertHeld() const {
  JARVIS_CHECK(
      owner_.load(std::memory_order_relaxed) == std::this_thread::get_id(),
      "util::SharedMutex::AssertHeld: calling thread does not hold the "
      "exclusive lock");
}

// ---------------------------------------------------------------------------
// CondVar

void CondVar::Wait(Mutex& mutex) {
  // condition_variable_any releases/re-acquires through Mutex's
  // BasicLockable surface, so the owner bookkeeping (and its contract
  // checks) stay exact across the sleep.
  cv_.wait(mutex);
}

void CondVar::Signal() { cv_.notify_one(); }

void CondVar::SignalAll() { cv_.notify_all(); }

}  // namespace jarvis::util
