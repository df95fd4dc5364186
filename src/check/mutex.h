// check::Mutex — std::mutex with the Clang thread-safety annotations
// (check/thread_safety.h), so -Wthread-safety can prove GUARDED_BY
// contracts at compile time.
//
// hetsim has one mutex: par::ThreadPool's fan-out state. Everything else
// (kvstore, trace, router, fault injector) is reached only from the
// simulator's driving thread, so it holds no lock at all; pool chunk
// bodies are pure kernels (DESIGN.md §7). Naked std::mutex is banned
// outside src/check/ (tools/hetsim_analyze's naked-mutex rule), so any
// new lock goes through this type and its annotated guards.
#pragma once

#include <mutex>

#include "check/thread_safety.h"

namespace hetsim::check {

class HETSIM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HETSIM_ACQUIRE() { mu_.lock(); }
  void unlock() HETSIM_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// std::lock_guard for Mutex, with the scoped-capability annotation
/// std::lock_guard lacks — Clang's -Wthread-safety only credits an
/// acquisition it can see.
class HETSIM_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) HETSIM_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() HETSIM_RELEASE() { mu_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// std::unique_lock for Mutex: BasicLockable, so it works with
/// std::condition_variable_any. Constructor/destructor carry the
/// scoped-capability annotations; the lock()/unlock() pair a condition
/// wait calls is deliberately unannotated — the analysis treats the
/// capability as held for the whole scope, which is sound because the
/// wait re-acquires before returning.
class HETSIM_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) HETSIM_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
    owns_ = true;
  }
  ~UniqueLock() HETSIM_RELEASE() {
    if (owns_) mu_.unlock();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() {
    mu_.lock();
    owns_ = true;
  }
  void unlock() {
    owns_ = false;
    mu_.unlock();
  }

 private:
  Mutex& mu_;
  bool owns_ = false;
};

}  // namespace hetsim::check
