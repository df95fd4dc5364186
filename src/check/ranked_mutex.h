// Deadlock-free-by-construction locking: every mutex in hetsim carries a
// rank from the global lock hierarchy below, and (in checking builds) a
// per-thread acquisition-stack registry aborts the process the moment any
// thread tries to acquire a mutex whose rank is not strictly greater than
// every rank it already holds. Rank inversion — the raw material of every
// lock-cycle deadlock — therefore dies deterministically on the first
// occurrence in any test run, instead of deadlocking one CI job in a
// thousand.
//
// Global lock hierarchy (acquire strictly downward in this table; a row
// may be taken while holding any row above it, never one below):
//
//   rank | LockRank    | instance                      | protects
//   -----+-------------+-------------------------------+------------------
//    200 | kTrace      | TraceRecorder::mu_            | trace event and
//        |             |                               | lane-name buffers
//    250 | kHa         | ha::ShardRouter::mu_          | replica liveness,
//        |             |                               | election log,
//        |             |                               | replication stats
//    300 | kStore      | kvstore::Store::mu_           | keyspace map and
//        |             |                               | op counter
//    350 | kFault      | fault::FaultInjector::mu_     | per-target fault
//        |             |                               | draw counters
//    400 | kParPool    | par::ThreadPool::mu_          | fan-out job slot,
//        |             |                               | lane tally (leaf)
//
// The executor is a single-threaded loop that holds no lock, so trace
// recording (kTrace), shard-router queries (kHa) and kvstore migration
// traffic (kStore) issued from a chunk body or checkpoint start from an
// empty held-set. The ranking still orders the subsystems: neither the
// recorder, the router nor the store ever calls back out while locked,
// and the router never issues store traffic under its own lock (routing
// decisions are returned by value), so kHa < kStore holds by
// construction. The parallel-for pool is leaf-most: a caller may fan
// out while holding anything above, and chunk bodies run with no pool
// lock held, so they can themselves take kStore or kTrace. Equal ranks
// never nest: acquiring a second mutex of the rank you already hold
// (including re-acquiring the same mutex) also aborts, which catches
// self-deadlock.
//
// RankedMutex satisfies Lockable; acquire it through check::LockGuard
// (scoped) or check::UniqueLock (condition waits, unlock-around-callback
// windows) below, which carry the Clang thread-safety annotations
// (check/thread_safety.h) that let -Wthread-safety prove GUARDED_BY
// contracts at compile time. Naked std::mutex is banned outside
// src/check/, and lock acquisition order is additionally checked
// statically (both enforced by tools/hetsim_analyze).
//
// Checking is gated on HETSIM_DCHECK_ENABLED (forced on by the
// HETSIM_DCHECKS CMake option, default ON); with it off, RankedMutex is a
// zero-overhead shim over std::mutex.
#pragma once

#include <cstdint>
#include <mutex>

#include "check/check.h"
#include "check/thread_safety.h"

namespace hetsim::check {

/// The global lock hierarchy. Gaps are deliberate: future subsystems
/// slot in without renumbering.
enum class LockRank : std::uint32_t {
  kTrace = 200,    // runtime::TraceRecorder buffers (outermost)
  kHa = 250,       // ha::ShardRouter liveness + election log
  kStore = 300,    // kvstore::Store keyspace
  kFault = 350,    // fault::FaultInjector draw counters
  kParPool = 400,  // par::ThreadPool fan-out state (leaf)
};

class HETSIM_CAPABILITY("mutex") RankedMutex {
 public:
  RankedMutex(LockRank rank, const char* name) noexcept
      : rank_(rank), name_(name) {}
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() HETSIM_ACQUIRE();
  bool try_lock() HETSIM_TRY_ACQUIRE(true);
  void unlock() HETSIM_RELEASE();

  [[nodiscard]] LockRank rank() const noexcept { return rank_; }
  [[nodiscard]] const char* name() const noexcept { return name_; }

  /// Number of ranked mutexes the calling thread currently holds
  /// (0 when checking is compiled out). Test/debug helper.
  [[nodiscard]] static std::size_t held_by_this_thread();

 private:
  void check_order_before_acquire() const;
  void register_acquired() const;
  void register_released() const;

  std::mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

/// std::lock_guard for RankedMutex, with the scoped-capability
/// annotation std::lock_guard lacks — Clang's -Wthread-safety only
/// credits an acquisition it can see.
class HETSIM_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(RankedMutex& mu) HETSIM_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~LockGuard() HETSIM_RELEASE() { mu_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  RankedMutex& mu_;
};

/// std::unique_lock for RankedMutex: BasicLockable (so it works with
/// std::condition_variable_any) plus explicit unlock()/lock() for the
/// executor's unlock-around-callback windows. Constructor/destructor
/// carry the scoped-capability annotations; the mid-scope lock()/
/// unlock() pair is deliberately unannotated — the analysis treats the
/// capability as held for the whole scope, which is sound here because
/// the unlocked windows never touch guarded state (the RankedMutex
/// runtime registry still checks the real acquisition order).
class HETSIM_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(RankedMutex& mu) HETSIM_ACQUIRE(mu) : mu_(mu) {
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
  [[nodiscard]] bool owns_lock() const noexcept { return owns_; }

 private:
  RankedMutex& mu_;
  bool owns_ = false;
};

}  // namespace hetsim::check
