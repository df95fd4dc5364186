// Seeded bug fixtures for the chaos harness's mutation-style self-test.
//
// Each flag re-introduces one specific, historically plausible bug into
// the HA stack. They exist so tests can prove the chaos search
// (src/chaos) actually *finds* planted defects and shrinks them to
// minimal reproducers — a mutation test of the harness itself, not of
// the production code. All flags default to false; production paths
// pay one relaxed bool load per guarded operation and change no
// arithmetic while the flags are off.
//
// The flags are process-global on purpose: the victims a chaos trial
// runs construct their own NodeGroups/stores internally, so a scoped
// per-instance knob could not reach them.
#pragma once

namespace hetsim::fault {

struct TestHooks {
  /// ha::ShardRouter never gives up on a key's first preference: a
  /// dead (or breaker-open) primary keeps its route slot instead of
  /// being demoted/shed, so every op burns its retry budget against a
  /// corpse before reaching a live replica.
  bool router_pin_dead_primary = false;
  /// ha::Client write fan-out stops one replica short of the route:
  /// every logical write is quietly under-replicated by one copy.
  bool fanout_skip_last_replica = false;

  [[nodiscard]] bool any() const noexcept {
    return router_pin_dead_primary || fanout_skip_last_replica;
  }
};

/// The process-wide hook set. Mutate only from single-threaded test
/// setup (see ScopedTestHooks); concurrent victims read it racily-free
/// because nothing mutates it mid-trial.
[[nodiscard]] TestHooks& test_hooks() noexcept;

/// RAII: install a hook set for one test scope, restore on exit.
class ScopedTestHooks {
 public:
  explicit ScopedTestHooks(const TestHooks& hooks)
      : saved_(test_hooks()) {
    test_hooks() = hooks;
  }
  ScopedTestHooks(const ScopedTestHooks&) = delete;
  ScopedTestHooks& operator=(const ScopedTestHooks&) = delete;
  ~ScopedTestHooks() { test_hooks() = saved_; }

 private:
  TestHooks saved_;
};

}  // namespace hetsim::fault
