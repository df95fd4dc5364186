// lock-rank fixtures: acquisitions that violate the strict-descent
// rule, including one only visible through the call graph. Fixtures
// are lexed by hetsim_analyze, never compiled, so the check:: types
// are named without includes.

namespace fxlock {

// Shallow (rank 200) mutex behind a method: the inversion below is
// only reachable interprocedurally via plan()'s propagated min rank.
class PlanBoard {
 public:
  void plan() {
    check::LockGuard g(mu_);
    ++steps_;
  }

 private:
  check::RankedMutex mu_{check::LockRank::kTrace};
  int steps_ = 0;
};

class StoreFront {
 public:
  void refresh(PlanBoard& board) {
    check::LockGuard g(mu_);
    board.plan();  // expect: lock-rank
  }

 private:
  check::RankedMutex mu_{check::LockRank::kStore};
};

class Ledger {
 public:
  void audit() {
    check::LockGuard outer(deep_mu_);
    check::LockGuard inner(shallow_mu_);  // expect: lock-rank
    ++entries_;
  }

  void equal_rank() {
    check::LockGuard a(deep_mu_);
    check::LockGuard b(peer_mu_);  // expect: lock-rank
  }

 private:
  check::RankedMutex shallow_mu_{check::LockRank::kTrace};
  check::RankedMutex deep_mu_{check::LockRank::kStore};
  check::RankedMutex peer_mu_{check::LockRank::kStore};
  int entries_ = 0;
};

}  // namespace fxlock
