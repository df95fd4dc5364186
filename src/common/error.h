// Exception hierarchy for hetsim. A single base type so callers can catch
// framework errors distinctly from std ones; subtypes per failure domain.
#pragma once

#include <stdexcept>
#include <string>

namespace hetsim::common {

/// Base class of all hetsim-raised errors.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Invalid user-supplied configuration (bad alpha, zero partitions, ...).
class ConfigError : public Error {
 public:
  using Error::Error;
};

/// Key-value store protocol violations (missing key, wrong type, ...).
class StoreError : public Error {
 public:
  using Error::Error;
};

/// Optimization failures (infeasible LP, unbounded objective).
class OptimizeError : public Error {
 public:
  using Error::Error;
};

/// A bounded wait (virtual-time deadline or poll budget) expired before
/// the awaited condition held — e.g. a kvstore barrier still missing
/// parties after its poll budget.
class TimeoutError : public Error {
 public:
  using Error::Error;
};

/// Require `cond`, otherwise throw E with `message`.
template <typename E = Error>
inline void require(bool cond, const std::string& message) {
  if (!cond) throw E(message);
}

/// Same for a literal message, which becomes a std::string only on
/// failure: per-bit and per-code checks in hot loops stay cheap.
template <typename E = Error>
inline void require(bool cond, const char* message) {
  if (!cond) throw E(message);
}

}  // namespace hetsim::common
