// hetsim_analyze — shared function-body walking helpers: local/param
// type collection, receiver resolution and call-graph edge resolution.
//
// Resolution is deliberately conservative: a receiver or callee the
// helpers cannot pin to a declared type resolves to "unknown", and the
// checkers treat unknown as "no knowledge" rather than guessing.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/index.h"

namespace hetsim::analyze {

/// var name -> terminal type ident ("Client", "UniqueLock", "auto", ...).
using LocalTypes = std::map<std::string, std::string>;

/// One `name(...)` site inside a function body.
struct CallSite {
  std::string name;
  std::size_t name_at = 0;  // token index of the name
  std::size_t open = 0;     // '('
  std::size_t close = 0;    // matching ')'
  bool has_receiver = false;  // `x.name(...)` / `x->name(...)`
  std::string receiver;       // receiver ident ("" when not a plain ident)
  std::string receiver_type;  // resolved terminal type ("" = unknown)
  bool qualified = false;     // `X::name(...)`
  std::string qualifier;      // the ident before '::'
};

class Resolver {
 public:
  explicit Resolver(const Index& index);

  const Index& index() const { return index_; }

  /// Collect parameter + local-variable types for `fn`.
  [[nodiscard]] LocalTypes collect_locals(const FunctionDef& fn) const;

  /// Parse the call whose name token is at `i` (tokens[i + 1] must be
  /// '('), resolving the receiver type via `locals` and the enclosing
  /// class's members. Returns false when `i` is not a call-shaped site.
  bool parse_call(const FunctionDef& fn, const LocalTypes& locals,
                  std::size_t i, CallSite& out) const;

  /// Candidate function ids for a parsed call (overload sets merged by
  /// the caller, conservatively). Empty = unresolved.
  [[nodiscard]] std::vector<std::size_t> callees(const FunctionDef& fn,
                                                 const CallSite& call) const;

 private:
  /// Map a terminal type ident to a class key used by Index::members /
  /// FunctionDef::klass ("State" -> "PhaseExecutor::State" when unique).
  /// Returns `terminal` unchanged when no better match exists.
  [[nodiscard]] std::string class_key(const std::string& terminal) const;

  /// Terminal type of `name` as seen from `fn`: local/param first, then
  /// enclosing-class member. "" = unknown.
  [[nodiscard]] std::string type_of(const FunctionDef& fn,
                                    const LocalTypes& locals,
                                    const std::string& name) const;

  const Index& index_;
  std::set<std::string> class_keys_;
};

/// Backward from token `at` (exclusive): skip `&` / `*`, then return
/// the terminal type ident — the directly preceding ident, or for a
/// closed template (`...>`), the ident before its '<'. "" when neither
/// (or when the preceding ident is a keyword, not a type).
[[nodiscard]] std::string terminal_before(const std::vector<Token>& tokens,
                                          std::size_t at);

}  // namespace hetsim::analyze
