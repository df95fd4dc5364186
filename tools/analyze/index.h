// hetsim_analyze — lightweight program index: function definitions with
// body token ranges and class member declarations, extracted from the
// token streams.
//
// This is deliberately not a full C++ front end. The extraction is a
// scope-stack walk good enough for this codebase's idiom (and for the
// fixture corpus): namespaces, classes/structs (including out-of-class
// qualified method definitions) and data members. Anything it cannot
// resolve it leaves unresolved — the checkers treat unresolved as "no
// knowledge", trading recall for a near-zero false-positive rate, which
// is what lets the CTest gate run warnings-as-errors.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analyze/source.h"

namespace hetsim::analyze {

struct FunctionDef {
  int file = -1;       // index into Index::files
  std::string name;    // terminal name ("drain")
  std::string klass;   // enclosing class ("Client", "PhaseExecutor::State")
  std::string qual;    // scope-qualified ("hetsim::kvstore::Client::drain")
  std::string ret;     // return-type tokens joined by ' ' ("" for ctors)
  int line = 0;
  std::size_t params_begin = 0;  // '(' token index
  std::size_t params_end = 0;    // matching ')'
  std::size_t body_begin = 0;    // '{' token index
  std::size_t body_end = 0;      // matching '}'
};

struct MemberDecl {
  std::string type_terminal;  // last type ident ("Client", "function")
  std::string type_full;      // joined type tokens ("std :: function < ...")
};

struct Index {
  std::vector<SourceFile> files;
  std::vector<FunctionDef> funcs;
  /// terminal name -> func ids (overload sets + same-name methods).
  std::multimap<std::string, std::size_t> by_name;
  /// class -> data member name -> declared type.
  std::map<std::string, std::map<std::string, MemberDecl>> members;

  /// Member type lookup with "" fallback.
  [[nodiscard]] const MemberDecl* member(const std::string& klass,
                                         const std::string& name) const;
};

/// Build the index over already-lexed files.
[[nodiscard]] Index build_index(std::vector<SourceFile> files);

}  // namespace hetsim::analyze
