// hetsim_analyze — compile-commands-driven static analysis for the
// hetsim codebase: Status/Reply consumption (status-flow), determinism
// taint (determinism-taint), plus the token-level repo rules. See
// DESIGN.md §11.
//
// Usage:
//   hetsim_analyze [--root <dir>] [--compile-commands <json>]
//                  [--baseline <file>] [--write-baseline <file>]
//                  [--sarif <file>] [--list-rules] [dirs...]
//   hetsim_analyze --self-test <fixture-dir> [--golden-sarif <file>]
//
// Exit codes: 0 clean, 1 findings / self-test failure, 2 usage error.
#include <iostream>
#include <string>
#include <vector>

#include "analyze/driver.h"

namespace {

int usage() {
  std::cerr
      << "usage: hetsim_analyze [--root <dir>] [--compile-commands <json>]\n"
         "                      [--baseline <file>] [--write-baseline "
         "<file>]\n"
         "                      [--sarif <file>] [--list-rules] [dirs...]\n"
         "       hetsim_analyze --self-test <fixture-dir> [--golden-sarif "
         "<file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hetsim::analyze::Options opts;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto next = [&]() -> const std::string* {
      return i + 1 < args.size() ? &args[++i] : nullptr;
    };
    if (arg == "--root") {
      const std::string* v = next();
      if (v == nullptr) return usage();
      opts.root = *v;
    } else if (arg == "--compile-commands") {
      const std::string* v = next();
      if (v == nullptr) return usage();
      opts.compile_commands = *v;
    } else if (arg == "--baseline") {
      const std::string* v = next();
      if (v == nullptr) return usage();
      opts.baseline = *v;
    } else if (arg == "--write-baseline") {
      const std::string* v = next();
      if (v == nullptr) return usage();
      opts.write_baseline = *v;
    } else if (arg == "--sarif") {
      const std::string* v = next();
      if (v == nullptr) return usage();
      opts.sarif = *v;
    } else if (arg == "--self-test") {
      const std::string* v = next();
      if (v == nullptr) return usage();
      opts.self_test_dir = *v;
    } else if (arg == "--golden-sarif") {
      const std::string* v = next();
      if (v == nullptr) return usage();
      opts.golden_sarif = *v;
    } else if (arg == "--list-rules") {
      opts.list_rules = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "hetsim_analyze: unknown option " << arg << "\n";
      return usage();
    } else {
      opts.dirs.push_back(arg);
    }
  }
  return hetsim::analyze::run(opts);
}
