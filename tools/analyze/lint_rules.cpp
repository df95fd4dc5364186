// Token-level rules (rationale in DESIGN.md §7): naked-mutex,
// raw-thread, nondeterminism, float-accounting, direct-store,
// phase-throw, pragma-once. Reply consumption is the flow-sensitive
// status-flow checker's job, not a token rule. Suppression filtering
// happens centrally in the driver (the lexer harvests
// `hetsim-analyze: allow(...)` directives).
//
// Rules apply to files under src/; pragma-once also covers tools/
// headers.
#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/checkers.h"

namespace hetsim::analyze {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// `needle` in `line` delimited by non-identifier characters (':' also
/// rejected on the left so qualified names don't match their tails).
bool has_token(const std::string& line, std::string_view needle) {
  std::size_t at = 0;
  while ((at = line.find(needle, at)) != std::string::npos) {
    const bool left_ok =
        at == 0 || (!ident_char(line[at - 1]) && line[at - 1] != ':');
    const std::size_t end = at + needle.size();
    const bool right_ok = end >= line.size() || !ident_char(line[end]);
    if (left_ok && right_ok) return true;
    at += 1;
  }
  return false;
}

/// Blank string/char literals and comments, tracking /* */ across lines.
std::string strip_noise(const std::string& line, bool& in_block_comment) {
  std::string out;
  out.reserve(line.size());
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (in_block_comment) {
      if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
        in_block_comment = false;
        ++i;
      }
      out.push_back(' ');
      continue;
    }
    const char c = line[i];
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
      in_block_comment = true;
      out.push_back(' ');
      ++i;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      out.push_back(' ');
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\') {
          ++i;
        } else if (line[i] == quote) {
          break;
        }
        out.push_back(' ');
        ++i;
      }
      continue;
    }
    out.push_back(c);
  }
  return out;
}

constexpr std::string_view kMutexTokens[] = {
    "std::mutex", "std::recursive_mutex", "std::timed_mutex",
    "std::recursive_timed_mutex", "std::shared_mutex",
    "std::shared_timed_mutex", "std::condition_variable"};

constexpr std::string_view kThreadTokens[] = {"std::thread", "std::jthread"};

constexpr std::string_view kNondetTokens[] = {
    "std::random_device", "rand", "srand", "drand48",
    "std::chrono::system_clock", "std::chrono::steady_clock",
    "std::chrono::high_resolution_clock", "gettimeofday", "clock_gettime",
    "timespec_get"};

/// Throwing kvstore accessors banned inside the phase-DAG runtime: a
/// store fault must surface as a typed PhaseResult the dag can retry or
/// degrade on, never as an exception unwinding through PhaseDag::run.
// Qualified spellings listed separately: has_token rejects ':' on the
// left, so "expect_ok" alone would let "kvstore::expect_ok" through.
constexpr std::string_view kPhaseThrowTokens[] = {
    "expect_ok", "kvstore::expect_ok", "UnavailableError",
    "kvstore::UnavailableError"};

constexpr std::string_view kAccountingDirs[] = {
    "src/common", "src/cluster", "src/core",     "src/energy",
    "src/estimator", "src/optimize", "src/runtime"};

bool is_header(const std::string& rel) {
  return rel.size() > 2 && rel.compare(rel.size() - 2, 2, ".h") == 0;
}

}  // namespace

void check_lint_rules(const Index& index, std::vector<Finding>& out) {
  for (const SourceFile& file : index.files) {
    const bool in_src = in_dir(file.rel, "src");
    const bool in_tools = in_dir(file.rel, "tools");
    if (!in_src && !in_tools) continue;
    if (is_header(file.rel)) {
      const bool pragma_once = std::any_of(
          file.lines.begin(), file.lines.end(), [](const std::string& l) {
            return l.find("#pragma once") != std::string::npos;
          });
      if (!pragma_once) {
        out.push_back({"pragma-once", file.rel, 1,
                       "header must carry #pragma once"});
      }
    }
    if (!in_src) continue;

    const bool mutex_rule = !in_dir(file.rel, "src/check");
    const bool thread_rule = !in_dir(file.rel, "src/par");
    const bool float_rule =
        std::any_of(std::begin(kAccountingDirs), std::end(kAccountingDirs),
                    [&](std::string_view d) { return in_dir(file.rel, d); });
    const bool store_rule = !in_dir(file.rel, "src/kvstore") &&
                            !in_dir(file.rel, "src/ha") &&
                            !in_dir(file.rel, "src/cluster");
    const bool phase_rule = in_dir(file.rel, "src/runtime");

    bool in_block_comment = false;
    for (std::size_t n = 0; n < file.lines.size(); ++n) {
      const int line = static_cast<int>(n) + 1;
      const std::string code = strip_noise(file.lines[n], in_block_comment);
      if (mutex_rule) {
        for (const std::string_view tok : kMutexTokens) {
          if (has_token(code, tok)) {
            out.push_back(
                {"naked-mutex", file.rel, line,
                 std::string(tok) +
                     " outside src/check/ — use check::Mutex (+ "
                     "std::condition_variable_any) so -Wthread-safety "
                     "checks the guarded fields; par::ThreadPool shows the "
                     "pattern"});
          }
        }
      }
      if (thread_rule) {
        for (const std::string_view tok : kThreadTokens) {
          if (has_token(code, tok)) {
            out.push_back(
                {"raw-thread", file.rel, line,
                 std::string(tok) +
                     " outside src/par/ — fan work out through "
                     "par::ThreadPool (deterministic chunking) instead of "
                     "spawning raw threads"});
          }
        }
      }
      for (const std::string_view tok : kNondetTokens) {
        if (has_token(code, tok)) {
          out.push_back(
              {"nondeterminism", file.rel, line,
               std::string(tok) +
                   " breaks the byte-identical-trace guarantee — take "
                   "seeds from common::Rng and time from the virtual "
                   "clock"});
        }
      }
      if (float_rule && has_token(code, "float")) {
        out.push_back(
            {"float-accounting", file.rel, line,
             "float in energy/time accounting — use double end to end"});
      }
      if (phase_rule) {
        for (const std::string_view tok : kPhaseThrowTokens) {
          if (has_token(code, tok)) {
            out.push_back(
                {"phase-throw", file.rel, line,
                 std::string(tok) +
                     " inside src/runtime/ — phase bodies run under the "
                     "PhaseDag fault domain; propagate store faults into "
                     "a typed PhaseResult (transient/degraded/"
                     "data_unavailable) instead of throwing"});
          }
        }
      }
      if (store_rule && (has_token(code, "kvstore::Store") ||
                         code.find(".store(") != std::string::npos ||
                         code.find("->store(") != std::string::npos)) {
        out.push_back(
            {"direct-store", file.rel, line,
             "direct kvstore::Store access outside src/kvstore/, src/ha/ "
             "and src/cluster/ — route data-plane traffic through "
             "ha::Client / ha::ShardRouter (or kvstore::Client for "
             "unreplicated paths) so replication and failover rescue "
             "see the operation"});
      }
    }
  }
}

}  // namespace hetsim::analyze
