// hetsim_analyze — source model: raw lines, comment directives and the
// token stream every checker walks.
//
// The lexer is a real (if small) C++ tokenizer: it understands line and
// block comments, string/char literals (raw strings included),
// preprocessor lines (skipped wholesale so macro bodies cannot corrupt
// brace tracking) and multi-char operators the checkers care about
// ("::", "->"). Comments are not discarded blindly: suppression
// directives (`hetsim-analyze: allow(rule)`) and fixture expectations
// (`expect: rule`) are harvested per line before the text is dropped.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace hetsim::analyze {

enum class Tk : unsigned char {
  kIdent,   // identifiers and keywords
  kNumber,  // numeric literals (value unused)
  kString,  // string literal (content blanked)
  kChar,    // char literal
  kPunct,   // operators / punctuation; "::" and "->" are single tokens
};

struct Token {
  Tk kind = Tk::kPunct;
  std::string text;
  int line = 0;
};

struct SourceFile {
  std::string path;  // as opened (absolute or driver-relative)
  std::string rel;   // root-relative, '/'-separated — used in reports
  std::vector<std::string> lines;
  std::vector<Token> tokens;
  /// line -> rules suppressed on that line via allow(...) directives.
  std::map<int, std::set<std::string>> allows;
  /// line -> rules a fixture expects to fire there (`// expect: rule`).
  std::map<int, std::vector<std::string>> expects;

  [[nodiscard]] bool allowed(int line, std::string_view rule) const {
    const auto it = allows.find(line);
    return it != allows.end() &&
           it->second.count(std::string(rule)) != 0;
  }
};

/// Tokenize `text` into `file` (fills tokens/allows/expects; `lines`
/// must already be populated by the caller).
void lex(std::string_view text, SourceFile& file);

/// Load + lex one file. Returns false when unreadable.
[[nodiscard]] bool load_source(const std::string& path,
                               const std::string& rel, SourceFile& out);

/// True when `rel` lives under `dir` ("src/check" matches
/// "src/check/x.h" but not "src/checker/x.h").
[[nodiscard]] bool in_dir(std::string_view rel, std::string_view dir);

/// Index of the matching '}' for the '{' at `open` (or tokens.size()).
[[nodiscard]] std::size_t match_brace(const std::vector<Token>& tokens,
                                      std::size_t open);

/// Index of the matching ')' for the '(' at `open` (or tokens.size()).
[[nodiscard]] std::size_t match_paren(const std::vector<Token>& tokens,
                                      std::size_t open);

/// FNV-1a 64-bit over `s` — stable fingerprint for baseline entries.
[[nodiscard]] std::uint64_t stable_hash(std::string_view s);

}  // namespace hetsim::analyze
