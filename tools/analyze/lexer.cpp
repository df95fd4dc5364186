#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "analyze/source.h"

namespace hetsim::analyze {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Harvest `allow(...)` / `expect: ...` directives from one comment.
void scan_directives(std::string_view comment, int line, SourceFile& file) {
  constexpr std::string_view marker = "hetsim-analyze: allow(";
  std::size_t at = comment.find(marker);
  while (at != std::string_view::npos) {
    const std::size_t open = at + marker.size();
    const std::size_t close = comment.find(')', open);
    if (close == std::string_view::npos) break;
    std::string rules(comment.substr(open, close - open));
    std::stringstream ss(rules);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      const std::size_t b = rule.find_first_not_of(" \t");
      const std::size_t e = rule.find_last_not_of(" \t");
      if (b != std::string::npos) {
        file.allows[line].insert(rule.substr(b, e - b + 1));
      }
    }
    at = comment.find(marker, close);
  }
  const std::size_t ex = comment.find("expect:");
  if (ex != std::string_view::npos &&
      comment.find("hetsim") == std::string_view::npos) {
    std::stringstream ss(std::string(comment.substr(ex + 7)));
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      const std::size_t b = rule.find_first_not_of(" \t");
      const std::size_t e = rule.find_last_not_of(" \t");
      if (b != std::string::npos) {
        file.expects[line].push_back(rule.substr(b, e - b + 1));
      }
    }
  }
}

}  // namespace

void lex(std::string_view text, SourceFile& file) {
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // only whitespace seen since the newline
  const auto peek = [&](std::size_t off) -> char {
    return i + off < text.size() ? text[i + off] : '\0';
  };
  while (i < text.size()) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Preprocessor line: skip to end of line (honoring backslash
    // continuations) so #define bodies can't unbalance brace tracking.
    // Trailing // comments on the line still get directive-scanned.
    if (c == '#' && at_line_start) {
      while (i < text.size()) {
        if (text[i] == '\\' && peek(1) == '\n') {
          i += 2;
          ++line;
          continue;
        }
        if (text[i] == '/' && peek(1) == '/') {
          const std::size_t eol = text.find('\n', i);
          const std::size_t end =
              eol == std::string_view::npos ? text.size() : eol;
          scan_directives(text.substr(i + 2, end - i - 2), line, file);
          i = end;
          continue;
        }
        if (text[i] == '\n') break;
        ++i;
      }
      at_line_start = false;
      continue;
    }
    at_line_start = false;
    if (c == '/' && peek(1) == '/') {
      const std::size_t eol = text.find('\n', i);
      const std::size_t end = eol == std::string_view::npos ? text.size() : eol;
      scan_directives(text.substr(i + 2, end - i - 2), line, file);
      i = end;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      const int start_line = line;
      std::size_t j = i + 2;
      while (j + 1 < text.size() &&
             !(text[j] == '*' && text[j + 1] == '/')) {
        if (text[j] == '\n') ++line;
        ++j;
      }
      scan_directives(text.substr(i + 2, j - i - 2), start_line, file);
      i = j + 2 > text.size() ? text.size() : j + 2;
      continue;
    }
    if (c == '"' || (c == 'R' && peek(1) == '"')) {
      if (c == 'R') {
        // Raw string: R"delim( ... )delim"
        std::size_t d = i + 2;
        while (d < text.size() && text[d] != '(') ++d;
        const std::string close =
            ")" + std::string(text.substr(i + 2, d - i - 2)) + "\"";
        const std::size_t end = text.find(close, d);
        const int tok_line = line;
        for (std::size_t k = i; k < end && k < text.size(); ++k) {
          if (text[k] == '\n') ++line;
        }
        file.tokens.push_back({Tk::kString, "\"\"", tok_line});
        i = end == std::string_view::npos ? text.size() : end + close.size();
        continue;
      }
      std::size_t j = i + 1;
      while (j < text.size() && text[j] != '"') {
        if (text[j] == '\\') ++j;
        ++j;
      }
      file.tokens.push_back({Tk::kString, "\"\"", line});
      i = j + 1 > text.size() ? text.size() : j + 1;
      continue;
    }
    if (c == '\'') {
      std::size_t j = i + 1;
      while (j < text.size() && text[j] != '\'') {
        if (text[j] == '\\') ++j;
        ++j;
      }
      file.tokens.push_back({Tk::kChar, "''", line});
      i = j + 1 > text.size() ? text.size() : j + 1;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i;
      while (j < text.size() &&
             (ident_char(text[j]) || text[j] == '.' ||
              ((text[j] == '+' || text[j] == '-') && j > i &&
               (text[j - 1] == 'e' || text[j - 1] == 'E' ||
                text[j - 1] == 'p' || text[j - 1] == 'P')))) {
        ++j;
      }
      file.tokens.push_back(
          {Tk::kNumber, std::string(text.substr(i, j - i)), line});
      i = j;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < text.size() && ident_char(text[j])) ++j;
      file.tokens.push_back(
          {Tk::kIdent, std::string(text.substr(i, j - i)), line});
      i = j;
      continue;
    }
    // Multi-char operators the checkers match on.
    if (c == ':' && peek(1) == ':') {
      file.tokens.push_back({Tk::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && peek(1) == '>') {
      file.tokens.push_back({Tk::kPunct, "->", line});
      i += 2;
      continue;
    }
    file.tokens.push_back({Tk::kPunct, std::string(1, c), line});
    ++i;
  }
}

bool load_source(const std::string& path, const std::string& rel,
                 SourceFile& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  out.path = path;
  out.rel = rel;
  std::string cur;
  for (const char c : text) {
    if (c == '\n') {
      out.lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.lines.push_back(cur);
  lex(text, out);
  return true;
}

bool in_dir(std::string_view rel, std::string_view dir) {
  return rel.size() > dir.size() + 1 && rel.substr(0, dir.size()) == dir &&
         rel[dir.size()] == '/';
}

std::size_t match_brace(const std::vector<Token>& tokens, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].kind != Tk::kPunct) continue;
    if (tokens[i].text == "{") ++depth;
    if (tokens[i].text == "}" && --depth == 0) return i;
  }
  return tokens.size();
}

std::size_t match_paren(const std::vector<Token>& tokens, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].kind != Tk::kPunct) continue;
    if (tokens[i].text == "(") ++depth;
    if (tokens[i].text == ")" && --depth == 0) return i;
  }
  return tokens.size();
}

std::uint64_t stable_hash(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace hetsim::analyze
