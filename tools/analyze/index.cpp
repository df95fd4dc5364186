#include <algorithm>
#include <set>

#include "analyze/index.h"

namespace hetsim::analyze {

namespace {

bool is_punct(const Token& t, const char* s) {
  return t.kind == Tk::kPunct && t.text == s;
}

bool is_ident(const Token& t, const char* s) {
  return t.kind == Tk::kIdent && t.text == s;
}

const std::set<std::string> kNotFunctionNames = {
    "if",       "for",     "while",  "switch",   "catch",  "return",
    "sizeof",   "new",     "delete", "alignof",  "decltype",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "noexcept", "requires", "operator", "alignas", "throw", "assert",
    "defined"};

struct Scope {
  enum class Kind { kNamespace, kClass } kind;
  std::string name;
  std::size_t close;  // token index of the matching '}'
};

/// Walk back from `at` (exclusive) collecting a qualified-ident chain
/// `A::B::name`; returns the first token index of the chain.
std::size_t chain_begin(const std::vector<Token>& toks, std::size_t at) {
  std::size_t i = at;  // toks[at] is the terminal ident
  while (i >= 2 && is_punct(toks[i - 1], "::") &&
         toks[i - 2].kind == Tk::kIdent) {
    i -= 2;
  }
  return i;
}

std::string join(const std::vector<Token>& toks, std::size_t b,
                 std::size_t e) {
  std::string out;
  for (std::size_t i = b; i < e; ++i) {
    if (!out.empty()) out.push_back(' ');
    out += toks[i].text;
  }
  return out;
}

class Builder {
 public:
  explicit Builder(Index& index) : index_(index) {}

  void scan_file(int file_id) {
    const SourceFile& f = index_.files[file_id];
    const std::vector<Token>& t = f.tokens;
    scopes_.clear();
    std::size_t i = 0;
    while (i < t.size()) {
      while (!scopes_.empty() && i >= scopes_.back().close) {
        scopes_.pop_back();
      }
      if (is_ident(t[i], "namespace")) {
        i = enter_namespace(t, i);
        continue;
      }
      if (is_ident(t[i], "enum")) {
        i = skip_enum(t, i);
        continue;
      }
      if (is_ident(t[i], "using")) {
        i = skip_using(t, i);
        continue;
      }
      if ((is_ident(t[i], "class") || is_ident(t[i], "struct")) &&
          !(i > 0 && is_ident(t[i - 1], "enum"))) {
        i = enter_class(t, i);
        continue;
      }
      if (is_punct(t[i], "(") && i > 0 && t[i - 1].kind == Tk::kIdent &&
          kNotFunctionNames.count(t[i - 1].text) == 0) {
        const std::size_t next = try_function(file_id, t, i);
        if (next != 0) {
          i = next;
          continue;
        }
      }
      if (is_punct(t[i], "{") && i > 0 &&
          (t[i - 1].kind == Tk::kIdent || is_punct(t[i - 1], "=") ||
           is_punct(t[i - 1], ">") || is_punct(t[i - 1], "]") ||
           is_punct(t[i - 1], ")"))) {
        // Brace initializer (member/global `x{...}`, `= {...}`, lambda
        // body in an initializer): part of the statement, not a scope.
        // Skip it whole so the ';' handler sees the full declaration —
        // resetting here would drop `Type x_{...};` from the member
        // registry.
        i = match_brace(t, i) + 1;
        continue;
      }
      if (is_punct(t[i], ";")) {
        scan_declaration(t, stmt_begin_, i);
        stmt_begin_ = i + 1;
      }
      if (is_punct(t[i], "{") || is_punct(t[i], "}")) stmt_begin_ = i + 1;
      ++i;
    }
  }

 private:
  std::string current_class() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kClass) return it->name;
    }
    return "";
  }

  std::string qualify(const std::string& name) const {
    std::string out;
    for (const Scope& s : scopes_) {
      if (s.name.empty()) continue;
      out += s.name + "::";
    }
    return out + name;
  }

  std::size_t enter_namespace(const std::vector<Token>& t, std::size_t i) {
    std::size_t j = i + 1;
    std::string name;
    while (j < t.size() &&
           (t[j].kind == Tk::kIdent || is_punct(t[j], "::"))) {
      name += t[j].text;
      ++j;
    }
    if (j < t.size() && is_punct(t[j], "{")) {
      scopes_.push_back(
          {Scope::Kind::kNamespace, name, match_brace(t, j)});
      stmt_begin_ = j + 1;
      return j + 1;
    }
    return j;  // `using namespace`, alias, or malformed — skip keyword
  }

  std::size_t skip_enum(const std::vector<Token>& t, std::size_t i) {
    // enum [class] NAME [: base] { ... };  — enumerators are not indexed.
    std::size_t j = i + 1;
    while (j < t.size() && !is_punct(t[j], "{") && !is_punct(t[j], ";")) ++j;
    if (j >= t.size() || is_punct(t[j], ";")) return j + 1;
    return match_brace(t, j) + 1;
  }

  std::size_t skip_using(const std::vector<Token>& t, std::size_t i) {
    // using-declarations and aliases: nothing the checkers need.
    std::size_t j = i + 1;
    while (j < t.size() && !is_punct(t[j], ";")) ++j;
    return j + 1;
  }

  std::size_t enter_class(const std::vector<Token>& t, std::size_t i) {
    // class [macro(...)] NAME [final] [: bases] { ... }  |  class NAME ;
    std::size_t j = i + 1;
    std::string name;
    while (j < t.size() && !is_punct(t[j], "{") && !is_punct(t[j], ";") &&
           !(is_punct(t[j], ":"))) {
      if (t[j].kind == Tk::kIdent) {
        if (is_punct(t[j - 1], "::") && !name.empty()) {
          name += "::" + t[j].text;
        } else if (t[j].text != "final" &&
                   !(j + 1 < t.size() && is_punct(t[j + 1], "("))) {
          name = t[j].text;  // last plain ident wins (skips attr macros)
        }
      }
      if (is_punct(t[j], "(")) j = match_paren(t, j);  // attr macro args
      ++j;
    }
    // skip base clause
    while (j < t.size() && !is_punct(t[j], "{") && !is_punct(t[j], ";")) ++j;
    if (j >= t.size() || is_punct(t[j], ";")) return j + 1;  // fwd decl
    scopes_.push_back({Scope::Kind::kClass, name, match_brace(t, j)});
    stmt_begin_ = j + 1;
    return j + 1;
  }

  /// Token at `open` is '(' preceded by an ident. Returns the index to
  /// resume from (past the body) when this is a function definition,
  /// 0 otherwise.
  std::size_t try_function(int file_id, const std::vector<Token>& t,
                           std::size_t open) {
    const std::size_t name_at = open - 1;
    const std::size_t chain = chain_begin(t, name_at);
    const std::size_t close = match_paren(t, open);
    if (close >= t.size()) return 0;
    // Scan past qualifiers / ctor-init list to find the body '{'.
    std::size_t j = close + 1;
    bool in_init = false;
    std::size_t body = 0;
    while (j < t.size()) {
      const Token& tok = t[j];
      if (tok.kind == Tk::kPunct) {
        if (tok.text == ";" || tok.text == "=" || tok.text == "," ||
            tok.text == ")" || tok.text == "}") {
          return 0;  // declaration, default/delete, or expression
        }
        if (tok.text == ":") {
          in_init = true;
          ++j;
          continue;
        }
        if (tok.text == "(") {
          j = match_paren(t, j) + 1;
          continue;
        }
        if (tok.text == "{") {
          if (in_init && j > 0 &&
              (t[j - 1].kind == Tk::kIdent || is_punct(t[j - 1], ">"))) {
            j = match_brace(t, j) + 1;  // member-init braces
            continue;
          }
          body = j;
          break;
        }
      }
      ++j;
    }
    if (body == 0) return 0;

    FunctionDef fn;
    fn.file = file_id;
    fn.name = t[name_at].text;
    fn.line = t[name_at].line;
    fn.params_begin = open;
    fn.params_end = close;
    fn.body_begin = body;
    fn.body_end = match_brace(t, body);
    // Explicit qualification (out-of-class definition) overrides scope.
    if (chain < name_at) {
      std::string k;
      for (std::size_t q = chain; q < name_at - 1; ++q) {
        if (t[q].kind == Tk::kIdent) {
          if (!k.empty()) k += "::";
          k += t[q].text;
        }
      }
      fn.klass = k;
    } else {
      fn.klass = current_class();
    }
    fn.qual = qualify(fn.klass.empty() ? fn.name : fn.klass + "::" + fn.name);
    // Return type: the statement tokens before the name chain.
    std::size_t ret_begin = stmt_begin_;
    if (ret_begin < chain) fn.ret = join(t, ret_begin, chain);
    index_.by_name.emplace(fn.name, index_.funcs.size());
    index_.funcs.push_back(fn);
    stmt_begin_ = fn.body_end + 1;
    return fn.body_end + 1;
  }

  /// Statement [begin, semi) at class/namespace scope that is not a
  /// function definition: record data members.
  void scan_declaration(const std::vector<Token>& t, std::size_t begin,
                        std::size_t semi) {
    if (begin >= semi) return;
    const std::string klass = current_class();
    // Find the declared name: last ident before ';', '=', '{' or '('
    // at template-argument depth zero ('(' inside `std::function<void()>`
    // is part of the type, not a declarator).
    std::size_t name_at = semi;
    std::size_t paren_at = semi;
    int angle = 0;
    for (std::size_t i = begin; i < semi; ++i) {
      if (is_punct(t[i], "<") && i > begin && t[i - 1].kind == Tk::kIdent) {
        ++angle;
      } else if (is_punct(t[i], ">") && angle > 0) {
        --angle;
        continue;
      }
      if (angle > 0) continue;
      if (is_punct(t[i], "{") || is_punct(t[i], "=")) {
        name_at = i;
        break;
      }
      if (is_punct(t[i], "(")) {
        paren_at = i;
        break;
      }
    }
    std::size_t end = std::min(name_at, paren_at);
    // Walk back from `end` to the declared ident.
    std::size_t di = end;
    while (di > begin && t[di - 1].kind != Tk::kIdent) --di;
    if (di == begin) return;
    const std::size_t name_idx = di - 1;
    const std::string name = t[name_idx].text;
    if (paren_at != semi && name_idx + 1 == paren_at &&
        kNotFunctionNames.count(name) == 0) {
      return;  // method declaration — no body, nothing to record
    }
    // Type = tokens before the name; terminal = last type ident at
    // template depth zero (`std::function<void()> f_` -> "function",
    // not "void").
    std::string terminal;
    int tangle = 0;
    for (std::size_t i = begin; i < name_idx; ++i) {
      if (is_punct(t[i], "<") && i > begin && t[i - 1].kind == Tk::kIdent) {
        ++tangle;
        continue;
      }
      if (is_punct(t[i], ">") && tangle > 0) {
        --tangle;
        continue;
      }
      if (tangle > 0) continue;
      if (t[i].kind == Tk::kIdent && t[i].text != "mutable" &&
          t[i].text != "static" && t[i].text != "const" &&
          t[i].text != "constexpr" && t[i].text != "inline") {
        terminal = t[i].text;
      }
    }
    if (terminal.empty()) return;
    MemberDecl decl;
    decl.type_terminal = terminal;
    decl.type_full = join(t, begin, name_idx);
    index_.members[klass][name] = decl;
  }

  Index& index_;
  std::vector<Scope> scopes_;
  std::size_t stmt_begin_ = 0;
};

}  // namespace

const MemberDecl* Index::member(const std::string& klass,
                                const std::string& name) const {
  const auto kit = members.find(klass);
  if (kit == members.end()) return nullptr;
  const auto mit = kit->second.find(name);
  return mit == kit->second.end() ? nullptr : &mit->second;
}

Index build_index(std::vector<SourceFile> files) {
  Index index;
  index.files = std::move(files);
  Builder builder(index);
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    builder.scan_file(static_cast<int>(i));
  }
  return index;
}

}  // namespace hetsim::analyze
