#include <algorithm>

#include "analyze/walk.h"

namespace hetsim::analyze {

namespace {

const std::set<std::string> kCallKeywords = {
    "if",          "for",          "while",   "switch",
    "catch",       "return",       "sizeof",  "new",
    "delete",      "alignof",      "decltype", "static_cast",
    "dynamic_cast", "reinterpret_cast", "const_cast", "noexcept",
    "requires",    "operator",     "alignas", "throw",
    "assert",      "defined",      "static_assert"};

const std::set<std::string> kNotATypeName = {
    "return", "new",    "delete",   "throw",    "case",    "goto",
    "else",   "typedef", "using",   "namespace", "template", "typename",
    "public", "private", "protected", "break",   "continue", "do",
    "const",  "static",  "constexpr", "mutable", "inline",  "volatile",
    "struct", "class",   "enum",     "operator", "co_return", "co_yield",
    "sizeof", "explicit", "virtual", "friend",   "extern",   "register",
    "if",     "while",   "for",     "switch",   "catch"};

bool punct(const Token& t, const char* s) {
  return t.kind == Tk::kPunct && t.text == s;
}

/// Idents that look like calls but are control flow / casts.
bool is_call_keyword(const std::string& name) {
  return kCallKeywords.count(name) != 0;
}

}  // namespace

std::string terminal_before(const std::vector<Token>& t, std::size_t at) {
  std::size_t i = at;
  while (i > 0 && (punct(t[i - 1], "&") || punct(t[i - 1], "*"))) --i;
  if (i == 0) return "";
  if (t[i - 1].kind == Tk::kIdent) {
    return kNotATypeName.count(t[i - 1].text) != 0 ? "" : t[i - 1].text;
  }
  if (punct(t[i - 1], ">")) {
    int depth = 0;
    for (std::size_t j = i; j-- > 0;) {
      if (punct(t[j], ">")) ++depth;
      if (punct(t[j], "<") && --depth == 0) {
        if (j > 0 && t[j - 1].kind == Tk::kIdent) return t[j - 1].text;
        return "";
      }
    }
  }
  return "";
}

Resolver::Resolver(const Index& index) : index_(index) {
  for (const auto& [klass, _] : index_.members) class_keys_.insert(klass);
  for (const FunctionDef& fn : index_.funcs) {
    if (!fn.klass.empty()) class_keys_.insert(fn.klass);
  }
}

std::string Resolver::class_key(const std::string& terminal) const {
  if (terminal.empty() || class_keys_.count(terminal) != 0) return terminal;
  std::string found;
  int hits = 0;
  const std::string suffix = "::" + terminal;
  for (const std::string& k : class_keys_) {
    if (k.size() > suffix.size() &&
        k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0) {
      found = k;
      ++hits;
    }
  }
  return hits == 1 ? found : terminal;
}

LocalTypes Resolver::collect_locals(const FunctionDef& fn) const {
  const std::vector<Token>& t = index_.files[fn.file].tokens;
  LocalTypes locals;
  // Parameters: split [params_begin + 1, params_end) on top-level ','.
  std::size_t seg = fn.params_begin + 1;
  int paren = 0;
  int angle = 0;
  const auto take_param = [&](std::size_t b, std::size_t e) {
    // name = last ident of the segment; needs a type ident before it.
    std::size_t name_at = e;
    while (name_at > b && t[name_at - 1].kind != Tk::kIdent) --name_at;
    if (name_at == b) return;
    const std::string term = terminal_before(t, name_at - 1);
    if (term.empty()) return;  // unnamed or single-token param
    locals[t[name_at - 1].text] = term;
  };
  for (std::size_t i = fn.params_begin + 1; i < fn.params_end; ++i) {
    if (punct(t[i], "(")) ++paren;
    if (punct(t[i], ")")) --paren;
    if (punct(t[i], "<") && i > 0 && t[i - 1].kind == Tk::kIdent) ++angle;
    if (punct(t[i], ">") && angle > 0) --angle;
    if (punct(t[i], ",") && paren == 0 && angle == 0) {
      take_param(seg, i);
      seg = i + 1;
    }
  }
  if (seg < fn.params_end) take_param(seg, fn.params_end);

  // Body declarations: ident N followed by a declarator terminator,
  // with a type ident (or closed template) directly before.
  for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
    if (t[i].kind != Tk::kIdent || i + 1 >= t.size()) continue;
    const Token& nx = t[i + 1];
    const bool term_next =
        punct(nx, "=") || punct(nx, ";") || punct(nx, "{") ||
        punct(nx, "(") || punct(nx, ":") || punct(nx, ",");
    if (!term_next) continue;
    const std::string type = terminal_before(t, i);
    if (type.empty() || kNotATypeName.count(t[i].text) != 0) continue;
    // `x.y` / `x->y` / `a::b` are accesses, not declarations.
    std::size_t p = i;
    while (p > 0 && (punct(t[p - 1], "&") || punct(t[p - 1], "*"))) --p;
    if (p >= 2 && (punct(t[p - 2], ".") || punct(t[p - 2], "->") ||
                   punct(t[p - 2], "::"))) {
      continue;
    }
    if (locals.count(t[i].text) == 0) locals[t[i].text] = type;
  }
  return locals;
}

std::string Resolver::type_of(const FunctionDef& fn, const LocalTypes& locals,
                              const std::string& name) const {
  const auto it = locals.find(name);
  if (it != locals.end()) return it->second;
  if (const MemberDecl* m = index_.member(fn.klass, name)) {
    return m->type_terminal;
  }
  return "";
}

bool Resolver::parse_call(const FunctionDef& fn, const LocalTypes& locals,
                          std::size_t i, CallSite& out) const {
  const std::vector<Token>& t = index_.files[fn.file].tokens;
  if (t[i].kind != Tk::kIdent || i + 1 >= t.size() || !punct(t[i + 1], "(")) {
    return false;
  }
  if (is_call_keyword(t[i].text)) return false;
  // `Type name(...)` is a declaration, not a call.
  if (i > 0 && t[i - 1].kind == Tk::kIdent &&
      kNotATypeName.count(t[i - 1].text) == 0) {
    return false;
  }
  out = CallSite{};
  out.name = t[i].text;
  out.name_at = i;
  out.open = i + 1;
  out.close = match_paren(t, i + 1);
  if (i >= 2 && (punct(t[i - 1], ".") || punct(t[i - 1], "->"))) {
    out.has_receiver = true;
    if (t[i - 2].kind == Tk::kIdent) {
      out.receiver = t[i - 2].text;
      // Don't treat `x.y.name(...)` / `a->b->name(...)` chains as
      // resolved through the terminal ident alone.
      const bool chained =
          i >= 4 && (punct(t[i - 3], ".") || punct(t[i - 3], "->") ||
                     punct(t[i - 3], "::"));
      if (!chained) {
        if (out.receiver == "this") {
          out.receiver_type = fn.klass;
        } else {
          out.receiver_type = type_of(fn, locals, out.receiver);
        }
      }
    }
  } else if (i >= 2 && punct(t[i - 1], "::") && t[i - 2].kind == Tk::kIdent) {
    out.qualified = true;
    out.qualifier = t[i - 2].text;
  }
  return true;
}

std::vector<std::size_t> Resolver::callees(const FunctionDef& fn,
                                           const CallSite& call) const {
  std::vector<std::size_t> out;
  const auto range = index_.by_name.equal_range(call.name);
  const auto collect_for_class = [&](const std::string& key) {
    const std::string suffix = "::" + key;
    for (auto it = range.first; it != range.second; ++it) {
      const std::string& k = index_.funcs[it->second].klass;
      if (k == key ||
          (k.size() > suffix.size() &&
           k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0)) {
        out.push_back(it->second);
      }
    }
  };
  if (call.has_receiver) {
    if (call.receiver_type.empty() || call.receiver_type == "auto") {
      return out;  // unresolved receiver: no knowledge
    }
    collect_for_class(class_key(call.receiver_type));
    return out;
  }
  if (call.qualified) {
    const std::string key = class_key(call.qualifier);
    if (class_keys_.count(key) != 0) {
      collect_for_class(key);
      return out;
    }
    // Namespace qualification (`kvstore::expect_ok`): free functions.
    for (auto it = range.first; it != range.second; ++it) {
      if (index_.funcs[it->second].klass.empty()) out.push_back(it->second);
    }
    return out;
  }
  // Bare call: same-class method first, else free function.
  if (!fn.klass.empty()) {
    collect_for_class(fn.klass);
    if (!out.empty()) return out;
  }
  for (auto it = range.first; it != range.second; ++it) {
    if (index_.funcs[it->second].klass.empty()) out.push_back(it->second);
  }
  return out;
}

}  // namespace hetsim::analyze
