#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "analyze/checkers.h"
#include "analyze/driver.h"
#include "analyze/index.h"
#include "common/json.h"

namespace fs = std::filesystem;

namespace hetsim::analyze {

namespace {

struct RuleInfo {
  const char* id;
  const char* description;
};

constexpr RuleInfo kRules[] = {
    {"status-flow",
     "kvstore Status/Reply, ha WriteResult/ReadResult and runtime JobStatus "
     "values must be consumed, not discarded or left unread"},
    {"determinism-taint",
     "wall-clock, random, thread-id, pointer and unordered-iteration values "
     "must not reach trace events, bench JSON or common::hash inputs"},
    {"naked-mutex",
     "std::mutex family outside src/check/ — use check::Mutex"},
    {"raw-thread",
     "std::thread outside src/par/ — use par::ThreadPool"},
    {"nondeterminism",
     "random/wall-clock APIs in src/ break the byte-identical-trace "
     "guarantee"},
    {"float-accounting",
     "float in energy/time accounting directories — accounting is double "
     "end to end"},
    {"direct-store",
     "kvstore::Store access outside src/kvstore/, src/ha/, src/cluster/ — "
     "go through ha::Client / kvstore::Client"},
    {"phase-throw",
     "expect_ok / UnavailableError inside src/runtime/ — phase bodies must "
     "propagate store faults into a typed PhaseResult, never throw past "
     "the PhaseDag"},
    {"pragma-once", "every header carries #pragma once"},
};

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return out;
}

bool wanted_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cpp";
}

/// Root-relative, '/'-separated path (falls back to the path itself
/// when it does not live under root).
std::string rel_path(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(file, root, ec);
  if (ec || rel.empty() || *rel.begin() == "..") {
    return file.generic_string();
  }
  return rel.generic_string();
}

/// Translation units named by compile_commands.json, resolved against
/// each entry's "directory".
std::vector<fs::path> db_files(const std::string& db_path) {
  std::ifstream in(db_path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read compile database: " + db_path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const common::JsonValue doc = common::parse_json(buf.str());
  std::vector<fs::path> out;
  for (const common::JsonValue& entry : doc.as_array("compile_commands")) {
    const common::JsonValue* file = entry.find("file");
    if (file == nullptr || !file->is_string()) continue;
    fs::path p(file->string);
    if (p.is_relative()) {
      const common::JsonValue* dir = entry.find("directory");
      if (dir != nullptr && dir->is_string()) p = fs::path(dir->string) / p;
    }
    out.push_back(p.lexically_normal());
  }
  return out;
}

struct Corpus {
  std::vector<SourceFile> files;
  int errors = 0;
};

Corpus load_corpus(const Options& opts) {
  const fs::path root = fs::path(opts.root).lexically_normal();
  std::vector<std::string> dirs = opts.dirs;
  if (dirs.empty()) dirs = {"src", "tools"};

  std::set<std::string> seen;
  std::vector<std::pair<std::string, fs::path>> picked;  // rel -> path
  const auto add = [&](const fs::path& p) {
    if (!wanted_source(p)) return;
    const std::string rel = rel_path(p, root);
    // Fixture corpora are analyzed via --self-test only, never as part
    // of the gate scan (root-relative check, so self-test roots that
    // themselves live under a */fixtures/ directory still scan).
    if (rel.find("fixtures") != std::string::npos) return;
    bool in_scope = false;
    for (const std::string& d : dirs) {
      if (d == "." || rel.rfind(d + "/", 0) == 0) in_scope = true;
    }
    if (!in_scope || !seen.insert(rel).second) return;
    picked.emplace_back(rel, p);
  };

  // Compile-database TUs first (ensures every built .cpp is covered),
  // then walk the scan roots for headers and any stray sources.
  if (!opts.compile_commands.empty()) {
    for (const fs::path& p : db_files(opts.compile_commands)) add(p);
  }
  for (const std::string& d : dirs) {
    const fs::path dir = d == "." ? root : root / d;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file()) add(entry.path());
    }
  }
  std::sort(picked.begin(), picked.end());

  Corpus corpus;
  for (const auto& [rel, path] : picked) {
    SourceFile file;
    if (!load_source(path.string(), rel, file)) {
      std::cerr << "hetsim_analyze: cannot read " << path.string() << "\n";
      ++corpus.errors;
      continue;
    }
    corpus.files.push_back(std::move(file));
  }
  return corpus;
}

std::vector<Finding> analyze(const Index& index) {
  std::vector<Finding> findings;
  check_status(index, findings);
  check_taint(index, findings);
  check_lint_rules(index, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.rel, a.line, a.rule, a.message) <
                     std::tie(b.rel, b.line, b.rule, b.message);
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.rel == b.rel && a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 findings.end());
  return findings;
}

/// Drop findings suppressed by an allow(...) directive on their line.
void apply_suppressions(const Index& index, std::vector<Finding>& findings) {
  std::map<std::string, const SourceFile*> by_rel;
  for (const SourceFile& f : index.files) by_rel[f.rel] = &f;
  std::erase_if(findings, [&](const Finding& f) {
    const auto it = by_rel.find(f.rel);
    return it != by_rel.end() && it->second->allowed(f.line, f.rule);
  });
}

std::string fingerprint(const Index& index, const Finding& f) {
  std::string line_text;
  for (const SourceFile& file : index.files) {
    if (file.rel != f.rel) continue;
    if (f.line >= 1 && static_cast<std::size_t>(f.line) <= file.lines.size()) {
      line_text = trim(file.lines[static_cast<std::size_t>(f.line) - 1]);
    }
    break;
  }
  return f.rule + "|" + f.rel + "|" + hex64(stable_hash(line_text));
}

std::set<std::string> read_baseline(const std::string& path) {
  std::set<std::string> out;
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read baseline: " + path);
  }
  std::string line;
  while (std::getline(in, line)) {
    line = trim(line);
    if (!line.empty() && line[0] != '#') out.insert(line);
  }
  return out;
}

std::string to_sarif(const std::vector<Finding>& findings) {
  common::JsonWriter w;
  w.begin_object();
  w.field("version", "2.1.0");
  w.field("$schema",
          "https://json.schemastore.org/sarif-2.1.0.json");
  w.key("runs").begin_array().begin_object();
  w.key("tool").begin_object().key("driver").begin_object();
  w.field("name", "hetsim_analyze");
  w.field("informationUri", "DESIGN.md");
  w.key("rules").begin_array();
  for (const RuleInfo& rule : kRules) {
    w.begin_object();
    w.field("id", rule.id);
    w.key("shortDescription").begin_object();
    w.field("text", rule.description);
    w.end_object();
    w.end_object();
  }
  w.end_array();          // rules
  w.end_object();         // driver
  w.end_object();         // tool
  w.key("results").begin_array();
  for (const Finding& f : findings) {
    w.begin_object();
    w.field("ruleId", f.rule);
    w.field("level", "error");
    w.key("message").begin_object().field("text", f.message).end_object();
    w.key("locations").begin_array().begin_object();
    w.key("physicalLocation").begin_object();
    w.key("artifactLocation").begin_object();
    w.field("uri", f.rel);
    w.end_object();  // artifactLocation
    w.key("region").begin_object().field("startLine", f.line).end_object();
    w.end_object();  // physicalLocation
    w.end_object();  // location
    w.end_array();   // locations
    w.end_object();  // result
  }
  w.end_array();   // results
  w.end_object();  // run
  w.end_array();   // runs
  w.end_object();
  return w.str() + "\n";
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "hetsim_analyze: cannot write " << path << "\n";
    return false;
  }
  out << content;
  return true;
}

int self_test(const Options& opts) {
  Options fixture_opts = opts;
  fixture_opts.root = opts.self_test_dir;
  fixture_opts.dirs = {"."};
  fixture_opts.compile_commands.clear();
  Corpus corpus = load_corpus(fixture_opts);
  if (corpus.errors != 0 || corpus.files.empty()) {
    std::cerr << "hetsim_analyze: self-test corpus unreadable or empty: "
              << opts.self_test_dir << "\n";
    return 2;
  }
  const Index index = build_index(std::move(corpus.files));
  std::vector<Finding> findings = analyze(index);
  apply_suppressions(index, findings);

  // Every expect must be hit by a finding, and every finding must be
  // expected — an unexpected finding means a false-positive trap fired.
  int failures = 0;
  std::set<std::size_t> matched;
  for (const SourceFile& file : index.files) {
    for (const auto& [line, rules] : file.expects) {
      for (const std::string& rule : rules) {
        bool hit = false;
        for (std::size_t i = 0; i < findings.size(); ++i) {
          const Finding& f = findings[i];
          if (f.rel == file.rel && f.line == line && f.rule == rule) {
            matched.insert(i);
            hit = true;
          }
        }
        if (!hit) {
          std::cerr << "self-test: MISSED expected finding " << file.rel
                    << ":" << line << " [" << rule << "]\n";
          ++failures;
        }
      }
    }
  }
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (matched.count(i) != 0) continue;
    const Finding& f = findings[i];
    std::cerr << "self-test: UNEXPECTED finding (false-positive trap "
                 "fired) "
              << f.rel << ":" << f.line << " [" << f.rule << "] "
              << f.message << "\n";
    ++failures;
  }

  if (!opts.golden_sarif.empty()) {
    const std::string sarif = to_sarif(findings);
    std::ifstream in(opts.golden_sarif, std::ios::binary);
    std::ostringstream buf;
    if (in) buf << in.rdbuf();
    if (!in) {
      std::cerr << "self-test: cannot read golden SARIF "
                << opts.golden_sarif << "\n";
      ++failures;
    } else if (buf.str() != sarif) {
      std::cerr << "self-test: SARIF output differs from golden "
                << opts.golden_sarif << " (regenerate with --sarif after "
                << "reviewing the diff)\n";
      ++failures;
    }
  }
  if (!opts.sarif.empty() && !write_file(opts.sarif, to_sarif(findings))) {
    return 2;
  }
  if (failures != 0) {
    std::cerr << "hetsim_analyze self-test: " << failures << " failure(s)\n";
    return 1;
  }
  std::cout << "hetsim_analyze self-test: OK (" << findings.size()
            << " expected findings across " << index.files.size()
            << " fixtures, no false positives)\n";
  return 0;
}

}  // namespace

int run(const Options& options) {
  if (options.list_rules) {
    for (const RuleInfo& rule : kRules) {
      std::cout << rule.id << "\n    " << rule.description << "\n";
    }
    return 0;
  }
  if (!options.self_test_dir.empty()) return self_test(options);

  Corpus corpus;
  try {
    corpus = load_corpus(options);
  } catch (const std::exception& e) {
    std::cerr << "hetsim_analyze: " << e.what() << "\n";
    return 2;
  }
  if (corpus.errors != 0) return 2;
  if (corpus.files.empty()) {
    std::cerr << "hetsim_analyze: no sources found under " << options.root
              << "\n";
    return 2;
  }
  const std::size_t file_count = corpus.files.size();
  const Index index = build_index(std::move(corpus.files));
  std::vector<Finding> findings = analyze(index);
  apply_suppressions(index, findings);

  if (!options.write_baseline.empty()) {
    std::string content =
        "# hetsim_analyze baseline — one fingerprint per accepted legacy\n"
        "# finding (rule|path|hash-of-line). Keep this file empty: fix\n"
        "# findings instead of baselining them whenever possible.\n";
    std::set<std::string> prints;
    for (const Finding& f : findings) prints.insert(fingerprint(index, f));
    for (const std::string& p : prints) content += p + "\n";
    if (!write_file(options.write_baseline, content)) return 2;
  }

  std::size_t baselined = 0;
  if (!options.baseline.empty()) {
    std::set<std::string> baseline;
    try {
      baseline = read_baseline(options.baseline);
    } catch (const std::exception& e) {
      std::cerr << "hetsim_analyze: " << e.what() << "\n";
      return 2;
    }
    const std::size_t before = findings.size();
    std::erase_if(findings, [&](const Finding& f) {
      return baseline.count(fingerprint(index, f)) != 0;
    });
    baselined = before - findings.size();
  }

  if (!options.sarif.empty() &&
      !write_file(options.sarif, to_sarif(findings))) {
    return 2;
  }

  for (const Finding& f : findings) {
    std::cerr << f.rel << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  if (!findings.empty()) {
    std::cerr << "hetsim_analyze: " << findings.size()
              << " finding(s) across " << file_count << " file(s)";
    if (baselined != 0) std::cerr << " (+" << baselined << " baselined)";
    std::cerr << "\n";
    return 1;
  }
  std::cout << "hetsim_analyze: OK (" << file_count << " files clean";
  if (baselined != 0) std::cout << ", " << baselined << " baselined";
  std::cout << ")\n";
  return 0;
}

}  // namespace hetsim::analyze
