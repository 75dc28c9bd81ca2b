#include "simlint/driver.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "simlint/effects.hpp"
#include "simlint/passes.hpp"
#include "simlint/tokwalk.hpp"

namespace columbia::simlint {

namespace fs = std::filesystem;

namespace {

bool lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc" ||
         ext == ".hxx" || ext == ".cxx";
}

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// Per-file suppression table from `// simlint:allow(rule, …)` comments.
/// A comment on a code line covers that line; a comment alone on its line
/// covers the next line that has code. The rule list may name "all".
class Suppressions {
 public:
  Suppressions(const LexedFile& file) {
    std::set<int> code_lines;
    for (const Token& t : file.tokens) code_lines.insert(t.line);
    for (const Comment& c : file.comments) {
      const std::size_t at = c.text.find("simlint:allow(");
      if (at == std::string::npos) continue;
      const std::size_t open = at + std::string("simlint:allow").size();
      const std::size_t close = c.text.find(')', open);
      if (close == std::string::npos) continue;
      std::set<std::string> rules;
      std::string cur;
      for (std::size_t i = open + 1; i <= close; ++i) {
        const char ch = c.text[i];
        if (ch == ',' || ch == ')') {
          if (!cur.empty()) rules.insert(cur);
          cur.clear();
        } else if (ch != ' ' && ch != '\t') {
          cur += ch;
        }
      }
      int target = c.line;
      if (code_lines.count(target) == 0) {
        const auto next = code_lines.upper_bound(target);
        if (next == code_lines.end()) continue;
        target = *next;
      }
      by_line_[target].insert(rules.begin(), rules.end());
    }
  }

  bool covers(int line, const std::string& rule) const {
    const auto it = by_line_.find(line);
    if (it == by_line_.end()) return false;
    return it->second.count(rule) != 0 || it->second.count("all") != 0;
  }

 private:
  std::map<int, std::set<std::string>> by_line_;
};

/// Every `simlint:allow(...)` must justify itself: the comment text after
/// the rule list is the rationale, and an empty one is a run error. (Doc
/// prose that merely mentions the marker carries trailing words and
/// passes; a real mute-button comment does not.)
void check_allow_rationales(const std::string& label, const LexedFile& file,
                            std::vector<std::string>& errors) {
  for (const Comment& c : file.comments) {
    const std::size_t at = c.text.find("simlint:allow(");
    if (at == std::string::npos) continue;
    const std::size_t close =
        c.text.find(')', at + std::string("simlint:allow").size());
    if (close == std::string::npos) continue;
    if (trim_rationale(c.text.substr(close + 1)).empty()) {
      errors.push_back(label + ":" + std::to_string(c.line) +
                       ": simlint:allow needs a rationale after the rule "
                       "list — say why the finding does not apply");
    }
  }
}

}  // namespace

RunResult run(const DriverOptions& opts) {
  RunResult result;
  const fs::path root(opts.root);

  // Discover, normalize to root-relative labels, sort: the scan order (and
  // therefore all output) is independent of directory-entry order.
  std::vector<std::pair<std::string, fs::path>> files;  // label -> path
  auto add_file = [&](const fs::path& p) {
    std::error_code ec;
    const fs::path rel = fs::relative(p, root, ec);
    const std::string label =
        (ec || rel.empty() || *rel.begin() == "..") ? p.generic_string()
                                                    : rel.generic_string();
    files.emplace_back(label, p);
  };
  for (const std::string& entry : opts.paths) {
    fs::path p(entry);
    if (p.is_relative()) p = root / p;
    std::error_code ec;
    if (fs::is_regular_file(p, ec)) {
      add_file(p);
      continue;
    }
    if (!fs::is_directory(p, ec)) {
      result.errors.push_back("cannot open " + p.generic_string());
      continue;
    }
    for (fs::recursive_directory_iterator it(p, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_directory() &&
          it->path().filename() == "simlint_fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && lintable_extension(it->path())) {
        add_file(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Pass 1: lex everything and build both project indices — the token-rule
  // facts (ProjectIndex) and the effect summaries (EffectIndex).
  std::vector<LexedFile> lexed(files.size());
  ProjectIndex index;
  EffectIndex effects;
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::string source;
    if (!read_file(files[i].second, source)) {
      result.errors.push_back("cannot read " + files[i].first);
      continue;
    }
    lexed[i] = lex(source);
    index_file(lexed[i], index);
    collect_effects(files[i].first, lexed[i], effects);
    check_allow_rationales(files[i].first, lexed[i], result.errors);
  }
  // Close the effect summaries caller-ward over the resolved call graph
  // (co_await edges included) and surface malformed-seam errors.
  finalize_effects(effects);
  result.errors.insert(result.errors.end(), effects.errors.begin(),
                       effects.errors.end());

  // Pass 2: token rules per file, effect passes over the closed index,
  // then one uniform filter: inline suppressions first, baseline second.
  std::set<std::string> baseline;
  if (!opts.baseline.empty()) {
    std::string text;
    if (read_file(opts.baseline, text)) {
      const auto entries = parse_baseline(text);
      baseline.insert(entries.begin(), entries.end());
    } else {
      result.errors.push_back("cannot read baseline " + opts.baseline);
    }
  }
  std::map<std::string, std::size_t> label_index;
  std::vector<Suppressions> allows;
  allows.reserve(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    label_index[files[i].first] = i;
    allows.emplace_back(lexed[i]);
  }
  std::vector<Finding> raw;
  for (std::size_t i = 0; i < files.size(); ++i) {
    ++result.files_scanned;
    for (Finding& f : analyze_file(files[i].first, lexed[i], index)) {
      raw.push_back(std::move(f));
    }
  }
  for (Finding& f : run_effect_passes(effects)) raw.push_back(std::move(f));

  std::set<std::string> baseline_hit;
  for (Finding& f : raw) {
    const auto li = label_index.find(f.file);
    if (li != label_index.end() && allows[li->second].covers(f.line, f.rule)) {
      ++result.suppressed;
      continue;
    }
    const std::string key =
        f.file + ":" + std::to_string(f.line) + ":" + f.rule;
    if (baseline.count(key) != 0) {
      ++result.baselined;
      baseline_hit.insert(key);
      continue;
    }
    result.findings.push_back(std::move(f));
  }
  std::sort(result.findings.begin(), result.findings.end());
  for (const std::string& entry : baseline) {
    if (baseline_hit.count(entry) == 0) result.stale_baseline.push_back(entry);
  }
  if (opts.strict_baseline) {
    // Stale entries rot silently otherwise: the finding they excused is
    // gone, and the entry would excuse a *new* finding landing on the
    // same line. Strict mode turns them into errors so clean() fails.
    for (const std::string& entry : result.stale_baseline) {
      result.errors.push_back("stale baseline entry (fix the baseline): " +
                              entry);
    }
  }
  return result;
}

std::string render_human(const RunResult& result) {
  std::ostringstream os;
  for (const Finding& f : result.findings) {
    os << f.file << ":" << f.line << ": " << f.rule << ": " << f.message
       << "\n";
  }
  for (const std::string& e : result.errors) os << "error: " << e << "\n";
  for (const std::string& s : result.stale_baseline) {
    os << "note: stale baseline entry (no longer matches): " << s << "\n";
  }
  os << "simlint: " << result.files_scanned << " files, "
     << result.findings.size() << " finding"
     << (result.findings.size() == 1 ? "" : "s") << " (" << result.suppressed
     << " suppressed, " << result.baselined << " baselined)\n";
  return os.str();
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}
}  // namespace

std::string render_json(const RunResult& result) {
  std::ostringstream os;
  os << "{\n  \"findings\": [";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& f = result.findings[i];
    os << (i ? "," : "") << "\n    {\"file\": \"" << json_escape(f.file)
       << "\", \"line\": " << f.line << ", \"rule\": \"" << f.rule
       << "\", \"message\": \"" << json_escape(f.message) << "\"}";
  }
  os << (result.findings.empty() ? "" : "\n  ") << "],\n";
  os << "  \"files_scanned\": " << result.files_scanned << ",\n";
  os << "  \"suppressed\": " << result.suppressed << ",\n";
  os << "  \"baselined\": " << result.baselined << ",\n";
  os << "  \"errors\": [";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(result.errors[i]) << "\"";
  }
  os << "]\n}\n";
  return os.str();
}

std::string render_baseline(const std::vector<Finding>& findings) {
  std::ostringstream os;
  os << "# simlint baseline — one `file:line:rule` per line. Entries here\n"
     << "# are known findings tolerated until fixed; prefer fixing (or an\n"
     << "# inline `// simlint:allow(rule)` with a rationale) over growing\n"
     << "# this file.\n";
  for (const Finding& f : findings) {
    os << f.file << ":" << f.line << ":" << f.rule << "\n";
  }
  return os.str();
}

std::vector<std::string> parse_baseline(const std::string& text) {
  std::vector<std::string> entries;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    entries.push_back(line.substr(start));
  }
  return entries;
}

}  // namespace columbia::simlint
