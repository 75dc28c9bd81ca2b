#pragma once
/// \file driver.hpp
/// simlint's run orchestration: file discovery, the token-rule passes,
/// the interprocedural effect passes, inline `// simlint:allow(rule)`
/// suppressions (every one needs a rationale after the rule list), the
/// checked-in baseline, and human/JSON rendering.
///
/// Determinism of the linter itself is part of the contract: discovered
/// files are sorted, findings are sorted, and output is byte-stable for
/// a given tree.

#include <string>
#include <vector>

#include "simlint/rules.hpp"

namespace columbia::simlint {

struct DriverOptions {
  /// Project root; findings are reported relative to it.
  std::string root = ".";
  /// Files or directories (relative to root unless absolute). Directories
  /// are walked recursively for .hpp/.cpp/.h/.cc/.hxx/.cxx files;
  /// directories named `simlint_fixtures` are skipped (they hold
  /// deliberately-dirty rule fixtures) — name one explicitly to lint it.
  std::vector<std::string> paths = {"src", "tests", "bench", "examples"};
  /// Baseline file of `file:line:rule` entries to ignore ("" = none).
  std::string baseline;
  /// Treat stale baseline entries (ones matching no current finding) as
  /// hard errors instead of notes, so clean() fails until the baseline is
  /// pruned. The `lint` build target and test_simlint_clean set this.
  bool strict_baseline = false;
};

struct RunResult {
  /// Unsuppressed, non-baselined findings (token rules and effect passes
  /// through one filter), sorted.
  std::vector<Finding> findings;
  int files_scanned = 0;
  int suppressed = 0;       ///< dropped by inline simlint:allow comments
  int baselined = 0;        ///< dropped by the baseline file
  std::vector<std::string> stale_baseline;  ///< baseline entries that no
                                            ///< longer match anything
  std::vector<std::string> errors;  ///< unreadable paths, rationale-less
                                    ///< suppressions, malformed seams …
  bool clean() const { return findings.empty() && errors.empty(); }
};

/// Runs the analyzer over the configured paths.
RunResult run(const DriverOptions& opts);

/// One finding per line: `file:line: rule: message`, plus a summary line.
std::string render_human(const RunResult& result);

/// JSON document: {"findings": [{file, line, rule, message}...], stats}.
std::string render_json(const RunResult& result);

/// Baseline serialization of the current findings (`file:line:rule` lines,
/// sorted, with a header comment).
std::string render_baseline(const std::vector<Finding>& findings);

/// Parses a baseline document (one `file:line:rule` per line, `#` comments
/// and blank lines ignored).
std::vector<std::string> parse_baseline(const std::string& text);

}  // namespace columbia::simlint
