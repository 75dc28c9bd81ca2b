// simlint: determinism & coroutine-safety static analyzer for the
// simulation stack.
//
//   $ ./simlint --root . src tests bench examples   # explicit paths
//   $ ./simlint --root .                            # same (the default set)
//   $ ./simlint --json                              # machine-readable
//   $ ./simlint --baseline simlint_baseline.txt     # ignore known findings
//   $ ./simlint --baseline simlint_baseline.txt --strict-baseline
//                                     # ...and fail on stale entries
//   $ ./simlint --write-baseline simlint_baseline.txt
//   $ ./simlint --list-rules                        # the rule catalogue
//
// Flags parse through core::RunOptionsParser (the table-driven parser
// behind every columbia binary, here naming none of the shared flags):
// unknown flags are hard errors and --help is generated.
//
// Exit status: 0 clean, 1 unsuppressed findings (or unreadable inputs),
// 2 usage error. Directories named tests/simlint_fixtures are skipped
// during discovery — they hold deliberately-dirty rule fixtures.

#include <cstdio>
#include <fstream>
#include <string>

#include "core/run_options.hpp"
#include "simlint/driver.hpp"

int main(int argc, char** argv) {
  using namespace columbia;

  simlint::DriverOptions driver;
  driver.paths.clear();
  bool json = false;
  bool list_rules = false;
  std::string write_baseline;

  core::RunOptionsParser parser("simlint", "[options] [path...]");
  parser.allow_positional();
  parser.add_flag("--root", "<dir>",
                  "project root: paths resolve and findings report "
                  "relative to it (default .)",
                  [&](const std::string& v, std::string&) {
                    driver.root = v;
                    return true;
                  });
  parser.add_flag("--json", "", "emit findings as JSON on stdout",
                  [&](const std::string&, std::string&) {
                    json = true;
                    return true;
                  });
  parser.add_flag("--baseline", "<file>",
                  "ignore findings listed in <file> (file:line:rule lines)",
                  [&](const std::string& v, std::string&) {
                    driver.baseline = v;
                    return true;
                  });
  parser.add_flag("--strict-baseline", "",
                  "fail (exit 1) on stale baseline entries instead of "
                  "printing a note",
                  [&](const std::string&, std::string&) {
                    driver.strict_baseline = true;
                    return true;
                  });
  parser.add_flag("--write-baseline", "<file>",
                  "write the current findings to <file> and exit 0",
                  [&](const std::string& v, std::string& err) {
                    if (v.empty()) {
                      err = "--write-baseline expects a file path";
                      return false;
                    }
                    write_baseline = v;
                    return true;
                  });
  parser.add_flag("--list-rules", "", "print the rule catalogue and exit",
                  [&](const std::string&, std::string&) {
                    list_rules = true;
                    return true;
                  });

  core::RunOptions opts;
  if (!parser.parse(argc, argv, opts)) return 2;
  if (opts.help) return 0;

  if (list_rules) {
    for (const auto& rule : simlint::rule_catalogue()) {
      std::printf("%-30s %s\n", rule.id.c_str(), rule.summary.c_str());
    }
    std::printf("\nSuppress one finding with `// simlint:allow(rule)` on "
                "(or directly above) the flagged line; `all` allows every "
                "rule on that line.\n");
    return 0;
  }

  driver.paths = opts.ids;
  if (driver.paths.empty()) {
    driver.paths = {"src", "tests", "bench", "examples"};
  }

  const simlint::RunResult result = simlint::run(driver);

  if (!write_baseline.empty()) {
    std::ofstream out(write_baseline, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "simlint: cannot write %s\n",
                   write_baseline.c_str());
      return 1;
    }
    out << simlint::render_baseline(result.findings);
    std::fprintf(stderr, "simlint: wrote %zu entr%s to %s\n",
                 result.findings.size(),
                 result.findings.size() == 1 ? "y" : "ies",
                 write_baseline.c_str());
    return 0;
  }

  if (json) {
    std::fputs(simlint::render_json(result).c_str(), stdout);
  } else {
    std::fputs(simlint::render_human(result).c_str(), stdout);
  }
  return result.clean() ? 0 : 1;
}
