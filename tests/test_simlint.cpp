// simlint's own suite. The heart is the fixture matrix: for every rule,
// the deliberately-dirty fixture must produce exactly the findings its
// `// expect-lint: <rule>` markers promise (same rule id, same line), and
// its clean twin must produce none. Around that: the lexer's line/
// comment/raw-string handling, inline suppressions, the baseline file,
// and byte-stability of the linter's own output.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "simlint/driver.hpp"
#include "simlint/lexer.hpp"
#include "simlint/rules.hpp"

namespace columbia::simlint {
namespace {

std::string fixture_dir() { return SIMLINT_FIXTURE_DIR; }

std::string read_fixture(const std::string& name) {
  std::ifstream in(fixture_dir() + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The (line, rule) pairs promised by `// expect-lint: <rule>` markers.
std::set<std::pair<int, std::string>> markers(const std::string& source) {
  std::set<std::pair<int, std::string>> out;
  std::istringstream in(source);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string tag = "// expect-lint: ";
    const std::size_t at = line.find(tag);
    if (at == std::string::npos) continue;
    std::string rule = line.substr(at + tag.size());
    while (!rule.empty() && (rule.back() == ' ' || rule.back() == '\r')) {
      rule.pop_back();
    }
    out.insert({lineno, rule});
  }
  return out;
}

RunResult lint_fixture(const std::string& name) {
  DriverOptions opts;
  opts.root = fixture_dir();
  opts.paths = {name};
  return run(opts);
}

constexpr const char* kRuleFixtures[] = {
    "coawait_in_condition",
    "task_discarded",
    "coroutine_lambda_ref_capture",
    "ref_across_suspend",
    "nondet_source",
    "unordered_iter_output",
    "ordered_ptr_key",
    "impure_listener",
    "cross_rank_shared_mutable",
    "nondet_interprocedural",
};

class RuleFixture : public ::testing::TestWithParam<const char*> {};

TEST_P(RuleFixture, PositiveTriggersExactlyTheMarkedLines) {
  const std::string base = GetParam();
  std::string rule = base;
  for (char& c : rule) {
    if (c == '_') c = '-';
  }
  ASSERT_TRUE(known_rule(rule)) << rule;

  const std::string file = base + "_pos.cpp";
  const auto expected = markers(read_fixture(file));
  ASSERT_FALSE(expected.empty()) << file << " has no expect-lint markers";
  for (const auto& [line, marked_rule] : expected) {
    EXPECT_EQ(marked_rule, rule) << file << ":" << line;
  }

  const RunResult result = lint_fixture(file);
  EXPECT_TRUE(result.errors.empty()) << render_human(result);
  std::set<std::pair<int, std::string>> got;
  for (const Finding& f : result.findings) {
    EXPECT_EQ(f.file, file);
    got.insert({f.line, f.rule});
  }
  EXPECT_EQ(got, expected) << render_human(result);
}

TEST_P(RuleFixture, NegativeStaysClean) {
  const std::string file = std::string(GetParam()) + "_neg.cpp";
  const RunResult result = lint_fixture(file);
  EXPECT_TRUE(result.errors.empty()) << render_human(result);
  EXPECT_TRUE(result.findings.empty()) << render_human(result);
}

INSTANTIATE_TEST_SUITE_P(AllRules, RuleFixture,
                         ::testing::ValuesIn(kRuleFixtures),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(Catalogue, EveryRuleIsKnownAndHasBothFixtures) {
  EXPECT_EQ(rule_catalogue().size(), 10u);
  for (const RuleInfo& rule : rule_catalogue()) {
    EXPECT_TRUE(known_rule(rule.id));
    EXPECT_FALSE(rule.summary.empty()) << rule.id;
    std::string base = rule.id;
    for (char& c : base) {
      if (c == '-') c = '_';
    }
    EXPECT_TRUE(
        std::filesystem::exists(fixture_dir() + "/" + base + "_pos.cpp"))
        << rule.id;
    EXPECT_TRUE(
        std::filesystem::exists(fixture_dir() + "/" + base + "_neg.cpp"))
        << rule.id;
  }
  EXPECT_FALSE(known_rule("no-such-rule"));
}

TEST(Lexer, TracksLinesSkipsPreprocessorAndKeepsComments) {
  const LexedFile f = lex(
      "int a = 1;  // note\n"
      "#define X \\\n"
      "  2\n"
      "auto v = a >> 2;\n");
  bool saw_shift = false;
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.line, 2) << "preprocessor line leaked token " << t.text;
    EXPECT_NE(t.line, 3) << "continuation line leaked token " << t.text;
    if (t.is(">>")) {
      saw_shift = true;
      EXPECT_EQ(t.line, 4);
    }
  }
  EXPECT_TRUE(saw_shift);
  ASSERT_EQ(f.comments.size(), 1u);
  EXPECT_EQ(f.comments[0].line, 1);
  EXPECT_NE(f.comments[0].text.find("note"), std::string::npos);
}

TEST(Lexer, RawStringsLexAsOneToken) {
  const LexedFile f = lex("auto s = R\"(quote \" inside)\";\n");
  int strings = 0;
  for (const Token& t : f.tokens) {
    if (t.kind == TokKind::String) ++strings;
  }
  EXPECT_EQ(strings, 1);
}

TEST(Lexer, CustomDelimiterAndPrefixedRawStrings) {
  // The )" inside the literal must not close it — only )ab" does. The
  // u8R-prefixed literal lexes as one String token, not ident + string.
  const LexedFile f = lex(
      "auto s = R\"ab(close )\" attempt)ab\";\n"
      "auto t = u8R\"(payload)\";\n"
      "auto u = LR\"x(^\\d+)x\";\n");
  std::vector<std::string> strings;
  for (const Token& t : f.tokens) {
    if (t.kind == TokKind::String) strings.push_back(t.text);
    EXPECT_FALSE(t.kind == TokKind::Ident && t.text == "u8R") << "prefix split";
  }
  ASSERT_EQ(strings.size(), 3u);
  EXPECT_NE(strings[0].find("close )\" attempt"), std::string::npos);
  EXPECT_EQ(strings[1], "u8R\"(payload)\"");
  EXPECT_EQ(strings[2], "LR\"x(^\\d+)x\"");
}

TEST(Lexer, DigitSeparatorsStayInOneNumber) {
  const LexedFile f = lex("long n = 1'000'000; char c = 'x';\n");
  bool saw_number = false, saw_char = false;
  for (const Token& t : f.tokens) {
    if (t.kind == TokKind::Number) {
      saw_number = true;
      EXPECT_EQ(t.text, "1'000'000");
    }
    if (t.kind == TokKind::Char) {
      saw_char = true;
      EXPECT_EQ(t.text, "'x'");
    }
  }
  EXPECT_TRUE(saw_number);
  EXPECT_TRUE(saw_char) << "the separator handling must not eat 'x'";
}

TEST(Lexer, DirectiveSkipsCrlfContinuationsAndBlockComments) {
  // Lines 1-2: a macro continued with \ followed by CRLF. Lines 3-4: a
  // block comment inside a directive — its newline must not end the
  // directive. Only line 5 carries tokens.
  const LexedFile f = lex(
      "#define A(x) \\\r\n"
      "  ((x) + 1)\r\n"
      "#define B /* spans\n"
      "lines */ 2\n"
      "int z;\n");
  ASSERT_FALSE(f.tokens.empty());
  for (const Token& t : f.tokens) {
    EXPECT_EQ(t.line, 5) << "leaked directive token " << t.text;
  }
  EXPECT_TRUE(f.tokens[0].is("int"));
}

TEST(Suppressions, InlineAllowDropsFindingsAndCounts) {
  const RunResult result = lint_fixture("suppressed_inline.cpp");
  EXPECT_TRUE(result.findings.empty()) << render_human(result);
  EXPECT_EQ(result.suppressed, 2);
  EXPECT_TRUE(result.clean());
}

TEST(Baseline, ParserSkipsCommentsBlanksAndPadding) {
  const auto entries =
      parse_baseline("# header\n\n  a.cpp:1:nondet-source  \n\tb.cpp:2:x\r\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], "a.cpp:1:nondet-source");
  EXPECT_EQ(entries[1], "b.cpp:2:x");
}

TEST(Baseline, RoundTripsThroughRender) {
  const std::vector<Finding> findings = {
      {"f.cpp", 3, "nondet-source", "msg"}};
  const auto entries = parse_baseline(render_baseline(findings));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0], "f.cpp:3:nondet-source");
}

TEST(Baseline, DropsMatchingFindingsAndReportsStaleEntries) {
  const auto expected = markers(read_fixture("task_discarded_pos.cpp"));
  ASSERT_EQ(expected.size(), 1u);
  const std::string entry = "task_discarded_pos.cpp:" +
                            std::to_string(expected.begin()->first) + ":" +
                            expected.begin()->second;

  const std::string path =
      (std::filesystem::temp_directory_path() / "simlint_test_baseline.txt")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "# test baseline\n" << entry << "\ngone.cpp:1:nondet-source\n";
  }
  DriverOptions opts;
  opts.root = fixture_dir();
  opts.paths = {"task_discarded_pos.cpp"};
  opts.baseline = path;
  const RunResult result = run(opts);
  std::filesystem::remove(path);

  EXPECT_TRUE(result.findings.empty()) << render_human(result);
  EXPECT_EQ(result.baselined, 1);
  ASSERT_EQ(result.stale_baseline.size(), 1u);
  EXPECT_EQ(result.stale_baseline[0], "gone.cpp:1:nondet-source");
  EXPECT_TRUE(result.clean());
}

TEST(Baseline, StrictModePromotesStaleEntriesToErrors) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "simlint_strict_baseline.txt")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "gone.cpp:1:nondet-source\n";
  }
  DriverOptions opts;
  opts.root = fixture_dir();
  opts.paths = {"task_discarded_neg.cpp"};
  opts.baseline = path;

  // Default: a stale entry is a note; the run still counts as clean.
  const RunResult lax = run(opts);
  ASSERT_EQ(lax.stale_baseline.size(), 1u);
  EXPECT_TRUE(lax.clean());

  opts.strict_baseline = true;
  const RunResult strict = run(opts);
  std::filesystem::remove(path);
  ASSERT_EQ(strict.stale_baseline.size(), 1u);
  ASSERT_EQ(strict.errors.size(), 1u);
  EXPECT_NE(strict.errors[0].find("gone.cpp:1:nondet-source"),
            std::string::npos);
  EXPECT_FALSE(strict.clean());
}

TEST(Render, JsonNamesFindingsAndStats) {
  const std::string json = render_json(lint_fixture("ordered_ptr_key_pos.cpp"));
  EXPECT_NE(json.find("\"rule\": \"ordered-ptr-key\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"errors\": []"), std::string::npos);
}

TEST(Driver, OutputIsByteStableAcrossRuns) {
  DriverOptions opts;
  opts.root = fixture_dir();
  opts.paths = {"."};
  const RunResult first = run(opts);
  const RunResult second = run(opts);
  EXPECT_GT(first.files_scanned, 0);
  EXPECT_EQ(render_human(first), render_human(second));
  EXPECT_EQ(render_json(first), render_json(second));
}

TEST(Driver, UnreadablePathIsAnErrorNotACrash) {
  DriverOptions opts;
  opts.root = fixture_dir();
  opts.paths = {"does_not_exist.cpp"};
  const RunResult result = run(opts);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_FALSE(result.clean());
}

}  // namespace
}  // namespace columbia::simlint
