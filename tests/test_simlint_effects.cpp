// The effect-analysis suite: the function-summary IR (scanner + fixpoint)
// on synthetic sources, the two interprocedural passes over their
// fixtures with exact line assertions, golden effect sets for known
// functions of the real tree (SIMLINT_SOURCE_ROOT), seam validation, and
// the suppression-rationale contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "simlint/driver.hpp"
#include "simlint/effects.hpp"
#include "simlint/lexer.hpp"
#include "simlint/passes.hpp"

namespace columbia::simlint {
namespace {

std::string fixture_dir() { return SIMLINT_FIXTURE_DIR; }
std::string source_root() { return SIMLINT_SOURCE_ROOT; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// One-TU index from inline source.
EffectIndex index_source(const std::string& src,
                         const std::string& label = "test.cpp") {
  EffectIndex index;
  collect_effects(label, lex(src), index);
  finalize_effects(index);
  return index;
}

RunResult lint_fixture(const std::string& name) {
  DriverOptions opts;
  opts.root = fixture_dir();
  opts.paths = {name};
  return run(opts);
}

std::set<std::pair<int, std::string>> finding_set(const RunResult& result) {
  std::set<std::pair<int, std::string>> out;
  for (const Finding& f : result.findings) out.insert({f.line, f.rule});
  return out;
}

// --- Scanner: direct effects -----------------------------------------------

TEST(Scanner, GlobalUsesDistinguishReadsWritesAndLocalStatics) {
  const EffectIndex index = index_source(
      "int g_counter = 0;\n"
      "void tick() {\n"
      "  static int calls = 0;\n"
      "  ++calls;\n"
      "  g_counter += 1;\n"
      "  const int snapshot = g_counter;\n"
      "  (void)snapshot;\n"
      "}\n");
  const FunctionSummary* fn = find_function(index, "tick");
  ASSERT_NE(fn, nullptr);
  EXPECT_TRUE(fn->direct & kEffWritesGlobal);
  EXPECT_TRUE(fn->direct & kEffReadsGlobal);
  EXPECT_FALSE(rank_local_only(fn->effects));

  bool saw_static = false, saw_write = false, saw_read = false;
  for (const GlobalUse& use : fn->global_uses) {
    if (use.local_static) {
      saw_static = true;
      EXPECT_EQ(use.name, "calls");
      EXPECT_TRUE(use.write);
    } else if (use.name == "g_counter" && use.write) {
      saw_write = true;
      EXPECT_EQ(use.line, 5);
    } else if (use.name == "g_counter" && !use.write) {
      saw_read = true;
      EXPECT_EQ(use.line, 6);
    }
  }
  EXPECT_TRUE(saw_static);
  EXPECT_TRUE(saw_write);
  EXPECT_TRUE(saw_read);
}

TEST(Scanner, CoroutineLambdaIsCarvedOutOfItsEnclosingFunction) {
  const EffectIndex index = index_source(
      "int g_total = 0;\n"
      "void driver(World& w) {\n"
      "  w.spawn([&](simmpi::Rank& r) -> sim::CoTask<void> {\n"
      "    g_total += 1;\n"
      "    co_return;\n"
      "  });\n"
      "}\n");
  const FunctionSummary* driver = find_function(index, "driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_TRUE(driver->direct & kEffWorldState) << "spawn is a World call";
  EXPECT_FALSE(driver->direct & kEffWritesGlobal)
      << "the lambda body must not leak into the enclosing function";

  const FunctionSummary* lambda = find_function(index, "driver::<lambda:3>");
  ASSERT_NE(lambda, nullptr);
  EXPECT_TRUE(lambda->is_lambda);
  EXPECT_TRUE(lambda->is_handler);
  EXPECT_TRUE(lambda->is_coroutine);
  EXPECT_TRUE(lambda->direct & kEffWritesGlobal);
}

// --- Fixpoint + passes on a synthetic chain --------------------------------

TEST(Fixpoint, StateEffectsCloseCallerWardAndTheWitnessNamesTheHops) {
  const EffectIndex index = index_source(
      "int g_shared = 0;\n"
      "void sink() { g_shared = 1; }\n"
      "void hop() { sink(); }\n"
      "sim::CoTask<void> top(simmpi::Rank& r) {\n"
      "  hop();\n"
      "  co_await r.barrier();\n"
      "}\n");
  const FunctionSummary* top = find_function(index, "top");
  ASSERT_NE(top, nullptr);
  EXPECT_TRUE(top->is_handler);
  EXPECT_TRUE(top->effects & kEffWritesGlobal) << "two-hop propagation";
  EXPECT_FALSE(top->direct & kEffWritesGlobal);

  const std::vector<Finding> findings = run_effect_passes(index);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "cross-rank-shared-mutable");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("`top` -> `hop` -> `sink`"),
            std::string::npos)
      << findings[0].message;
}

TEST(Fixpoint, SeamIsAnAbsorbingBoundary) {
  const EffectIndex index = index_source(
      "int g_shared = 0;\n"
      "// simlint:seam(cross-rank-shared-mutable): commutative sink.\n"
      "void sink() { g_shared = 1; }\n"
      "sim::CoTask<void> top(simmpi::Rank& r) {\n"
      "  sink();\n"
      "  co_await r.barrier();\n"
      "}\n");
  EXPECT_TRUE(index.errors.empty());
  const FunctionSummary* sink = find_function(index, "sink");
  ASSERT_NE(sink, nullptr);
  EXPECT_TRUE(sink->seamed_for("cross-rank-shared-mutable"));
  EXPECT_EQ(sink->seam_rationale, "commutative sink.");
  EXPECT_TRUE(run_effect_passes(index).empty());
}

// --- Seam validation --------------------------------------------------------

TEST(Seams, UnknownPassEmptyRationaleAndUnattachedAreErrors) {
  const EffectIndex unknown = index_source(
      "// simlint:seam(not-a-rule): because\n"
      "void f() {}\n");
  ASSERT_EQ(unknown.errors.size(), 1u);
  EXPECT_NE(unknown.errors[0].find("unknown pass `not-a-rule`"),
            std::string::npos);

  const EffectIndex bare = index_source(
      "// simlint:seam(cross-rank-shared-mutable):\n"
      "void f() {}\n");
  ASSERT_EQ(bare.errors.size(), 1u);
  EXPECT_NE(bare.errors[0].find("needs a rationale"), std::string::npos);

  const EffectIndex floating = index_source(
      "int x = 0;\n"
      "// simlint:seam(cross-rank-shared-mutable): floats over a "
      "declaration\n"
      "int y = 0;\n");
  ASSERT_EQ(floating.errors.size(), 1u);
  EXPECT_NE(floating.errors[0].find("attaches to no function"),
            std::string::npos);
}

TEST(Suppressions, AllowWithoutRationaleIsADriverError) {
  const auto dir = std::filesystem::temp_directory_path() / "simlint_effects";
  std::filesystem::create_directories(dir);
  const std::string name = "bare_allow.cpp";
  {
    std::ofstream out(dir / name, std::ios::binary);
    out << "#include <chrono>\n"
        << "double f() {\n"
        << "  const auto t = std::chrono::steady_clock::now();"
        << "  // simlint:allow(nondet-source)\n"
        << "  return std::chrono::duration<double>("
        << "t.time_since_epoch()).count();\n"
        << "}\n";
  }
  DriverOptions opts;
  opts.root = dir.string();
  opts.paths = {name};
  const RunResult result = run(opts);
  std::filesystem::remove_all(dir);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.errors[0].find("needs a rationale"), std::string::npos);
  EXPECT_FALSE(result.clean());
}

// --- The pass fixtures, with exact lines ------------------------------------

TEST(PassFixtures, CrossRankAnchorsAtTheMutationSite) {
  const RunResult pos = lint_fixture("cross_rank_shared_mutable_pos.cpp");
  EXPECT_TRUE(pos.errors.empty()) << render_human(pos);
  const std::set<std::pair<int, std::string>> expected = {
      {11, "cross-rank-shared-mutable"}};
  EXPECT_EQ(finding_set(pos), expected) << render_human(pos);

  const RunResult neg = lint_fixture("cross_rank_shared_mutable_neg.cpp");
  EXPECT_TRUE(neg.errors.empty()) << render_human(neg);
  EXPECT_TRUE(neg.findings.empty()) << render_human(neg);
}

TEST(PassFixtures, NondetInterproceduralOutlivesALocalSuppression) {
  const RunResult pos = lint_fixture("nondet_interprocedural_pos.cpp");
  EXPECT_TRUE(pos.errors.empty()) << render_human(pos);
  const std::set<std::pair<int, std::string>> expected = {
      {10, "nondet-interprocedural"}};
  EXPECT_EQ(finding_set(pos), expected) << render_human(pos);
  EXPECT_EQ(pos.suppressed, 1) << "the local nondet-source allow";

  const RunResult neg = lint_fixture("nondet_interprocedural_neg.cpp");
  EXPECT_TRUE(neg.errors.empty()) << render_human(neg);
  EXPECT_TRUE(neg.findings.empty()) << render_human(neg);
  EXPECT_EQ(neg.suppressed, 1);
}

TEST(PassFixtures, CallbackTargetsAreHandlerRoots) {
  // A function the engine calls through sim::Callback::method is a
  // handler wherever it is defined: its global read is flagged, and the
  // twin that reads only its own record is clean.
  const RunResult pos = lint_fixture("callback_root_pos.cpp");
  EXPECT_TRUE(pos.errors.empty()) << render_human(pos);
  const std::set<std::pair<int, std::string>> expected = {
      {17, "cross-rank-shared-mutable"}};
  EXPECT_EQ(finding_set(pos), expected) << render_human(pos);

  const RunResult neg = lint_fixture("callback_root_neg.cpp");
  EXPECT_TRUE(neg.errors.empty()) << render_human(neg);
  EXPECT_TRUE(neg.findings.empty()) << render_human(neg);
}

TEST(Scanner, CallbackTargetsBecomeHandlersAcrossFiles) {
  // The target is scheduled in one file and defined in another.
  EffectIndex index;
  collect_effects("a.cpp",
                  lex("void arm(sim::Engine& e, Step& s) {\n"
                      "  e.schedule_at(0.0, sim::Callback::method<"
                      "&ns::Step::tick>(&s));\n"
                      "}\n"),
                  index);
  collect_effects("b.cpp", lex("void Step::tick() {}\nvoid tick() {}\n"),
                  index);
  finalize_effects(index);
  const FunctionSummary* member = find_function(index, "Step::tick");
  const FunctionSummary* free_fn = find_function(index, "tick");
  const FunctionSummary* arm = find_function(index, "arm");
  ASSERT_TRUE(member != nullptr && free_fn != nullptr && arm != nullptr);
  EXPECT_TRUE(member->is_handler);
  EXPECT_FALSE(free_fn->is_handler)
      << "a same-name free function is not the scheduled member";
  EXPECT_FALSE(arm->is_handler);
}

// --- Golden effect sets over the real tree ----------------------------------

class GoldenEffects : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    index_ = new EffectIndex;
    for (const char* f :
         {"src/sim/engine.cpp", "src/core/evaluator.cpp",
          "src/simmpi/world.cpp", "src/simio/filesystem.cpp",
          "src/common/rng.cpp", "src/common/parallel.cpp",
          "src/sim/run_context.cpp"}) {
      collect_effects(f, lex(read_file(source_root() + "/" + f)), *index_);
    }
    finalize_effects(*index_);
  }
  static void TearDownTestSuite() {
    delete index_;
    index_ = nullptr;
  }
  static const FunctionSummary& fn(const std::string& qualified) {
    const FunctionSummary* f = find_function(*index_, qualified);
    EXPECT_NE(f, nullptr) << qualified;
    static FunctionSummary empty;
    return f ? *f : empty;
  }
  static EffectIndex* index_;
};
EffectIndex* GoldenEffects::index_ = nullptr;

TEST_F(GoldenEffects, IndexIsCleanAndWellFormed) {
  EXPECT_TRUE(index_->errors.empty());
  EXPECT_GT(index_->functions.size(), 100u);
}

TEST_F(GoldenEffects, EngineRunIsTheSanctionedEngineSeam) {
  const FunctionSummary& run = fn("Engine::run");
  EXPECT_TRUE(run.direct & kEffWritesGlobal) << "g_current_engine swap";
  EXPECT_TRUE(run.direct & kEffWallClock) << "events/sec perf counter";
  EXPECT_FALSE(run.is_handler);
  EXPECT_TRUE(run.seamed_for("cross-rank-shared-mutable"));
  EXPECT_TRUE(run.seamed_for("nondet-interprocedural"));
}

TEST_F(GoldenEffects, RunContextAccessorIsTheSanctionedContextSeam) {
  const FunctionSummary& current = fn("current_run_context");
  EXPECT_TRUE(current.direct & kEffReadsGlobal) << "thread_local read";
  EXPECT_TRUE(current.seamed_for("cross-rank-shared-mutable"));
  EXPECT_TRUE(fn("RunScope::RunScope").direct & kEffWritesGlobal);
}

TEST_F(GoldenEffects, MeyersSingletonCountsAsALocalStaticWrite) {
  const FunctionSummary& pool = fn("ThreadPool::shared");
  const bool meyers =
      std::any_of(pool.global_uses.begin(), pool.global_uses.end(),
                  [](const GlobalUse& u) { return u.local_static && u.write; });
  EXPECT_TRUE(meyers);
}

TEST_F(GoldenEffects, SimmpiWildcardMatchPathIsRankLocal) {
  const FunctionSummary& recv = fn("Rank::recv");
  EXPECT_TRUE(recv.is_handler);
  EXPECT_TRUE(recv.is_coroutine);
  EXPECT_TRUE(recv.direct & kEffWorldState);
  EXPECT_TRUE(rank_local_only(recv.effects))
      << "the wildcard match path must not touch cross-rank state";
  EXPECT_TRUE(rank_local_only(fn("Rank::matches").effects));
  EXPECT_TRUE(rank_local_only(fn("Rank::send").effects));
  EXPECT_TRUE(rank_local_only(fn("Rank::allreduce").effects));
}

TEST_F(GoldenEffects, SimmpiDeliveryStepsAreRankLocalCallbackHandlers) {
  for (const char* q : {"Delivery::after_delay", "Delivery::after_backoff",
                        "Delivery::arrived"}) {
    const FunctionSummary& f = fn(q);
    EXPECT_TRUE(f.is_handler) << q;
    EXPECT_FALSE(f.is_coroutine) << q;
    EXPECT_TRUE(f.effects & kEffWorldState) << q;
    EXPECT_TRUE(rank_local_only(f.effects)) << q;
  }
}

TEST_F(GoldenEffects, SimioFileAwaitablesAreRankLocalHandlers) {
  for (const char* q : {"File::read", "File::write", "Filesystem::chunk_op"}) {
    const FunctionSummary& f = fn(q);
    EXPECT_TRUE(f.is_handler) << q;
    EXPECT_TRUE(f.is_coroutine) << q;
    EXPECT_TRUE(f.effects & kEffWorldState) << q;
    EXPECT_TRUE(rank_local_only(f.effects)) << q;
  }
}

TEST_F(GoldenEffects, RngIsTheSanctionedEntropyHome) {
  const FunctionSummary& next = fn("Rng::next_u64");
  EXPECT_EQ(next.effects, 0u);
  EXPECT_TRUE(next.nondet_sites.empty())
      << "common/rng is exempt from the nondet matcher";
  EXPECT_TRUE(rank_local_only(fn("Rng::normal").effects));
}

}  // namespace
}  // namespace columbia::simlint
