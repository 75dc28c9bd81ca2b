#pragma once
/// \file rules.hpp
/// The simlint rule catalogue and token-pattern rule engine.
///
/// Two rule families defend the repo's core invariant — a run is a pure
/// function of (spec, seed), byte-identical sequential vs parallel:
///
/// Coroutine-safety (the engine is a single-threaded coroutine scheduler;
/// frame-lifetime bugs corrupt runs silently):
///   * coawait-in-condition      co_await inside an if/while/for condition
///                               (known toolchain miscompile, see the
///                               hoisted await in simmpi/world.cpp)
///   * task-discarded            a Task/CoTask-returning call used as a
///                               bare statement: the coroutine is created
///                               and destroyed without ever running
///   * coroutine-lambda-ref-capture  a lambda that is itself a coroutine
///                               captures by reference; the capture lives
///                               in the lambda object, not the frame, and
///                               dangles after the first suspension
///   * ref-across-suspend        a reference bound to a vector element is
///                               used after a co_await; another task may
///                               grow the vector while this one sleeps
///
/// Determinism (nothing outside common::Rng may introduce entropy, and
/// nothing order-unstable may feed an artifact):
///   * nondet-source             rand/random_device/time/clock/..._clock::
///                               now outside src/common/rng.*
///   * unordered-iter-output     range-for over an unordered container
///                               whose body writes to a stream — hash
///                               order leaks into reports/JSON/CSV
///   * ordered-ptr-key           std::map/std::set keyed on a raw or smart
///                               pointer without a custom comparator:
///                               iteration order is allocation order
///   * impure-listener           an on_* method of a CommObserver/SpanSink
///                               implementation (or a RegionObserver
///                               lambda) calls a scheduling API or writes
///                               a g_* global — listeners must be pure
///
/// The engine is two-pass: `index_file` collects cross-file facts (names
/// of Task/CoTask-returning functions, observer-derived classes, and
/// container-typed names), then `analyze_file` runs every rule over one
/// file's tokens.

#include <set>
#include <string>
#include <vector>

#include "simlint/lexer.hpp"

namespace columbia::simlint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  /// Stable ordering for rendering and baseline comparison.
  friend bool operator<(const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  }
  friend bool operator==(const Finding& a, const Finding& b) {
    return a.file == b.file && a.line == b.line && a.rule == b.rule &&
           a.message == b.message;
  }
};

struct RuleInfo {
  std::string id;
  std::string summary;
};

/// Every rule simlint knows, in catalogue order.
const std::vector<RuleInfo>& rule_catalogue();

/// True when `id` names a catalogue rule ("all" is also accepted by
/// suppressions but is not a rule).
bool known_rule(const std::string& id);

/// Cross-file facts gathered before analysis.
struct ProjectIndex {
  /// Functions whose declared return type is sim::Task or sim::CoTask<...>
  /// anywhere in the project (discarding their result discards a coroutine).
  std::set<std::string> task_functions;
  /// Classes that derive (directly, lexically) from CommObserver or
  /// SpanSink — the pure-listener seams.
  std::set<std::string> observer_classes;
  /// Names declared as std::unordered_{map,set,multimap,multiset} (or an
  /// alias of one) anywhere in the project. Project-wide because members
  /// are declared in headers and iterated in .cpp files.
  std::set<std::string> unordered_names;
  /// Names declared as std::vector, same project-wide scope (element
  /// references into these are what ref-across-suspend guards).
  std::set<std::string> vector_names;
};

/// Pass 1: records `file`'s contributions to the index.
void index_file(const LexedFile& file, ProjectIndex& index);

/// Pass 2: runs every rule over one file. `path` is the label used in
/// findings (driver passes the root-relative path). Findings come back
/// sorted. Inline suppressions are applied by the driver, not here.
std::vector<Finding> analyze_file(const std::string& path,
                                  const LexedFile& file,
                                  const ProjectIndex& index);

}  // namespace columbia::simlint
