#pragma once
/// \file effects.hpp
/// Interprocedural effect analysis: the symbol table + function-summary IR
/// behind the effect passes (passes.hpp), which keep event handlers free of
/// shared mutable state and entropy so one engine per host thread stays
/// safe.
///
/// Every function definition the lexer can see — free functions, member
/// functions (in-class and out-of-line), constructors/destructors, and
/// coroutine lambdas (carved out of their enclosing function, because rank
/// programs are mostly `[&](simmpi::Rank& r) -> sim::CoTask<void> {…}`) —
/// gets a summary: where it is, what it calls, and a direct effect set
/// inferred from its tokens. Handlers, the roots of the effect passes, are
/// Task/CoTask functions, coroutine lambdas and the functions the engine
/// calls as events (`sim::Callback::method<&Class::name>` targets: the
/// protocol steps of transfers, deliveries and the flow solver's wake):
///
///   writes-global / reads-global   use of a `g_*`-convention global (write
///                                  when assigned/incremented/mutated) or a
///                                  function-local mutable `static`
///   touches-world-state            calls a scheduling/rewiring World API
///                                  (spawn, schedule, fire, set_observer, …)
///   wall-clock / rng               a nondeterminism source (same matcher
///                                  as the local nondet-source rule)
///
/// `finalize_effects` links call sites to summaries by name (conservative:
/// same-name overloads merge) and propagates the state effects — writes,
/// reads, world-state, wall-clock, rng — caller-ward to a fixpoint, the
/// including co_await edges (an awaited callee is a callee).
///
/// A function that is none of {writes, reads, wall-clock, rng} after
/// closure is *rank-local-only* — safe to run on any partition thread.
///
/// Sanctioned seams are declared in source, next to the function:
///
///     // simlint:seam(<rule>[, <rule>…]): <rationale>
///
/// attached like a suppression (same line or directly above the
/// definition). For the named passes the function becomes an absorbing
/// boundary: it is not reported and reachability does not continue through
/// it. Every seam needs a non-empty rationale and valid rule ids (or
/// `all`); violations surface as driver errors.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "simlint/lexer.hpp"

namespace columbia::simlint {

/// Effect bits; all of them propagate through the call graph.
enum EffectBit : unsigned {
  kEffWritesGlobal = 1u << 0,
  kEffReadsGlobal = 1u << 1,
  kEffWorldState = 1u << 2,
  kEffWallClock = 1u << 3,
  kEffRng = 1u << 4,
};

/// The bits finalize_effects propagates caller-ward.
inline constexpr unsigned kPropagatedEffects =
    kEffWritesGlobal | kEffReadsGlobal | kEffWorldState | kEffWallClock |
    kEffRng;

/// Sorted human/JSON names of the set bits in `mask`, e.g.
/// {"reads-global", "writes-global"}.
std::vector<std::string> effect_names(unsigned mask);

/// Rank-local-only is an absence, not a bit: no state effect survives
/// closure (touches-world-state is allowed — a handler driving its own
/// World is the job description; it is *cross-rank* state that blocks
/// partitioning).
inline bool rank_local_only(unsigned closed_mask) {
  return (closed_mask & (kEffWritesGlobal | kEffReadsGlobal | kEffWallClock |
                         kEffRng)) == 0;
}

/// One use of a process-global (g_* convention) or function-local mutable
/// static inside a function body.
struct GlobalUse {
  std::string name;  ///< the global's identifier
  int line = 0;
  bool write = false;          ///< assigned / ++ / -- / compound-assigned
  bool local_static = false;   ///< function-local `static` (Meyers seam)
  friend bool operator<(const GlobalUse& a, const GlobalUse& b) {
    if (a.name != b.name) return a.name < b.name;
    if (a.line != b.line) return a.line < b.line;
    return a.write < b.write;
  }
};

/// A call site worth reporting on its own line (nondet sources).
struct EffectSite {
  std::string what;
  int line = 0;
};

/// Summary IR for one function definition.
struct FunctionSummary {
  std::string name;       ///< bare name call sites resolve against
  std::string qualified;  ///< Class::name, or name for free functions
  std::string file;       ///< root-relative label
  int line = 0;           ///< line of the name token (lambda: introducer)
  /// Returns Task/CoTask, is a coroutine lambda, or is an engine callback
  /// target (`sim::Callback::method<&Class::name>`, anywhere in the tree).
  bool is_handler = false;
  bool is_coroutine = false;  ///< body contains co_await/co_return/co_yield
  bool is_lambda = false;     ///< carved-out coroutine lambda

  unsigned direct = 0;   ///< effects of this body alone
  unsigned effects = 0;  ///< closed over callees (finalize_effects)

  std::vector<GlobalUse> global_uses;         ///< direct global touches
  std::vector<EffectSite> nondet_sites;       ///< wall-clock/rng sources
  std::set<std::string> callees;              ///< bare names called/awaited

  std::set<std::string> seam_rules;  ///< from simlint:seam(...); may hold "all"
  std::string seam_rationale;

  bool seamed_for(const std::string& rule) const {
    return seam_rules.count(rule) != 0 || seam_rules.count("all") != 0;
  }
};

/// The project-wide effect index. Built by collect_effects (one call per
/// file), closed by finalize_effects (once, after every file).
struct EffectIndex {
  std::vector<FunctionSummary> functions;
  /// bare name -> indices into `functions` (overloads and redefinitions
  /// merge at call-resolution time).
  std::map<std::string, std::vector<std::size_t>> by_name;
  /// Qualified names (`Class::name`) scheduled as engine callbacks;
  /// finalize_effects makes each matching definition a handler.
  std::set<std::string> callback_roots;
  /// Malformed seam annotations etc.; the driver surfaces these as run
  /// errors so a bad seam cannot silently sanction anything.
  std::vector<std::string> errors;
};

/// Collects `file`'s function summaries into `index`. `label` is the
/// root-relative path used in findings and reports.
void collect_effects(const std::string& label, const LexedFile& file,
                     EffectIndex& index);

/// Builds by_name, marks callback_roots as handlers, and propagates
/// kPropagatedEffects caller-ward to a fixpoint. Call once, after every
/// file has been collected.
void finalize_effects(EffectIndex& index);

/// Lookup helper: the summary of the (first, in file/line order) function
/// whose qualified name is `qualified`, or nullptr. Intended for tests.
const FunctionSummary* find_function(const EffectIndex& index,
                                     const std::string& qualified);

}  // namespace columbia::simlint
