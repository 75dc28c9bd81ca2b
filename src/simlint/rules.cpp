#include "simlint/rules.hpp"

#include <algorithm>
#include <cstddef>
#include <map>

#include "simlint/tokwalk.hpp"

namespace columbia::simlint {

namespace {

const std::vector<RuleInfo> kCatalogue = {
    {"coawait-in-condition",
     "co_await inside an if/while/for condition (toolchain miscompiles "
     "awaited temporaries in conditions — hoist into a named local)"},
    {"task-discarded",
     "Task/CoTask-returning call used as a bare statement: the coroutine "
     "frame is created suspended and destroyed without running"},
    {"coroutine-lambda-ref-capture",
     "immediately invoked coroutine lambda captures by reference: the "
     "temporary closure dies with the full expression while the frame "
     "still reads captures through it"},
    {"ref-across-suspend",
     "reference into a vector element used after a co_await: another task "
     "may reallocate the vector while this one is suspended"},
    {"nondet-source",
     "entropy/wall-clock source outside common::Rng (rand, random_device, "
     "time, clock, std::chrono::*_clock::now)"},
    {"unordered-iter-output",
     "range-for over an unordered container feeding stream output: hash "
     "order is not part of the determinism contract"},
    {"ordered-ptr-key",
     "std::map/std::set keyed on a pointer without a custom comparator: "
     "iteration order is allocation order, different every run"},
    {"impure-listener",
     "observer seam (CommObserver/SpanSink/RegionObserver) mutates "
     "simulation or global state: listeners must be pure"},
    // Effect passes (interprocedural; see effects.hpp / passes.cpp). These
    // run over the closed effect summaries, not one file's tokens.
    {"cross-rank-shared-mutable",
     "mutable static/global state reachable from a Task/CoTask event "
     "handler without a documented seam: runs sharing host threads would "
     "race on it"},
    {"nondet-interprocedural",
     "wall-clock/entropy source reachable from a Task/CoTask event "
     "handler through the call graph: runs must be pure functions of "
     "(spec, seed) even when the source hides behind helpers"},
};

// --------------------------------------------------------------------------
// Token-walk helpers shared with the effect engine live in tokwalk.hpp;
// only the rule-local ones stay here.
// --------------------------------------------------------------------------

bool is_unordered_kind(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

// --------------------------------------------------------------------------
// Analyzer
// --------------------------------------------------------------------------

class Analyzer {
 public:
  Analyzer(const std::string& path, const Toks& t, const ProjectIndex& index)
      : path_(path), t_(t), index_(index) {}

  std::vector<Finding> run() {
    rule_coawait_in_condition();
    rule_task_discarded();
    rule_lambda_ref_capture();
    rule_ref_across_suspend();
    rule_nondet_source();
    rule_unordered_iter_output();
    rule_ordered_ptr_key();
    rule_impure_listener();
    std::sort(findings_.begin(), findings_.end());
    return std::move(findings_);
  }

 private:
  void add(int line, const char* rule, std::string message) {
    findings_.push_back({path_, line, rule, std::move(message)});
  }

  const Token* prev_tok(std::size_t i) const {
    return i > 0 ? &t_[i - 1] : nullptr;
  }

  // ---- coawait-in-condition ----------------------------------------------
  void rule_coawait_in_condition() {
    for (std::size_t i = 0; i + 1 < t_.size(); ++i) {
      const Token& tok = t_[i];
      if (!(tok.ident("if") || tok.ident("while") || tok.ident("for"))) {
        continue;
      }
      std::size_t open = i + 1;
      if (t_[open].ident("constexpr")) ++open;  // if constexpr (…)
      if (open >= t_.size() || !t_[open].is("(")) continue;
      const std::size_t close = match_paren(t_, open);
      if (close == kNpos) continue;
      for (std::size_t j = open + 1; j < close; ++j) {
        if (t_[j].ident("co_await")) {
          add(t_[j].line, "coawait-in-condition",
              "co_await inside a `" + tok.text +
                  "` condition — hoist the await into a named local before "
                  "the branch (awaited temporaries in conditions miscompile)");
        }
      }
    }
  }

  // ---- task-discarded ----------------------------------------------------
  void rule_task_discarded() {
    for (std::size_t i = 0; i < t_.size(); ++i) {
      if (t_[i].kind != TokKind::Ident) continue;
      const Token* prev = prev_tok(i);
      bool stmt_start = prev == nullptr || prev->is(";") || prev->is("{") ||
                        prev->is("}") || prev->ident("else");
      if (prev != nullptr && prev->is(")")) {
        // `if (…) call();` is a statement start; `(void) call();` is an
        // explicit discard and is honored.
        const bool void_cast = i >= 3 && t_[i - 2].ident("void") &&
                               t_[i - 3].is("(");
        stmt_start = !void_cast;
      }
      if (!stmt_start) continue;

      // Walk a `a.b->c::callee(…);` chain.
      std::size_t j = i;
      std::size_t callee = i;
      while (j + 1 < t_.size()) {
        const Token& next = t_[j + 1];
        if (next.is(".") || next.is("->") || next.is("::")) {
          if (j + 2 >= t_.size() || t_[j + 2].kind != TokKind::Ident) break;
          callee = j + 2;
          j += 2;
          continue;
        }
        break;
      }
      if (j + 1 >= t_.size() || !t_[j + 1].is("(")) continue;
      const std::size_t close = match_paren(t_, j + 1);
      if (close == kNpos || close + 1 >= t_.size()) continue;
      if (!t_[close + 1].is(";")) continue;
      const std::string& name = t_[callee].text;
      if (index_.task_functions.count(name) == 0) continue;
      // `wait` and `get` collide with std::condition_variable::wait and
      // std::future::get, which the index cannot see past (it has no
      // receiver types). Discards of the simulator's own wait()/get() are
      // still caught at compile time by [[nodiscard]] on CoTask.
      if (name == "wait" || name == "get") continue;
      add(t_[callee].line, "task-discarded",
          "result of coroutine `" + name +
              "` discarded — a bare call creates a suspended frame and "
              "destroys it without running; co_await it (or spawn a Task)");
    }
  }

  // ---- coroutine-lambda-ref-capture --------------------------------------
  void rule_lambda_ref_capture() {
    for (std::size_t i = 0; i < t_.size(); ++i) {
      // After an identifier, `)`, or `]` a `[` is indexing, not a lambda —
      // lambda_introducer (tokwalk.hpp) encodes that discrimination.
      if (!lambda_introducer(t_, i)) continue;
      const LambdaShape shape = parse_lambda(t_, i);
      if (shape.body_open == kNpos || !shape.has_ref_capture) continue;
      const bool coroutine =
          span_contains_ident(t_, shape.body_open, shape.body_close,
                              "co_await") ||
          span_contains_ident(t_, shape.body_open, shape.body_close,
                              "co_return") ||
          span_contains_ident(t_, shape.body_open, shape.body_close,
                              "co_yield");
      if (!coroutine) continue;
      // The dangerous shape is an *immediately invoked* coroutine lambda:
      // the closure object is a temporary destroyed at the end of the full
      // expression, while the frame (which reads captures through the
      // closure, not a copy) lives on in the returned Task/CoTask. A lambda
      // handed to a synchronous driver (`world.run([&] … )`) or bound to a
      // named local instead outlives every frame it produces — that idiom
      // is the backbone of this codebase and stays unflagged.
      if (shape.body_close == kNpos || shape.body_close + 1 >= t_.size() ||
          !t_[shape.body_close + 1].is("(")) {
        continue;
      }
      add(t_[i].line, "coroutine-lambda-ref-capture",
          "immediately invoked coroutine lambda captures by reference — "
          "the closure object is a temporary and the frame reads captures "
          "through it after it is destroyed; name the lambda so it "
          "outlives the frame, or capture by value");
    }
  }

  // ---- ref-across-suspend ------------------------------------------------
  void rule_ref_across_suspend() {
    struct RefDecl {
      std::string name;
      std::string vec;
      int depth = 0;
      int line = 0;
      bool awaited = false;
      bool reported = false;
    };
    std::vector<RefDecl> live;
    int brace = 0, paren = 0, bracket = 0;

    // A stale reference needs someone to actually reallocate the vector
    // while the holder is suspended. References into vectors this file
    // only ever sizes up front (peer tables, per-rank resource arrays)
    // are stable for the whole drive; demanding a reallocating call
    // lexically after the declaration keeps those quiet. Index of the
    // last reallocating member call per vector name:
    std::map<std::string, std::size_t> last_realloc;
    for (std::size_t i = 0; i + 3 < t_.size(); ++i) {
      if (t_[i].kind != TokKind::Ident) continue;
      if (!(t_[i + 1].is(".") || t_[i + 1].is("->"))) continue;
      if (!t_[i + 3].is("(")) continue;
      const std::string& m = t_[i + 2].text;
      if (m == "push_back" || m == "emplace_back" || m == "resize" ||
          m == "reserve" || m == "insert" || m == "erase" ||
          m == "pop_back" || m == "clear" || m == "assign" ||
          m == "shrink_to_fit") {
        last_realloc[t_[i].text] = i;
      }
    }

    for (std::size_t i = 0; i < t_.size(); ++i) {
      const Token& tok = t_[i];
      if (tok.is("{")) ++brace;
      else if (tok.is("}")) {
        --brace;
        live.erase(std::remove_if(live.begin(), live.end(),
                                  [&](const RefDecl& d) {
                                    return d.depth > brace;
                                  }),
                   live.end());
      } else if (tok.is("(")) ++paren;
      else if (tok.is(")")) --paren;
      else if (tok.is("[")) ++bracket;
      else if (tok.is("]")) --bracket;

      if (tok.ident("co_await")) {
        for (RefDecl& d : live) d.awaited = true;
        continue;
      }

      // `Type& name = …;` at statement level (outside parens/brackets, so
      // parameter default arguments and captures don't match).
      if (tok.is("&") && paren == 0 && bracket == 0 && i + 2 < t_.size() &&
          i > 0 && t_[i - 1].kind == TokKind::Ident &&
          !t_[i - 1].ident("operator") && !t_[i - 1].ident("return") &&
          t_[i + 1].kind == TokKind::Ident && t_[i + 2].is("=")) {
        // Initializer runs to the statement's `;`. The reference is a
        // hazard only when it aliases a vector element (vec[i] / .front()
        // / .back() / .at(i)) of a known std::vector.
        std::string vec;
        int p = 0;
        for (std::size_t j = i + 3; j < t_.size(); ++j) {
          if (t_[j].is("(")) ++p;
          else if (t_[j].is(")")) --p;
          else if (t_[j].is(";") && p <= 0) break;
          if (t_[j].kind != TokKind::Ident) continue;
          if (index_.vector_names.count(t_[j].text) == 0) continue;
          if (j + 1 >= t_.size()) continue;
          if (t_[j + 1].is("[")) {
            vec = t_[j].text;
            break;
          }
          if ((t_[j + 1].is(".") || t_[j + 1].is("->")) &&
              j + 3 < t_.size() && t_[j + 3].is("(") &&
              (t_[j + 2].ident("front") || t_[j + 2].ident("back") ||
               t_[j + 2].ident("at"))) {
            vec = t_[j].text;
            break;
          }
        }
        const auto realloc_it = last_realloc.find(vec);
        if (!vec.empty() && realloc_it != last_realloc.end() &&
            realloc_it->second > i) {
          live.push_back({t_[i + 1].text, vec, brace, t_[i + 1].line, false,
                          false});
          ++i;  // skip the name so it does not count as a use
        }
        continue;
      }

      if (tok.kind == TokKind::Ident) {
        for (RefDecl& d : live) {
          if (d.reported || !d.awaited || d.name != tok.text) continue;
          d.reported = true;
          add(d.line, "ref-across-suspend",
              "reference `" + d.name + "` into vector `" + d.vec +
                  "` is used after a co_await (line " +
                  std::to_string(tok.line) +
                  ") — a reallocation during the suspension invalidates "
                  "it; re-index after resuming or copy the element");
        }
      }
    }
  }

  // ---- nondet-source -----------------------------------------------------
  void rule_nondet_source() {
    if (ends_with(path_, "common/rng.hpp") || ends_with(path_, "common/rng.cpp")) {
      return;  // the one blessed home of entropy plumbing
    }
    for (std::size_t i = 0; i < t_.size(); ++i) {
      if (t_[i].kind != TokKind::Ident) continue;
      std::string what;
      bool is_rng = false;
      if (!nondet_source_at(t_, i, what, is_rng)) continue;
      add(t_[i].line, "nondet-source",
          "nondeterminism source `" + what +
              "` outside common::Rng — runs must be pure functions of "
              "(spec, seed); draw from the run's Rng, or suppress "
              "(simlint:allow) for deliberate host-side wall-clock "
              "measurement");
    }
  }

  // ---- unordered-iter-output ---------------------------------------------
  void rule_unordered_iter_output() {
    for (std::size_t i = 0; i + 1 < t_.size(); ++i) {
      if (!t_[i].ident("for") || !t_[i + 1].is("(")) continue;
      const std::size_t close = match_paren(t_, i + 1);
      if (close == kNpos) continue;
      // Range-for separator: a `:` at paren depth 1 (`::` is one token and
      // never matches).
      std::size_t colon = kNpos;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (t_[j].is("(")) ++depth;
        else if (t_[j].is(")")) --depth;
        else if (t_[j].is(":") && depth == 1) {
          colon = j;
          break;
        }
      }
      if (colon == kNpos) continue;
      std::string container;
      for (std::size_t j = colon + 1; j < close && container.empty(); ++j) {
        if (t_[j].kind == TokKind::Ident &&
            index_.unordered_names.count(t_[j].text) != 0) {
          container = t_[j].text;
        }
      }
      if (container.empty()) continue;
      // Loop body: braced block or single statement.
      std::size_t body_lo = close + 1;
      std::size_t body_hi;
      if (body_lo < t_.size() && t_[body_lo].is("{")) {
        body_hi = match_brace(t_, body_lo);
        if (body_hi == kNpos) continue;
      } else {
        body_hi = body_lo;
        int p = 0;
        while (body_hi < t_.size()) {
          if (t_[body_hi].is("(")) ++p;
          else if (t_[body_hi].is(")")) --p;
          else if (t_[body_hi].is(";") && p <= 0) break;
          ++body_hi;
        }
      }
      bool emits = false;
      for (std::size_t j = body_lo; j < body_hi && !emits; ++j) {
        emits = t_[j].is("<<") || t_[j].ident("printf") ||
                t_[j].ident("fprintf") || t_[j].ident("snprintf") ||
                t_[j].ident("sprintf") || t_[j].ident("fputs") ||
                t_[j].ident("fputc") || t_[j].ident("puts");
      }
      if (!emits) continue;
      add(t_[i].line, "unordered-iter-output",
          "iteration over unordered container `" + container +
              "` feeds output — hash order is nondeterministic across "
              "libraries and runs; collect into a vector, sort, then emit");
    }
  }

  // ---- ordered-ptr-key ---------------------------------------------------
  void rule_ordered_ptr_key() {
    for (std::size_t i = 2; i + 1 < t_.size(); ++i) {
      const std::string& name = t_[i].text;
      const bool is_map = name == "map" || name == "multimap";
      const bool is_set = name == "set" || name == "multiset";
      if (t_[i].kind != TokKind::Ident || (!is_map && !is_set)) continue;
      if (!t_[i - 1].is("::") || !t_[i - 2].ident("std")) continue;
      if (!t_[i + 1].is("<")) continue;
      const std::size_t close = match_angle(t_, i + 1);
      if (close == kNpos) continue;
      // Walk top-level template arguments: pointer-ness of the first,
      // count of all (an explicit comparator is the sanctioned fix).
      int depth = 0, parens = 0;
      int args = 1;
      bool ptr_key = false;
      for (std::size_t j = i + 1; j < close; ++j) {
        const Token& tok = t_[j];
        if (tok.is("(")) ++parens;
        else if (tok.is(")")) --parens;
        if (parens > 0) continue;
        if (tok.is("<")) ++depth;
        else if (tok.is(">")) --depth;
        else if (tok.is(">>")) depth -= 2;
        else if (tok.is(",") && depth == 1) ++args;
        else if (args == 1 && depth >= 1 &&
                 (tok.is("*") || tok.ident("shared_ptr") ||
                  tok.ident("unique_ptr"))) {
          ptr_key = true;
        }
      }
      const bool has_comparator = args >= (is_map ? 3 : 2);
      if (!ptr_key || has_comparator) continue;
      add(t_[i].line, "ordered-ptr-key",
          "std::" + name +
              " keyed on a pointer orders by address — allocation order "
              "differs run to run; key on a stable id, or supply a "
              "comparator over pointee identity");
    }
  }

  // ---- impure-listener ---------------------------------------------------
  void rule_impure_listener() {
    // In-class bodies of observer-derived classes.
    for (std::size_t i = 0; i + 1 < t_.size(); ++i) {
      if (!(t_[i].ident("class") || t_[i].ident("struct"))) continue;
      if (t_[i + 1].kind != TokKind::Ident) continue;
      if (index_.observer_classes.count(t_[i + 1].text) == 0) continue;
      std::size_t j = i + 2;
      while (j < t_.size() && !t_[j].is("{") && !t_[j].is(";")) ++j;
      if (j >= t_.size() || t_[j].is(";")) continue;  // forward declaration
      const std::size_t body_close = match_brace(t_, j);
      if (body_close == kNpos) continue;
      scan_observer_span(j + 1, body_close);
      i = j;  // methods inside are found by the span scan
    }
    // Out-of-line `Class::on_*(…) { … }` definitions.
    for (std::size_t i = 0; i + 3 < t_.size(); ++i) {
      if (t_[i].kind != TokKind::Ident ||
          index_.observer_classes.count(t_[i].text) == 0 ||
          !t_[i + 1].is("::") || t_[i + 2].kind != TokKind::Ident ||
          !starts_with(t_[i + 2].text, "on_") || !t_[i + 3].is("(")) {
        continue;
      }
      scan_method_at(i + 2);
    }
    // RegionObserver is a std::function seam: lambdas appended to a
    // RunContext's `region_observers` are listener bodies too.
    for (std::size_t i = 0; i + 3 < t_.size(); ++i) {
      if (!t_[i].ident("region_observers") || !t_[i + 1].is(".") ||
          !(t_[i + 2].ident("push_back") || t_[i + 2].ident("emplace_back")) ||
          !t_[i + 3].is("(")) {
        continue;
      }
      const std::size_t close = match_paren(t_, i + 3);
      if (close == kNpos) continue;
      for (std::size_t j = i + 4; j < close; ++j) {
        if (!t_[j].is("[")) continue;
        const LambdaShape shape = parse_lambda(t_, j);
        if (shape.body_open == kNpos) continue;
        scan_listener_body(shape.body_open + 1, shape.body_close);
        j = shape.body_close;
      }
    }
  }

  /// Finds `on_*( … ) … { … }` methods inside a class-body span.
  void scan_observer_span(std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (t_[i].kind == TokKind::Ident && starts_with(t_[i].text, "on_") &&
          i + 1 < hi && t_[i + 1].is("(")) {
        scan_method_at(i);
      }
    }
  }

  /// `i` at the `on_*` name of a method whose parameter list follows;
  /// scans its body if it has one (declarations are skipped).
  void scan_method_at(std::size_t i) {
    const std::size_t params_close = match_paren(t_, i + 1);
    if (params_close == kNpos) return;
    std::size_t k = params_close + 1;
    while (k < t_.size() &&
           (t_[k].kind == TokKind::Ident || t_[k].is("&") || t_[k].is("&&"))) {
      ++k;  // const / override / final / noexcept / ref-qualifiers
    }
    if (k >= t_.size() || !t_[k].is("{")) return;  // declaration or =0/=default
    const std::size_t body_close = match_brace(t_, k);
    if (body_close == kNpos) return;
    scan_listener_body(k + 1, body_close);
  }

  void scan_listener_body(std::size_t lo, std::size_t hi) {
    static const std::set<std::string> kBannedCalls = {
        "spawn",          "schedule",       "schedule_at",
        "schedule_after", "schedule_cancellable_at",
        "delay",          "set_span_sink",  "set_observer",
        "set_fault_model", "fire",
    };
    for (std::size_t j = lo; j < hi; ++j) {
      if (t_[j].kind != TokKind::Ident) continue;
      const std::string& name = t_[j].text;
      if (kBannedCalls.count(name) != 0 && j + 1 < hi && t_[j + 1].is("(")) {
        add(t_[j].line, "impure-listener",
            "listener seam calls `" + name +
                "` — observers are pure: they may record into their own "
                "state but never schedule work or rewire the simulation");
        continue;
      }
      if (starts_with(name, "g_")) {
        const Token* prev = prev_tok(j);
        const bool inc_dec =
            (prev != nullptr && (prev->is("++") || prev->is("--"))) ||
            (j + 1 < hi && (t_[j + 1].is("++") || t_[j + 1].is("--")));
        const bool assign =
            j + 1 < hi &&
            (t_[j + 1].is("=") || t_[j + 1].is("+=") || t_[j + 1].is("-=") ||
             t_[j + 1].is("*=") || t_[j + 1].is("/=") || t_[j + 1].is("&=") ||
             t_[j + 1].is("|=") || t_[j + 1].is("^="));
        if (inc_dec || assign) {
          add(t_[j].line, "impure-listener",
              "listener seam writes global `" + name +
                  "` — observers run on pool threads during parallel "
                  "sweeps; shared mutable state breaks byte-identity");
        }
      }
    }
  }

  const std::string& path_;
  const Toks& t_;
  const ProjectIndex& index_;
  std::vector<Finding> findings_;
};

}  // namespace

const std::vector<RuleInfo>& rule_catalogue() { return kCatalogue; }

bool known_rule(const std::string& id) {
  for (const RuleInfo& r : kCatalogue) {
    if (r.id == id) return true;
  }
  return false;
}

void index_file(const LexedFile& file, ProjectIndex& index) {
  const Toks& t = file.tokens;

  // Aliases first so `using Histo = std::unordered_map<…>; Histo h;`
  // resolves within one pass over this file.
  std::set<std::string> local_unordered_aliases;
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (!t[i].ident("using") || t[i + 1].kind != TokKind::Ident ||
        !t[i + 2].is("=")) {
      continue;
    }
    for (std::size_t j = i + 3; j < t.size() && !t[j].is(";"); ++j) {
      if (t[j].kind == TokKind::Ident && is_unordered_kind(t[j].text)) {
        local_unordered_aliases.insert(t[i + 1].text);
        break;
      }
    }
  }

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind != TokKind::Ident) continue;

    // Task/CoTask-returning functions: `CoTask<…> name(` / `Task name(`
    // (qualified out-of-line definitions `CoTask<…> Class::name(` index
    // under the final name, which is what call sites use).
    if (tok.text == "CoTask" && i + 1 < t.size() && t[i + 1].is("<")) {
      const std::size_t close = match_angle(t, i + 1);
      if (close == kNpos) continue;
      std::size_t name_at = close + 1;
      if (name_at >= t.size() || t[name_at].kind != TokKind::Ident) continue;
      while (name_at + 2 < t.size() && t[name_at + 1].is("::") &&
             t[name_at + 2].kind == TokKind::Ident) {
        name_at += 2;
      }
      if (name_at + 1 >= t.size() || !t[name_at + 1].is("(")) continue;
      index.task_functions.insert(t[name_at].text);
      continue;
    }
    if (tok.text == "Task" && i + 2 < t.size() &&
        t[i + 1].kind == TokKind::Ident && t[i + 2].is("(")) {
      index.task_functions.insert(t[i + 1].text);
      continue;
    }

    // Observer-derived classes: base list between `:` and `{` names
    // CommObserver or SpanSink.
    if ((tok.text == "class" || tok.text == "struct") && i + 1 < t.size() &&
        t[i + 1].kind == TokKind::Ident) {
      std::size_t j = i + 2;
      std::size_t colon = kNpos;
      while (j < t.size() && !t[j].is("{") && !t[j].is(";")) {
        if (t[j].is(":") && colon == kNpos) colon = j;
        ++j;
      }
      if (colon != kNpos && j < t.size() && t[j].is("{")) {
        for (std::size_t b = colon + 1; b < j; ++b) {
          if (t[b].ident("CommObserver") || t[b].ident("SpanSink")) {
            index.observer_classes.insert(t[i + 1].text);
            break;
          }
        }
      }
      continue;
    }

    // Variables (locals and members) of unordered-container or vector type.
    const bool unordered =
        is_unordered_kind(tok.text) || local_unordered_aliases.count(tok.text);
    const bool vector = tok.text == "vector";
    if (!unordered && !vector) continue;
    std::size_t after = i + 1;
    if (after < t.size() && t[after].is("<")) {
      const std::size_t close = match_angle(t, after);
      if (close == kNpos) continue;
      after = close + 1;
    } else if (is_unordered_kind(tok.text) || vector) {
      continue;  // the std name without template args is not a declaration
    }
    while (after < t.size() && (t[after].is("&") || t[after].is("*"))) {
      ++after;
    }
    if (after + 1 >= t.size() || t[after].kind != TokKind::Ident) continue;
    const Token& terminator = t[after + 1];
    if (!(terminator.is(";") || terminator.is("=") || terminator.is("{") ||
          terminator.is("(") || terminator.is(","))) {
      continue;
    }
    if (unordered) index.unordered_names.insert(t[after].text);
    else index.vector_names.insert(t[after].text);
  }
}

std::vector<Finding> analyze_file(const std::string& path,
                                  const LexedFile& file,
                                  const ProjectIndex& index) {
  return Analyzer(path, file.tokens, index).run();
}

}  // namespace columbia::simlint
