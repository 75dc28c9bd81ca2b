#include "simlint/effects.hpp"

#include <algorithm>
#include <utility>

#include "simlint/tokwalk.hpp"

namespace columbia::simlint {

namespace {

/// Keywords that look like `name(…)` but never are a function name.
const std::set<std::string>& not_function_names() {
  static const std::set<std::string> kSet = {
      "if",     "while",    "for",      "switch",   "catch",    "return",
      "co_return", "co_await", "co_yield", "sizeof", "alignof", "new",
      "delete", "else",     "do",       "case",     "operator", "throw",
      "static_assert", "decltype", "noexcept", "alignas", "defined",
      "assert"};
  return kSet;
}

/// Keywords after which an `ident(` is still a call, not a declaration.
bool call_preceding_keyword(const Token& tok) {
  return tok.ident("return") || tok.ident("co_return") ||
         tok.ident("co_await") || tok.ident("co_yield") ||
         tok.ident("throw") || tok.ident("else") || tok.ident("do") ||
         tok.ident("case");
}

/// World APIs that schedule work or rewire the simulation — the
/// touches-world-state effect (same set the impure-listener rule bans).
bool world_state_call(const std::string& name) {
  static const std::set<std::string> kSet = {
      "spawn",         "schedule",       "schedule_at",
      "schedule_after", "schedule_cancellable_at",
      "delay",         "fire",           "set_span_sink",
      "set_observer",  "set_fault_model"};
  return kSet.count(name) != 0;
}

/// Member calls that mutate their receiver (for classifying `g_x.foo()`
/// as a write).
bool mutating_member(const std::string& name) {
  static const std::set<std::string> kSet = {
      "push_back", "emplace_back", "emplace", "insert", "erase", "clear",
      "resize",    "reserve",      "assign",  "pop_back", "store",
      "fetch_add", "fetch_sub",    "exchange", "compare_exchange_weak",
      "compare_exchange_strong",   "reset",   "swap"};
  return kSet.count(name) != 0;
}

bool assignment_op(const Token& tok) {
  return tok.is("=") || tok.is("+=") || tok.is("-=") || tok.is("*=") ||
         tok.is("/=") || tok.is("%=") || tok.is("&=") || tok.is("|=") ||
         tok.is("^=") || tok.is("<<=") || tok.is(">>=");
}

/// A class-body span, for qualifying in-class members and recognizing
/// constructors.
struct ClassSpan {
  std::string name;
  std::size_t open;   ///< `{`
  std::size_t close;  ///< matching `}`
};

std::vector<ClassSpan> class_spans(const Toks& t) {
  std::vector<ClassSpan> spans;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!(t[i].ident("class") || t[i].ident("struct"))) continue;
    if (i > 0 && t[i - 1].ident("enum")) continue;  // enum class
    if (t[i + 1].kind != TokKind::Ident) continue;
    std::size_t j = i + 2;
    while (j < t.size() && !t[j].is("{") && !t[j].is(";")) ++j;
    if (j >= t.size() || t[j].is(";")) continue;  // forward declaration
    const std::size_t close = match_brace(t, j);
    if (close == kNpos) continue;
    spans.push_back({t[i + 1].text, j, close});
  }
  return spans;
}

const ClassSpan* enclosing_class(const std::vector<ClassSpan>& spans,
                                 std::size_t i) {
  const ClassSpan* best = nullptr;
  for (const ClassSpan& s : spans) {
    if (i <= s.open || i >= s.close) continue;
    if (best == nullptr || s.close - s.open < best->close - best->open) {
      best = &s;
    }
  }
  return best;
}

/// Walks the trailing specifiers after a parameter list (`const`,
/// `noexcept(…)`, `-> Ret`, attributes, and — for constructors — a member
/// init list) to the body `{`. Returns kNpos when this is a declaration
/// (`;`), a deleted/defaulted definition (`=`), or unparseable.
std::size_t body_open_after_params(const Toks& t, std::size_t params_close,
                                   bool allow_init_list) {
  std::size_t k = params_close + 1;
  while (k < t.size() && !t[k].is("{")) {
    const Token& tok = t[k];
    if (tok.kind == TokKind::Ident || tok.is("->") || tok.is("::") ||
        tok.is("&") || tok.is("&&") || tok.is("*")) {
      ++k;
    } else if (tok.is("(")) {
      const std::size_t p = match_paren(t, k);
      if (p == kNpos) return kNpos;
      k = p + 1;
    } else if (tok.is("<")) {
      const std::size_t a = match_angle(t, k);
      if (a == kNpos) return kNpos;
      k = a + 1;
    } else if (tok.is("[") && k + 1 < t.size() && t[k + 1].is("[")) {
      const std::size_t b = match_bracket(t, k);
      if (b == kNpos) return kNpos;
      k = b + 1;
    } else if (tok.is(":") && allow_init_list) {
      // Constructor init list: `name(args)`/`name{args}` groups separated
      // by commas, then the body brace.
      ++k;
      while (k < t.size()) {
        // Qualified / templated member or base name.
        while (k < t.size() &&
               (t[k].kind == TokKind::Ident || t[k].is("::"))) {
          ++k;
        }
        if (k < t.size() && t[k].is("<")) {
          const std::size_t a = match_angle(t, k);
          if (a == kNpos) return kNpos;
          k = a + 1;
        }
        if (k >= t.size()) return kNpos;
        if (t[k].is("(")) {
          const std::size_t p = match_paren(t, k);
          if (p == kNpos) return kNpos;
          k = p + 1;
        } else if (t[k].is("{")) {
          const std::size_t b = match_brace(t, k);
          if (b == kNpos) return kNpos;
          k = b + 1;
        } else {
          return kNpos;
        }
        if (k < t.size() && t[k].is(",")) {
          ++k;
          continue;
        }
        break;
      }
      if (k < t.size() && t[k].is("{")) return k;
      return kNpos;
    } else {
      return kNpos;
    }
  }
  return k < t.size() ? k : kNpos;
}

/// One discovered definition, before its body has been scanned.
struct FnDef {
  FunctionSummary summary;
  std::size_t sig_start = 0;   ///< first token of the declaration
  std::size_t body_open = 0;   ///< `{`
  std::size_t body_close = 0;  ///< matching `}`
  int sig_line = 0;            ///< line of sig_start (for seam attachment)
};

/// Carved coroutine-lambda span (its tokens belong to the lambda's own
/// summary, not the lexically enclosing function's).
struct LambdaSpan {
  std::size_t intro;  ///< `[`
  std::size_t body_open;
  std::size_t body_close;
};

std::vector<LambdaSpan> coroutine_lambda_spans(const Toks& t) {
  std::vector<LambdaSpan> spans;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!lambda_introducer(t, i)) continue;
    const LambdaShape shape = parse_lambda(t, i);
    if (shape.body_open == kNpos) continue;
    const bool coro =
        span_contains_ident(t, shape.body_open, shape.body_close,
                            "co_await") ||
        span_contains_ident(t, shape.body_open, shape.body_close,
                            "co_return") ||
        span_contains_ident(t, shape.body_open, shape.body_close, "co_yield");
    if (!coro) continue;
    spans.push_back({i, shape.body_open, shape.body_close});
  }
  return spans;
}

/// Scans [lo, hi) for direct effects, skipping carved lambda sub-spans.
/// `skip` holds spans (body_open, body_close) to jump over.
class EffectScanner {
 public:
  EffectScanner(const std::string& label, const Toks& t,
                const std::vector<LambdaSpan>& skip)
      : label_(label), t_(t), skip_(skip),
        rng_home_(ends_with(label, "common/rng.hpp") ||
                  ends_with(label, "common/rng.cpp")) {}

  void scan(std::size_t lo, std::size_t hi, FunctionSummary& fn) const {
    for (std::size_t i = lo; i < hi; ++i) {
      // Jump over carved coroutine lambdas: their effects belong to the
      // lambda's own summary. (Spans strictly inside [lo, hi) only — the
      // lambda being scanned is not in its own skip set because its body
      // brace sits exactly at lo - 1.)
      bool skipped = false;
      for (const LambdaSpan& s : skip_) {
        if (s.body_open >= lo && s.body_open == i) {
          i = s.body_close;  // loop ++i moves past it
          skipped = true;
          break;
        }
      }
      if (skipped) continue;
      const Token& tok = t_[i];
      if (tok.kind != TokKind::Ident) continue;
      const std::string& name = tok.text;

      // Function-local mutable static: shared across every rank and every
      // run in the process.
      if (name == "static" && i + 1 < hi) {
        scan_local_static(i, hi, fn);
        continue;
      }

      // Process-global by convention.
      if (starts_with(name, "g_") && name.size() > 2) {
        GlobalUse use;
        use.name = name;
        use.line = tok.line;
        use.write = global_write_at(i, hi);
        fn.global_uses.push_back(use);
        fn.direct |= use.write ? (kEffWritesGlobal | kEffReadsGlobal)
                               : kEffReadsGlobal;
        continue;
      }

      // Nondeterminism sources (shared matcher; common/rng.* is the one
      // blessed home of entropy plumbing, same as the local rule).
      if (!rng_home_) {
        std::string what;
        bool is_rng = false;
        if (nondet_source_at(t_, i, what, is_rng)) {
          fn.direct |= is_rng ? kEffRng : kEffWallClock;
          fn.nondet_sites.push_back({what, tok.line});
          continue;
        }
      }

      if (i + 1 >= hi || !t_[i + 1].is("(")) continue;
      const Token* prev = i > 0 ? &t_[i - 1] : nullptr;
      const bool decl_position = prev != nullptr &&
                                 prev->kind == TokKind::Ident &&
                                 !call_preceding_keyword(*prev);

      if (world_state_call(name) && !decl_position) {
        fn.direct |= kEffWorldState;
        fn.callees.insert(name);
        continue;
      }

      // Plain call edge: `name(` where the previous token does not make
      // this a declaration, and the name is not a statement keyword.
      if (decl_position) continue;
      if (not_function_names().count(name) != 0) continue;
      fn.callees.insert(name);
    }
  }

 private:
  void scan_local_static(std::size_t i, std::size_t hi,
                         FunctionSummary& fn) const {
    bool immutable = false;
    std::string var;
    int line = t_[i].line;
    for (std::size_t j = i + 1; j < hi; ++j) {
      const Token& tok = t_[j];
      if (tok.is(";") || tok.is("=") || tok.is("(") || tok.is("{")) break;
      if (tok.ident("const") || tok.ident("constexpr")) immutable = true;
      if (tok.kind == TokKind::Ident) var = tok.text;
      if (tok.is("<")) {
        const std::size_t a = match_angle(t_, j);
        if (a == kNpos || a >= hi) break;
        j = a;  // template arguments are not the variable name
      }
    }
    if (immutable || var.empty() || var == "static") return;
    GlobalUse use;
    use.name = var;
    use.line = line;
    use.write = true;  // defining shared mutable state counts as a write
    use.local_static = true;
    fn.global_uses.push_back(use);
    fn.direct |= kEffWritesGlobal | kEffReadsGlobal;
  }

  bool global_write_at(std::size_t i, std::size_t hi) const {
    if (i > 0 && (t_[i - 1].is("++") || t_[i - 1].is("--"))) return true;
    if (i + 1 >= hi) return false;
    const Token& next = t_[i + 1];
    if (next.is("++") || next.is("--") || assignment_op(next)) return true;
    // `g_x.store(…)` / `g_x->push_back(…)` / indexed assignment.
    if ((next.is(".") || next.is("->")) && i + 3 < hi &&
        t_[i + 2].kind == TokKind::Ident && t_[i + 3].is("(") &&
        mutating_member(t_[i + 2].text)) {
      return true;
    }
    if (next.is("[")) {
      const std::size_t close = match_bracket(t_, i + 1);
      if (close != kNpos && close + 1 < hi && assignment_op(t_[close + 1])) {
        return true;
      }
    }
    return false;
  }

  const std::string& label_;
  const Toks& t_;
  const std::vector<LambdaSpan>& skip_;
  const bool rng_home_;
};

/// True when the declaration tokens before the name chain (walked
/// backwards from `chain_start`) name a Task/CoTask return type. Also
/// reports where the signature starts, for seam-comment attachment.
bool returns_task(const Toks& t, std::size_t chain_start,
                  std::size_t& sig_start) {
  bool task = false;
  std::size_t j = chain_start;
  sig_start = chain_start;
  while (j > 0) {
    const Token& tok = t[j - 1];
    const bool type_ish = tok.kind == TokKind::Ident || tok.is("::") ||
                          tok.is("<") || tok.is(">") || tok.is(">>") ||
                          tok.is("&") || tok.is("*") || tok.is(",") ||
                          tok.kind == TokKind::Number;
    if (!type_ish) break;
    if (tok.ident("Task") || tok.ident("CoTask")) task = true;
    --j;
    sig_start = j;
    if (chain_start - j > 40) break;  // bounded: signatures are short
  }
  return task;
}

}  // namespace

std::vector<std::string> effect_names(unsigned mask) {
  static const std::pair<unsigned, const char*> kNames[] = {
      {kEffWritesGlobal, "writes-global"},
      {kEffReadsGlobal, "reads-global"},
      {kEffWorldState, "touches-world-state"},
      {kEffWallClock, "wall-clock"},
      {kEffRng, "rng"},
  };
  std::vector<std::string> out;
  for (const auto& [bit, name] : kNames) {
    if (mask & bit) out.emplace_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void collect_effects(const std::string& label, const LexedFile& file,
                     EffectIndex& index) {
  const Toks& t = file.tokens;
  const std::vector<ClassSpan> classes = class_spans(t);
  const std::vector<LambdaSpan> lambdas = coroutine_lambda_spans(t);
  const EffectScanner scanner(label, t, lambdas);

  std::vector<FnDef> defs;

  // Named function definitions (free, member, out-of-line, ctor/dtor).
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::Ident || !t[i + 1].is("(")) continue;
    if (not_function_names().count(t[i].text) != 0) continue;

    // Walk the qualification chain back: `A::B::name` -> class prefix B,
    // the innermost, as the in-class definition would be named.
    std::size_t chain_start = i;
    std::string class_prefix;
    while (chain_start >= 2 && t[chain_start - 1].is("::") &&
           t[chain_start - 2].kind == TokKind::Ident) {
      if (class_prefix.empty()) class_prefix = t[chain_start - 2].text;
      chain_start -= 2;
    }

    const ClassSpan* cls = enclosing_class(classes, i);
    const Token* prev = chain_start > 0 ? &t[chain_start - 1] : nullptr;
    bool is_ctor = false;
    bool is_dtor = false;
    if (prev != nullptr && prev->is("~")) {
      is_dtor = true;
    }
    // Type-ish previous token marks an ordinary definition. Constructors
    // have no return type: at class scope the name must match the class.
    const bool type_prev =
        prev != nullptr &&
        (prev->kind == TokKind::Ident || prev->is(">") || prev->is("&") ||
         prev->is("*") || prev->is("::"));
    if (!type_prev && !is_dtor) {
      const std::string& owner =
          !class_prefix.empty() ? class_prefix
                                : (cls != nullptr ? cls->name : std::string());
      if (owner.empty() || t[i].text != owner) continue;
      is_ctor = true;
    }
    if (type_prev && prev->kind == TokKind::Ident &&
        (prev->ident("struct") || prev->ident("class") ||
         prev->ident("enum"))) {
      continue;  // `struct Name {` parsed elsewhere
    }

    const std::size_t params_close = match_paren(t, i + 1);
    if (params_close == kNpos) continue;
    const std::size_t body_open =
        body_open_after_params(t, params_close, is_ctor);
    if (body_open == kNpos) continue;
    const std::size_t body_close = match_brace(t, body_open);
    if (body_close == kNpos) continue;

    FnDef def;
    def.sig_start = chain_start;
    def.body_open = body_open;
    def.body_close = body_close;
    def.summary.name = t[i].text;
    const std::string owner =
        !class_prefix.empty() ? class_prefix
                              : (cls != nullptr ? cls->name : std::string());
    def.summary.qualified =
        owner.empty() ? t[i].text
                      : owner + "::" + (is_dtor ? "~" : "") + t[i].text;
    def.summary.file = label;
    def.summary.line = t[i].line;
    std::size_t sig_start = chain_start;
    def.summary.is_handler =
        !is_ctor && !is_dtor && returns_task(t, chain_start, sig_start);
    def.sig_line = t[sig_start].line;
    def.summary.is_coroutine =
        span_contains_ident(t, body_open, body_close, "co_await") ||
        span_contains_ident(t, body_open, body_close, "co_return") ||
        span_contains_ident(t, body_open, body_close, "co_yield");
    defs.push_back(std::move(def));
  }

  // Carved coroutine lambdas: each is a rank-program handler in its own
  // right (the dominant idiom: `w.run([&](Rank& r) -> CoTask<void> {…})`).
  for (const LambdaSpan& l : lambdas) {
    FnDef def;
    def.sig_start = l.intro;
    def.body_open = l.body_open;
    def.body_close = l.body_close;
    def.sig_line = t[l.intro].line;
    // Qualified under the lexically enclosing named definition when one
    // exists — that is what reports and witness chains print.
    std::string owner;
    for (const FnDef& named : defs) {
      if (l.intro > named.body_open && l.body_close < named.body_close) {
        owner = named.summary.qualified;  // innermost wins: defs are in
      }                                   // token order, outer first
    }
    const std::string tag = "<lambda:" + std::to_string(t[l.intro].line) + ">";
    def.summary.name = tag;  // no call site resolves to a lambda
    def.summary.qualified = owner.empty() ? tag : owner + "::" + tag;
    def.summary.file = label;
    def.summary.line = t[l.intro].line;
    def.summary.is_handler = true;
    def.summary.is_coroutine = true;
    def.summary.is_lambda = true;
    defs.push_back(std::move(def));
  }

  // Engine callback targets: `Callback::method<&A::B::name>` schedules
  // `B::name` as an event, a handler in its own right wherever it is
  // defined.
  for (std::size_t i = 0; i + 5 < t.size(); ++i) {
    if (!t[i].ident("Callback") || !t[i + 1].is("::") ||
        !t[i + 2].ident("method") || !t[i + 3].is("<") || !t[i + 4].is("&")) {
      continue;
    }
    std::string owner;
    std::string name;
    for (std::size_t j = i + 5; j < t.size() && t[j].kind == TokKind::Ident;
         j += 2) {
      owner = std::exchange(name, t[j].text);
      if (j + 1 >= t.size() || !t[j + 1].is("::")) break;
    }
    if (!name.empty()) {
      index.callback_roots.insert(owner.empty() ? name : owner + "::" + name);
    }
  }

  // Scan bodies (named functions skip carved lambda spans; lambdas skip
  // their own nested carved lambdas — the span list handles both).
  for (FnDef& def : defs) {
    scanner.scan(def.body_open + 1, def.body_close, def.summary);
  }

  // Seam annotations: `// simlint:seam(rule, …): rationale` on the line
  // of (or directly above) a definition's signature.
  std::set<int> code_lines;
  for (const Token& tok : t) code_lines.insert(tok.line);
  for (const Comment& c : file.comments) {
    std::string text = c.text;
    std::size_t at = text.find_first_not_of(" \t");
    if (at == std::string::npos) continue;
    text.erase(0, at);
    if (!starts_with(text, "simlint:seam(")) continue;
    const std::size_t open = std::string("simlint:seam").size();
    const std::size_t close = text.find(')', open);
    if (close == std::string::npos) {
      index.errors.push_back(label + ":" + std::to_string(c.line) +
                             ": unterminated simlint:seam annotation");
      continue;
    }
    std::set<std::string> rules;
    std::string cur;
    for (std::size_t k = open + 1; k <= close; ++k) {
      const char ch = text[k];
      if (ch == ',' || ch == ')') {
        if (!cur.empty()) rules.insert(cur);
        cur.clear();
      } else if (ch != ' ' && ch != '\t') {
        cur += ch;
      }
    }
    const std::string rationale = trim_rationale(text.substr(close + 1));
    bool bad = false;
    for (const std::string& r : rules) {
      if (r != "all" && r != "cross-rank-shared-mutable" &&
          r != "nondet-interprocedural") {
        index.errors.push_back(label + ":" + std::to_string(c.line) +
                               ": simlint:seam names unknown pass `" + r +
                               "`");
        bad = true;
      }
    }
    if (rules.empty()) {
      index.errors.push_back(label + ":" + std::to_string(c.line) +
                             ": simlint:seam names no pass");
      bad = true;
    }
    if (rationale.empty()) {
      index.errors.push_back(
          label + ":" + std::to_string(c.line) +
          ": simlint:seam needs a rationale after the rule list — a seam "
          "is a documented exemption, not a mute button");
      bad = true;
    }
    if (bad) continue;
    int target = c.line;
    if (code_lines.count(target) == 0) {
      const auto next = code_lines.upper_bound(target);
      if (next == code_lines.end()) {
        index.errors.push_back(label + ":" + std::to_string(c.line) +
                               ": simlint:seam attaches to no definition");
        continue;
      }
      target = *next;
    }
    bool attached = false;
    for (FnDef& def : defs) {
      if (target == def.sig_line || target == def.summary.line) {
        def.summary.seam_rules.insert(rules.begin(), rules.end());
        def.summary.seam_rationale = rationale;
        attached = true;
      }
    }
    if (!attached) {
      index.errors.push_back(
          label + ":" + std::to_string(c.line) +
          ": simlint:seam attaches to no function definition (put it on "
          "the line of, or directly above, the signature)");
    }
  }

  for (FnDef& def : defs) {
    std::sort(def.summary.global_uses.begin(), def.summary.global_uses.end());
    index.functions.push_back(std::move(def.summary));
  }
}

void finalize_effects(EffectIndex& index) {
  index.by_name.clear();
  for (std::size_t i = 0; i < index.functions.size(); ++i) {
    FunctionSummary& fn = index.functions[i];
    fn.effects = fn.direct;
    if (!fn.is_lambda) index.by_name[fn.name].push_back(i);
    if (index.callback_roots.count(fn.qualified) != 0) fn.is_handler = true;
  }
  // Caller-ward fixpoint over resolved call edges: conservative (all
  // same-name definitions merge), monotone, bounded by bits × functions.
  bool changed = true;
  while (changed) {
    changed = false;
    for (FunctionSummary& fn : index.functions) {
      unsigned acc = fn.effects;
      for (const std::string& callee : fn.callees) {
        const auto it = index.by_name.find(callee);
        if (it == index.by_name.end()) continue;
        for (const std::size_t target : it->second) {
          acc |= index.functions[target].effects & kPropagatedEffects;
        }
      }
      if (acc != fn.effects) {
        fn.effects = acc;
        changed = true;
      }
    }
  }
}

const FunctionSummary* find_function(const EffectIndex& index,
                                     const std::string& qualified) {
  for (const FunctionSummary& fn : index.functions) {
    if (fn.qualified == qualified) return &fn;
  }
  return nullptr;
}

}  // namespace columbia::simlint
