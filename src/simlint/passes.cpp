#include "simlint/passes.hpp"

#include <algorithm>
#include <set>

namespace columbia::simlint {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Handler-reachability for one pass: BFS over resolved call edges from
/// every handler (Task/CoTask, coroutine lambda or engine callback
/// target), refusing to enter (or report) functions
/// seam-annotated for `rule`. parent[i] reconstructs one witness chain;
/// root[i] is the handler that first reached i. Deterministic: handlers
/// in index order, callees in name order, targets in index order.
struct Reach {
  std::vector<std::size_t> parent;
  std::vector<std::size_t> root;
  std::vector<bool> visited;
};

Reach reach_from_handlers(const EffectIndex& index, const std::string& rule) {
  Reach r;
  r.parent.assign(index.functions.size(), kNone);
  r.root.assign(index.functions.size(), kNone);
  r.visited.assign(index.functions.size(), false);
  std::vector<std::size_t> queue;
  for (std::size_t i = 0; i < index.functions.size(); ++i) {
    const FunctionSummary& fn = index.functions[i];
    if (!fn.is_handler || fn.seamed_for(rule)) continue;
    r.visited[i] = true;
    r.root[i] = i;
    queue.push_back(i);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t at = queue[head];
    for (const std::string& callee : index.functions[at].callees) {
      const auto it = index.by_name.find(callee);
      if (it == index.by_name.end()) continue;
      for (const std::size_t target : it->second) {
        if (r.visited[target]) continue;
        if (index.functions[target].seamed_for(rule)) continue;
        r.visited[target] = true;
        r.parent[target] = at;
        r.root[target] = r.root[at];
        queue.push_back(target);
      }
    }
  }
  return r;
}

/// "`handler` -> `hop` -> `sink`" witness text, elided in the middle when
/// the chain is long.
std::string witness_chain(const EffectIndex& index, const Reach& r,
                          std::size_t sink) {
  std::vector<std::string> names;
  for (std::size_t at = sink; at != kNone; at = r.parent[at]) {
    names.push_back(index.functions[at].qualified);
    if (names.size() > 16) break;  // cycles cannot happen; belt and braces
  }
  std::reverse(names.begin(), names.end());
  std::string out;
  if (names.size() > 4) {
    out = "`" + names.front() + "` -> ... -> `" + names[names.size() - 2] +
          "` -> `" + names.back() + "`";
  } else {
    for (std::size_t i = 0; i < names.size(); ++i) {
      out += (i ? " -> " : "") + ("`" + names[i] + "`");
    }
  }
  return out;
}

void pass_cross_rank(const EffectIndex& index, std::vector<Finding>& out) {
  const Reach r = reach_from_handlers(index, "cross-rank-shared-mutable");
  for (std::size_t i = 0; i < index.functions.size(); ++i) {
    if (!r.visited[i]) continue;
    const FunctionSummary& fn = index.functions[i];
    std::set<std::string> seen;
    for (const GlobalUse& use : fn.global_uses) {
      if (!seen.insert(use.name).second) continue;
      const std::string kind =
          use.local_static ? "function-local mutable static" : "process-global";
      out.push_back(
          {fn.file, use.line, "cross-rank-shared-mutable",
           "`" + fn.qualified + "` " + (use.write ? "writes " : "reads ") +
               kind + " `" + use.name +
               "` and is reachable from an event handler (" +
               witness_chain(index, r, i) +
               ") — cross-rank shared mutable state races once ranks or "
               "runs share host threads; make it rank-local, guard "
               "it, or sanction it with `simlint:seam("
               "cross-rank-shared-mutable): <why>` on the definition"});
    }
  }
}

void pass_nondet_interprocedural(const EffectIndex& index,
                                 std::vector<Finding>& out) {
  const Reach r = reach_from_handlers(index, "nondet-interprocedural");
  for (std::size_t i = 0; i < index.functions.size(); ++i) {
    if (!r.visited[i]) continue;
    const FunctionSummary& fn = index.functions[i];
    if (fn.nondet_sites.empty()) continue;
    const EffectSite& site = fn.nondet_sites.front();
    out.push_back(
        {fn.file, site.line, "nondet-interprocedural",
         "`" + fn.qualified + "` draws from `" + site.what +
             "` and is reachable from an event handler (" +
             witness_chain(index, r, i) +
             ") — simulation results must be pure functions of (spec, "
             "seed); plumb the run's Rng/virtual clock through, or "
             "sanction with `simlint:seam(nondet-interprocedural): <why>`"});
  }
}

}  // namespace

std::vector<Finding> run_effect_passes(const EffectIndex& index) {
  std::vector<Finding> out;
  pass_cross_rank(index, out);
  pass_nondet_interprocedural(index, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace columbia::simlint
