#include "simserve/eval.hpp"

#include <memory>

#include "core/evaluator.hpp"
#include "core/experiment.hpp"

namespace columbia::simserve {

EvalFn registry_eval() {
  auto evaluator = std::make_shared<core::Evaluator>();
  return [evaluator](const core::ScenarioSpec& spec) {
    core::EvalOptions eopts;  // sequential; the pool provides parallelism
    const core::EvalResult r = evaluator->evaluate(spec, eopts);
    EvalOutcome out;
    out.ok = r.ok;
    out.error = r.error;
    out.report = r.report;
    out.events = r.events;
    out.wall_seconds = r.wall_seconds;
    out.check_clean = r.check_clean;
    if (spec.check) out.check_json = r.check_json;
    if (spec.profile) out.profile_json = r.profile_json;
    return out;
  };
}

std::vector<std::string> registry_ids() {
  std::vector<std::string> out;
  for (const auto& e : core::experiment_registry()) out.push_back(e.id);
  return out;
}

}  // namespace columbia::simserve
