#include "simserve/eval.hpp"

#include <memory>

#include "core/evaluator.hpp"
#include "core/experiment.hpp"
#include "machine/transport.hpp"
#include "simrace/explorer.hpp"

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
    if (!out.ok || !spec.race_explore) return out;

    // race_explore rides in the spec hash but core cannot run it (simrace
    // sits above core); this is the layer that can. Each explored
    // execution runs under its own RunContext, so exploration overlaps
    // other evaluations freely.
    const auto* exp = core::find_experiment(spec.experiment);
    simrace::ExploreOptions ropts;
    ropts.max_execs = spec.max_execs;
    std::string unused;  // evaluate() has already rejected a bad transport
    (void)machine::parse_transport(spec.transport, ropts.transport, unused);
    const auto result = simrace::explore(
        [exp] { return exp->run_exec(core::Exec::sequential()).render(); },
        ropts);
    out.races = static_cast<int>(result.divergences.size());
    out.race_summary = result.render(spec.experiment);
    return out;
  };
}

std::vector<std::string> registry_ids() {
  std::vector<std::string> out;
  for (const auto& e : core::experiment_registry()) out.push_back(e.id);
  return out;
}

}  // namespace columbia::simserve
