#include "core/evaluator.hpp"

#include <chrono>
#include <exception>
#include <memory>

#include "core/experiment.hpp"
#include "machine/transport.hpp"
#include "sim/run_context.hpp"
#include "simcheck/checker.hpp"
#include "simprof/profiler.hpp"

namespace columbia::core {

EvalResult Evaluator::evaluate(const ScenarioSpec& spec,
                               const EvalOptions& opts) const {
  EvalResult result;
  result.spec_hash = spec.hash();

  const Experiment* exp = find_experiment(spec.experiment);
  if (exp == nullptr) {
    result.error = "unknown experiment id: " + spec.experiment;
    return result;
  }
  sim::RunContext ctx;
  std::string terr;
  if (!machine::parse_transport(spec.transport, ctx.transport, terr)) {
    result.error = terr;
    return result;
  }
  std::shared_ptr<simcheck::CheckSink> check;
  std::shared_ptr<simprof::ProfileSink> profile;
  std::shared_ptr<simfault::FaultSink> faults;
  if (spec.check) check = simcheck::arm_check(ctx);
  if (spec.profile) {
    simprof::ProfileOptions popts;
    popts.retain_timeline = opts.retain_timeline;
    profile = simprof::arm_profile(ctx, popts);
  }
  if (spec.faults) {
    faults = simfault::arm_faults(
        ctx, simfault::FaultSpec::uniform(spec.fault_seed,
                                          spec.fault_intensity));
  }

  try {
    const sim::RunScope scope(ctx);
    // simlint:allow(nondet-source) — host-side serving latency, never
    // simulation state; report bytes stay (spec)-pure.
    const auto t0 = std::chrono::steady_clock::now();
    result.data = exp->run_exec(opts.exec);
    // simlint:allow(nondet-source) — see above
    const auto t1 = std::chrono::steady_clock::now();
    result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    // The exact bytes run_experiment prints for one id: header, blank
    // line, rendered report, trailing newline.
    result.report = "### " + exp->id + " — " + exp->paper_ref + "\n### " +
                    exp->title + "\n\n" + result.data.render() + "\n";
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = std::string("evaluation failed: ") + e.what();
    return result;
  }
  result.events = ctx.events.load(std::memory_order_relaxed);

  if (check) {
    const auto report = check->take_report();
    result.check_report = report.render();
    result.check_json = report.to_json();
    result.check_clean = report.clean();
  }
  if (profile) {
    const auto report = profile->take_report();
    result.profile_report = report.render();
    result.profile_json = report.to_json();
    const auto trace = profile->take_trace();
    result.trace_valid = trace.valid;
    if (trace.valid) {
      result.trace_chrome_json = trace.chrome_json();
      result.trace_gantt_csv = trace.gantt_csv();
      result.trace_comm_csv = trace.comm_csv();
    }
  }
  if (faults) result.fault_stats = faults->take();
  return result;
}

}  // namespace columbia::core
