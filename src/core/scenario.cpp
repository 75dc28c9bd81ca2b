#include "core/scenario.hpp"

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "sim/run_context.hpp"

namespace columbia::core {

std::vector<std::vector<double>> run_scenarios(
    const std::vector<Scenario>& scenarios, const Exec& exec) {
  std::vector<std::vector<double>> results(scenarios.size());
  if (exec.mode == Exec::Mode::Sequential) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      COL_REQUIRE(static_cast<bool>(scenarios[i].run),
                  "scenario has no run closure");
      results[i] = scenarios[i].run();
    }
    return results;
  }
  // Pool workers run each closure under the caller's RunContext, so a
  // parallel sweep is armed exactly like a sequential one.
  sim::RunContext* ctx = sim::current_run_context();
  common::parallel_for(
      scenarios.size(),
      [&](std::size_t i) {
        const sim::RunScope scope(ctx);
        COL_REQUIRE(static_cast<bool>(scenarios[i].run),
                    "scenario has no run closure");
        results[i] = scenarios[i].run();
      },
      exec.jobs);
  return results;
}

}  // namespace columbia::core
