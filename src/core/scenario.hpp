#pragma once
/// \file scenario.hpp
/// Scenario decomposition of an experiment sweep.
///
/// Every experiment in the registry is a sweep over independent points —
/// (node type × CPU count × transport × ...) — where each point runs its
/// own `sim::Engine` or analytic model and produces a few numbers. A
/// `Scenario` is one such point as a closure; `run_scenarios` executes a
/// list of them either sequentially or over the host thread pool
/// (`common::parallel_for`) and returns results *ordered by index*, so the
/// assembled Report is byte-identical either way (pinned by tests).
///
/// Determinism contract for scenario closures:
///  * construct all simulation state (Cluster, Engine, Rng seeds) inside
///    the closure — capture only values, never shared mutable objects;
///  * all randomness must come from seeds fixed at closure build time.

#include <functional>
#include <string>
#include <vector>

namespace columbia::core {

/// Execution policy for a scenario sweep.
struct Exec {
  enum class Mode { Sequential, Parallel };
  Mode mode = Mode::Sequential;
  /// Worker count for Mode::Parallel; 0 = COLUMBIA_JOBS / host CPUs.
  int jobs = 0;

  static Exec sequential() { return {}; }
  static Exec parallel(int jobs = 0) { return {Mode::Parallel, jobs}; }
};

/// One independent sweep point. `run` returns the point's metric values;
/// the driver assembles them into tables/figures in scenario order.
struct Scenario {
  std::string label;  ///< e.g. "fig5/BX2b/64cpus", for logs and errors
  std::function<std::vector<double>()> run;
};

/// Runs all scenarios under `exec`; result i belongs to scenarios[i]
/// regardless of completion order. Exceptions propagate (lowest failing
/// index first in parallel mode). Every closure runs under the caller's
/// sim::RunContext, whichever thread runs it.
std::vector<std::vector<double>> run_scenarios(
    const std::vector<Scenario>& scenarios, const Exec& exec);

}  // namespace columbia::core
