#pragma once
/// \file explorer.hpp
/// simrace: stateless model checking of wildcard-receive orderings.
///
/// A scenario under the deterministic engine is a pure function of its
/// spec — *one* admissible message ordering, fixed by arrival order. A
/// real machine may order differently wherever a `recv(kAny, ...)` had
/// more than one admissible sender, so simcheck's wildcard-race flag names
/// the hazard but not its consequence. The explorer answers the
/// consequence question: it replays the scenario, forcing each admissible
/// alternative sender at each wildcard decision through simmpi's
/// MatchPolicy seam, and hash-compares every completed execution (result
/// bytes + simcheck verdicts). A differing fingerprint is a *confirmed*
/// race — the program's observable output depends on arrival order — and
/// is reported with its forcing schedule for one-command replay.
///
/// Pruning (sleep-set / DPOR flavoured): executions only branch at
/// wildcard match decisions, because any two sends commute unless they can
/// match the same wildcard receive — per-(source, destination) message
/// order is program order, concrete-source receives have exactly one
/// admissible match, and the engine is otherwise deterministic. Within the
/// branch points, equal constraint sets reached by different derivation
/// orders collapse to one run via the canonical-schedule visited set.
/// Forced alternatives can be causally infeasible (the forced sender never
/// sends); those runs end in sim::DeadlockError and are counted as
/// infeasible, not divergent. Exploration is bounded by `max_execs`; for
/// programs whose control flow changes the set of posted wildcard receives
/// the walk is best-effort rather than exhaustive (a forced prefix may
/// shift indices past the branch), which the report does not hide.
///
/// Every execution runs under its own sim::RunContext — the run's
/// transport, the schedule's match policy and a simcheck sink for
/// candidate discovery — so explorations may overlap other runs.
///
/// Requirements on the scenario callable: it must construct its Worlds
/// fresh on every invocation and run them *sequentially* — schedule keys
/// include a World construction serial, which only sequential execution
/// keeps stable.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "machine/transport.hpp"
#include "simcheck/checker.hpp"
#include "simrace/schedule.hpp"

namespace columbia::simrace {

/// Runs the program end to end and returns its result bytes (for registry
/// experiments: Report::render()). Invoked once per explored execution.
using RaceScenario = std::function<std::string()>;

/// One forced (or free, for the empty schedule) execution.
struct RunOutcome {
  std::string bytes;        ///< scenario result ("" when deadlocked)
  bool deadlocked = false;  ///< sim::DeadlockError escaped the scenario
  simcheck::CheckReport check;
  std::vector<simcheck::RaceDecision> decisions;
  /// FNV-1a over result bytes + simcheck verdicts. WildcardRace
  /// diagnostics and suppression counts are excluded — forcing trivially
  /// changes which message a race diagnostic names, and only *outcome*
  /// differences should count as divergence.
  std::uint64_t fingerprint = 0;
};

/// Executes the scenario once under `schedule` on `transport`, with
/// candidate discovery attached (a RunContext armed with simcheck and the
/// schedule's match policy, installed for the call). This is also
/// `simrace --replay`'s engine: byte-equal `bytes` across calls with the
/// same schedule is the determinism contract extended to forced runs.
RunOutcome run_under(
    const RaceScenario& scenario, const ForcingSchedule& schedule,
    machine::TransportModel transport = machine::TransportModel::Event);

struct Divergence {
  ForcingSchedule schedule;
  std::uint64_t fingerprint = 0;
};

struct ExploreOptions {
  int max_execs = 64;  ///< bound on executions (baseline included)
  /// Network backend every execution runs on (--transport).
  machine::TransportModel transport = machine::TransportModel::Event;
};

struct ExploreResult {
  std::uint64_t baseline_fingerprint = 0;
  std::string baseline_bytes;
  bool baseline_deadlocked = false;
  int explored = 0;    ///< executions actually run
  int pruned = 0;      ///< schedules skipped by the visited set
  int infeasible = 0;  ///< forced runs that ended in deadlock
  int truncated = 0;   ///< frontier schedules abandoned at max_execs
  std::vector<Divergence> divergences;

  bool raced() const { return !divergences.empty(); }
  /// One summary line plus one line per divergence (schedule included).
  std::string render(const std::string& label) const;
};

/// Breadth-first exploration from the free (empty-schedule) baseline.
ExploreResult explore(const RaceScenario& scenario,
                      const ExploreOptions& opts = {});

}  // namespace columbia::simrace
