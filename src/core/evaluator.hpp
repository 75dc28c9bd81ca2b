#pragma once
/// \file evaluator.hpp
/// `Evaluator` — one ScenarioSpec in, one Result out, nothing shared.
///
/// The library face of what run_experiment's main() used to hand-roll:
/// resolve the spec's experiment against the registry, build a
/// sim::RunContext that arms exactly what the spec asks for (transport,
/// simcheck, simprof, simfault), run the sweep under the caller's Exec
/// policy with that context installed, and return the rendered report
/// bytes plus the analyzer artifacts straight out of the context's sinks.
/// The report bytes are byte-identical to what `run_experiment <id>`
/// prints for the same spec — pinned by test_simserve — which is what
/// makes results cacheable by spec hash.
///
/// Concurrency: nothing an evaluation arms is process-global, so
/// evaluate() takes no lock. Any number of evaluations — plain or
/// analyzed, on any transport — may run at once on different threads,
/// and each one's artifacts and event count are exactly what it would
/// produce alone.
///
/// Error handling: an unknown experiment id, a bad transport, or an
/// exception escaping the sweep (e.g. a fault-induced deadlock) comes
/// back as `ok == false` with the message in `error` — evaluate() itself
/// does not throw, so a serving loop can keep going.

#include <cstdint>
#include <string>

#include "core/figures.hpp"
#include "core/scenario.hpp"
#include "core/spec.hpp"
#include "simfault/schedule.hpp"

namespace columbia::core {

/// Non-spec evaluation knobs: how to run, not what to run (none of this
/// may change the result bytes).
struct EvalOptions {
  Exec exec;  ///< sequential (default) or host-parallel scenario sweep
  /// Keep the representative world's full timeline for trace/Gantt/comm
  /// export (run_experiment --profile --out). Off by default: servers
  /// only ship the roll-up JSON.
  bool retain_timeline = false;
};

/// Everything one evaluation produced. Strings are empty when the spec
/// did not request the corresponding analyzer.
struct EvalResult {
  bool ok = false;
  std::string error;  ///< set when !ok

  std::uint64_t spec_hash = 0;
  std::string report;  ///< byte-identical to run_experiment's stdout block
  /// The tables and figures `report` renders, moved out of the run (what
  /// run_experiment --out writes as CSVs).
  Report data;

  /// Engine events this evaluation processed (its RunContext's count).
  std::uint64_t events = 0;
  double wall_seconds = 0.0;  ///< host wall clock, for serving metrics only

  // --check artifacts
  std::string check_report;  ///< rendered text
  std::string check_json;
  bool check_clean = true;

  // --profile artifacts
  std::string profile_report;  ///< rendered text
  std::string profile_json;
  bool trace_valid = false;  ///< timeline artifacts below are populated
  std::string trace_chrome_json;
  std::string trace_gantt_csv;
  std::string trace_comm_csv;

  // --faults artifacts
  simfault::FaultStats fault_stats;
};

class Evaluator {
 public:
  /// Evaluates `spec` and returns the result. Never throws.
  EvalResult evaluate(const ScenarioSpec& spec,
                      const EvalOptions& opts = {}) const;
};

}  // namespace columbia::core
