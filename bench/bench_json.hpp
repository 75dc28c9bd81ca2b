#pragma once
// Helpers for bench_all: wall-clock timing of one experiment
// regeneration and minimal JSON emission for the
// bench_results/BENCH_summary.json perf-tracking file. Header-only, no
// third-party JSON dependency.

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "core/experiment.hpp"
#include "sim/engine.hpp"

namespace columbia::bench {

/// Schema of bench_results/BENCH_summary.json. History:
///   1 — implicit pre-schema layout (no "schema_version" key)
///   2 — adds "schema_version" itself and the optional "faults" block
///       (seed/intensity + drop/retry/loss counters) written by
///       `bench_all --faults`
///   3 — adds the top-level "transport" field (which network backend the
///       passes ran under, "event" or "flow") and the optional
///       "flow_speedup" block (per-experiment event-count and wall-clock
///       comparison of the two backends) written by
///       `bench_all --flow-speedup`
///   4 — adds the optional "race" block (wildcard-ordering exploration:
///       max_execs budget plus explored/pruned/infeasible/truncated/
///       diverged totals over the registry) written by
///       `bench_all --race-explore`
///   5 — adds the always-present "io" block (storage-subsystem counters
///       merged across every simio::Filesystem the timed passes
///       construct: filesystems/opens/writes/reads/chunks plus
///       bytes_written/bytes_read)
///   6 — adds the optional "serve" block (scenario-service load test:
///       request/evaluation/cache-hit/coalesce counts, peak in-flight,
///       requests_per_second, p50/p99 latency) written by `bench_serve`
///       — which splices into an existing summary, so run it after
///       bench_all — and extends each "flow_speedup" entry with
///       event_events_per_second / flow_events_per_second and a per-
///       experiment "faster" verdict ("event" or "flow"). Nothing writes
///       "serve" since bench_serve was deleted (colbench's serve-mix
///       workload measures the service now); the block was always
///       optional, so the version stays 6.
inline constexpr int kBenchSummarySchemaVersion = 6;

/// Schema version of a serialized summary; version-1 files predate the
/// key, so a missing key reads as 1. Malformed values read as 0.
inline int summary_schema_version(const std::string& json) {
  const std::string key = "\"schema_version\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return 1;
  std::size_t pos = at + key.size();
  while (pos < json.size() && json[pos] == ' ') ++pos;
  int value = 0;
  bool any = false;
  while (pos < json.size() && json[pos] >= '0' && json[pos] <= '9') {
    value = value * 10 + (json[pos] - '0');
    ++pos;
    any = true;
  }
  return any ? value : 0;
}

/// Readers call this before consuming a summary: a version the reader
/// does not understand is a contract violation, not a parse error.
inline void assert_summary_schema(const std::string& json) {
  const int version = summary_schema_version(json);
  COL_REQUIRE(version >= 1 && version <= kBenchSummarySchemaVersion,
              "unsupported BENCH_summary.json schema_version");
}

/// Timing of `repeat` regenerations of one experiment.
struct ExperimentTiming {
  std::string id;
  std::vector<double> wall_seconds;  ///< one entry per repetition
  std::uint64_t events = 0;          ///< engine events over all repetitions
  double events_per_second = 0.0;    ///< events / total wall

  double best_seconds() const {
    double best = wall_seconds.empty() ? 0.0 : wall_seconds.front();
    for (double s : wall_seconds) best = s < best ? s : best;
    return best;
  }
  double total_seconds() const {
    double sum = 0.0;
    for (double s : wall_seconds) sum += s;
    return sum;
  }
};

/// Runs `exp` `repeat` times under `exec` and measures each regeneration.
/// The first run's report is returned through `first_report` when non-null
/// (so callers can render/export without paying an extra run).
inline ExperimentTiming time_experiment(const core::Experiment& exp,
                                        const core::Exec& exec, int repeat,
                                        core::Report* first_report = nullptr) {
  ExperimentTiming t;
  t.id = exp.id;
  const std::uint64_t events_before = sim::total_events_processed();
  for (int i = 0; i < repeat; ++i) {
    // simlint:allow(nondet-source) — measures host wall time per run;
    // the simulated clocks inside the run stay (spec, seed)-pure.
    const auto t0 = std::chrono::steady_clock::now();
    auto report = exp.run_exec(exec);
    const auto t1 = std::chrono::steady_clock::now();  // simlint:allow(nondet-source) — same wall-time measurement
    t.wall_seconds.push_back(
        std::chrono::duration<double>(t1 - t0).count());
    if (i == 0 && first_report != nullptr) *first_report = std::move(report);
  }
  t.events = sim::total_events_processed() - events_before;
  const double total = t.total_seconds();
  t.events_per_second =
      total > 0.0 ? static_cast<double>(t.events) / total : 0.0;
  return t;
}

inline std::string json_number(double v) {
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

/// Renders one timing as a JSON object (a per-experiment entry of
/// BENCH_summary.json).
inline std::string timing_to_json(const ExperimentTiming& t, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::ostringstream os;
  os << pad << "{\n";
  os << pad << "  \"id\": \"" << t.id << "\",\n";
  os << pad << "  \"repeat\": " << t.wall_seconds.size() << ",\n";
  os << pad << "  \"wall_seconds\": [";
  for (std::size_t i = 0; i < t.wall_seconds.size(); ++i) {
    os << (i ? ", " : "") << json_number(t.wall_seconds[i]);
  }
  os << "],\n";
  os << pad << "  \"best_seconds\": " << json_number(t.best_seconds())
     << ",\n";
  os << pad << "  \"events\": " << t.events << ",\n";
  os << pad << "  \"events_per_second\": " << json_number(t.events_per_second)
     << "\n";
  os << pad << "}";
  return os.str();
}

inline int host_cpus() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace columbia::bench
