// Experiment runner: regenerate any table/figure of the paper (or an
// ablation/extension) by id, or list everything the registry covers.
//
//   $ ./run_experiment                  # list all experiments
//   $ ./run_experiment --list           # same, explicitly
//   $ ./run_experiment table2           # reproduce Table 2
//   $ ./run_experiment fig6 fig8        # several in one go
//   $ ./run_experiment --filter ext-    # every id containing "ext-"
//   $ ./run_experiment --jobs 4 fig5    # scenarios over 4 host threads
//   $ ./run_experiment --check table2   # run under the simcheck analyzer
//   $ ./run_experiment --faults 42:0.5 fig11
//                                       # seeded fault injection at
//                                       # intensity 0.5 (same seed =>
//                                       # byte-identical report)
//   $ ./run_experiment --out bench_results table3
//                                       # also write each table/figure
//                                       # as <id>_<n>_<slug>.csv under
//                                       # bench_results/
//   $ ./run_experiment --profile --out prof table2
//                                       # profile: per-experiment Chrome
//                                       # trace, Gantt CSV, comm matrix,
//                                       # and ProfileReport JSON in prof/
//   $ ./run_experiment --transport flow table6
//                                       # fluid flow-solver network backend
//                                       # (order-of-magnitude fewer events
//                                       # on contention-heavy patterns)
//   $ ./run_experiment ext-columbia-full
//                                       # all 20 Columbia boxes, 10240
//                                       # CPUs (forces the flow backend)
//
// Since the simserve redesign this binary is a thin client of the library
// API: the shared RunOptionsParser fills a core::ScenarioSpec (the same
// schema simserve requests use), each selected id binds one spec, and
// core::Evaluator runs it — arming check/profile/faults on a RunContext
// of its own, so no analyzer state leaks between ids. Stdout bytes per
// experiment are the Evaluator's report bytes, which is exactly what
// simserve serves and caches.
//
// Exits non-zero on an unknown id, a --filter that matches nothing, a
// CSV or profile file that cannot be written, or — with --check — any
// communication-correctness diagnostic.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/experiment.hpp"
#include "core/run_options.hpp"

namespace {

/// Writes the evaluation's profile artifacts: <id>.trace.json
/// (chrome://tracing), <id>.gantt.csv, <id>.comm.csv, <id>.profile.json;
/// renders the roll-up to stderr. Returns false with the unwritable file
/// named in `error`.
bool export_profile(const std::string& id,
                    const columbia::core::EvalResult& result,
                    const std::filesystem::path& dir, std::string& error) {
  const auto write = [&](const char* suffix, const std::string& body) {
    return columbia::core::write_file(dir / (id + suffix), body, error);
  };
  if (!write(".profile.json", result.profile_json + "\n") ||
      (result.trace_valid &&
       !(write(".trace.json", result.trace_chrome_json) &&
         write(".gantt.csv", result.trace_gantt_csv) &&
         write(".comm.csv", result.trace_comm_csv)))) {
    return false;
  }
  std::fprintf(stderr, "--- profile: %s ---\n", id.c_str());
  std::fputs(result.profile_report.c_str(), stderr);
  return true;
}

/// Shared per-experiment state threaded through the id and filter loops.
struct RunState {
  const columbia::core::RunOptions& opts;
  const columbia::core::Evaluator evaluator;
  std::string out_dir;
  columbia::simfault::FaultStats fault_stats;  ///< merged across ids
  bool check_failed = false;
};

/// Evaluates one id through the library API, prints the result bytes and,
/// with --out, writes the report's CSVs. Returns false on evaluation error
/// (unknown id is caught earlier; this is e.g. a fault-induced deadlock)
/// or on a CSV or profile file that cannot be written.
bool run_one(RunState& state, const std::string& id) {
  using namespace columbia::core;
  EvalOptions eopts;
  eopts.exec = state.opts.exec;
  eopts.retain_timeline = state.opts.spec.profile;
  const EvalResult result =
      state.evaluator.evaluate(state.opts.spec_for(id), eopts);
  if (!result.ok) {
    std::fprintf(stderr, "run_experiment: %s: %s\n", id.c_str(),
                 result.error.c_str());
    return false;
  }
  std::fputs(result.report.c_str(), stdout);
  std::string error;
  if ((!state.opts.out.empty() &&
       !write_report_csvs(result.data, id, state.out_dir, error)) ||
      (state.opts.spec.profile &&
       !export_profile(id, result, state.out_dir, error))) {
    std::fprintf(stderr, "run_experiment: %s: %s\n", id.c_str(),
                 error.c_str());
    return false;
  }
  if (state.opts.spec.check) {
    std::fputs(result.check_report.c_str(), stderr);
    state.check_failed = state.check_failed || !result.check_clean;
  }
  if (state.opts.spec.faults) state.fault_stats.merge(result.fault_stats);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace columbia::core;
  RunOptionsParser parser("run_experiment", "[options] [experiment-id...]",
                          {"--list", "--filter", "--jobs", "--out", "--check",
                           "--profile", "--faults", "--transport"});
  parser.allow_positional();
  RunOptions opts;
  if (!parser.parse(argc, argv, opts)) return 2;
  if (opts.help) return 0;
  const std::string out_dir = opts.out.empty() ? "." : opts.out;

  if (opts.list || (opts.ids.empty() && opts.filters.empty())) {
    std::printf("columbia experiment registry (%d paper artifacts):\n\n%s",
                paper_artifact_count(), registry_listing().c_str());
    if (!opts.list) std::printf("\n%s", parser.help().c_str());
    return 0;
  }

  if (opts.spec.profile || !opts.out.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --out directory %s: %s\n",
                   out_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }
  // Each selected id runs once, in first-named order: positional ids in
  // argv order, then the ids any --filter matches, in registry order.
  std::vector<std::string> selected;
  const auto select = [&selected](const std::string& id) {
    if (std::find(selected.begin(), selected.end(), id) == selected.end()) {
      selected.push_back(id);
    }
  };
  for (const auto& id : opts.ids) {
    if (find_experiment(id) == nullptr) {
      std::fprintf(stderr, "unknown experiment id: %s (run with --list "
                           "for the registry)\n",
                   id.c_str());
      return 1;
    }
    select(id);
  }
  const auto& registry = experiment_registry();
  for (const auto& needle : opts.filters) {
    if (std::none_of(registry.begin(), registry.end(), [&](const auto& e) {
          return e.id.find(needle) != std::string::npos;
        })) {
      std::fprintf(stderr, "--filter %s matched no experiment ids\n",
                   needle.c_str());
      return 1;
    }
  }
  if (!opts.filters.empty()) {
    for (const auto& e : registry) {
      if (opts.matches_filter(e.id)) select(e.id);
    }
  }
  RunState state{opts, Evaluator(), out_dir, {}, false};
  for (const auto& id : selected) {
    if (!run_one(state, id)) return 1;
  }
  if (opts.spec.faults) {
    const auto& stats = state.fault_stats;
    std::fprintf(stderr,
                 "--- faults: seed %llu intensity %g — %llu worlds, "
                 "%llu dropped, %llu retries, %llu lost ---\n",
                 static_cast<unsigned long long>(opts.spec.fault_seed),
                 opts.spec.fault_intensity,
                 static_cast<unsigned long long>(stats.worlds),
                 static_cast<unsigned long long>(stats.messages_dropped),
                 static_cast<unsigned long long>(stats.retries),
                 static_cast<unsigned long long>(stats.messages_lost));
  }
  return state.check_failed ? 1 : 0;
}
