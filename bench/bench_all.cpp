// Full-registry benchmark: times every selected experiment end to end
// through core::Evaluator, sequentially and host-parallel, checks that the
// two passes print byte-identical reports, and writes the timings to
// bench_results/BENCH_summary.json so the perf trajectory of the harness
// is tracked PR over PR.
//
//   bench_all [--list] [--filter <substr>] [--jobs N] [--out DIR]
//             [--transport event|flow] [--repeat N] [--mode seq|par|both]
//
// The sequential pass evaluates each experiment --repeat times and keeps
// its best wall time; events are the evaluation's own count
// (EvalResult::events). The parallel pass evaluates every experiment once,
// one pool task each, each running Exec::parallel(jobs); --jobs sets the
// width (default: host CPUs). --mode picks the passes (default both); with
// both, a report that differs between them is a MISMATCH and exit 1. The
// summary goes to DIR/BENCH_summary.json (DIR defaults to bench_results).
//
// Summary schema 7: schema_version, host_cpus, jobs, repeat, transport,
// num_experiments, sequential (total_seconds, events, events_per_second,
// and one entry per experiment), parallel (the same totals), speedup,
// reports_identical. --mode seq or par omits the other pass's keys.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/parallel.hpp"
#include "core/evaluator.hpp"
#include "core/experiment.hpp"
#include "core/run_options.hpp"

namespace {

using columbia::common::json::number_to_string;
using columbia::core::EvalOptions;
using columbia::core::EvalResult;

/// One experiment's sequential timing: every repetition's wall seconds.
struct Timing {
  std::vector<double> wall_seconds;
  std::uint64_t events = 0;  ///< one evaluation's engine events

  double best() const {
    double b = wall_seconds.front();
    for (double s : wall_seconds) b = std::min(b, s);
    return b;
  }
};

/// A pass's totals: wall seconds, engine events, and their ratio.
std::string totals_json(double seconds, std::uint64_t events) {
  return "    \"total_seconds\": " + number_to_string(seconds) +
         ",\n    \"events\": " + std::to_string(events) +
         ",\n    \"events_per_second\": " +
         number_to_string(static_cast<double>(events) /
                          std::max(seconds, 1e-12));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace columbia::core;

  int repeat = 1;
  std::string mode = "both";
  RunOptionsParser parser("bench_all", "[options]",
                          {"--list", "--filter", "--jobs", "--out",
                           "--transport"});
  parser.add_flag("--repeat", "<n>",
                  "sequential repetitions per experiment (best is kept)",
                  [&repeat](const std::string& v, std::string& err) {
                    return parse_positive_int("--repeat", v, repeat, err);
                  });
  parser.add_flag("--mode", "<seq|par|both>", "which passes to run",
                  [&mode](const std::string& v, std::string& err) {
                    if (v != "seq" && v != "par" && v != "both") {
                      err = "--mode expects seq, par, or both, got '" + v +
                            "'";
                      return false;
                    }
                    mode = v;
                    return true;
                  });
  RunOptions opts;
  if (!parser.parse(argc, argv, opts)) return 2;
  if (opts.help) return 0;
  if (opts.list) {
    std::fputs(registry_listing().c_str(), stdout);
    return 0;
  }
  const int jobs = opts.exec.jobs > 0
                       ? opts.exec.jobs
                       : columbia::common::ThreadPool::default_jobs();
  std::vector<ScenarioSpec> specs;
  for (const auto& e : experiment_registry()) {
    if (opts.matches_filter(e.id)) specs.push_back(opts.spec_for(e.id));
  }
  if (specs.empty()) {
    std::fprintf(stderr, "--filter matched no experiment ids\n");
    return 1;
  }
  const std::size_t n = specs.size();
  const bool want_seq = mode != "par";
  const bool want_par = mode != "seq";
  const Evaluator evaluator;
  const auto failed = [](const ScenarioSpec& spec, const EvalResult& r) {
    if (!r.ok) {
      std::fprintf(stderr, "bench_all: %s: %s\n", spec.experiment.c_str(),
                   r.error.c_str());
    }
    return !r.ok;
  };

  std::vector<std::string> seq_reports(n);
  std::vector<Timing> timings(n);
  double seq_seconds = 0.0;
  std::uint64_t seq_events = 0;
  if (want_seq) {
    std::printf("sequential: %zu experiments, best of %d...\n", n, repeat);
    for (std::size_t i = 0; i < n; ++i) {
      for (int rep = 0; rep < repeat; ++rep) {
        EvalResult r = evaluator.evaluate(specs[i]);
        if (failed(specs[i], r)) return 1;
        timings[i].wall_seconds.push_back(r.wall_seconds);
        timings[i].events = r.events;
        if (rep == 0) seq_reports[i] = std::move(r.report);
      }
      seq_seconds += timings[i].best();
      seq_events += timings[i].events;
    }
    std::printf("  %.2f s total, %.0f events/s\n", seq_seconds,
                seq_events / std::max(seq_seconds, 1e-12));
  }

  std::vector<EvalResult> par;
  double par_seconds = 0.0;
  std::uint64_t par_events = 0;
  if (want_par) {
    std::printf("parallel (%d jobs): %zu experiments...\n", jobs, n);
    EvalOptions eopts;
    eopts.exec = Exec::parallel(jobs);
    // simlint:allow(nondet-source) — wall-clock pass timing, not sim state
    const auto t0 = std::chrono::steady_clock::now();
    par = columbia::common::parallel_map_n(
        n, [&](std::size_t i) { return evaluator.evaluate(specs[i], eopts); },
        jobs);
    par_seconds = std::chrono::duration<double>(
                      // simlint:allow(nondet-source) — same measurement
                      std::chrono::steady_clock::now() - t0)
                      .count();
    for (std::size_t i = 0; i < n; ++i) {
      if (failed(specs[i], par[i])) return 1;
      par_events += par[i].events;
    }
    std::printf("  %.2f s total, %.0f events/s\n", par_seconds,
                par_events / std::max(par_seconds, 1e-12));
  }

  bool identical = true;
  if (want_seq && want_par) {
    for (std::size_t i = 0; i < n; ++i) {
      if (seq_reports[i] != par[i].report) {
        identical = false;
        std::fprintf(stderr, "MISMATCH: %s parallel != sequential\n",
                     specs[i].experiment.c_str());
      }
    }
    std::printf("speedup: %.2fx (reports %s)\n",
                seq_seconds / std::max(par_seconds, 1e-12),
                identical ? "identical" : "DIFFER");
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<std::string> fields = {
      "  \"schema_version\": 7",
      "  \"host_cpus\": " + std::to_string(hw > 0 ? hw : 1),
      "  \"jobs\": " + std::to_string(jobs),
      "  \"repeat\": " + std::to_string(repeat),
      "  \"transport\": \"" + opts.spec.transport + "\"",
      "  \"num_experiments\": " + std::to_string(n)};
  if (want_seq) {
    std::ostringstream os;
    os << "  \"sequential\": {\n"
       << totals_json(seq_seconds, seq_events) << ",\n"
       << "    \"experiments\": [\n";
    for (std::size_t i = 0; i < n; ++i) {
      const Timing& t = timings[i];
      os << "      {\n        \"id\": \"" << specs[i].experiment
         << "\",\n        \"wall_seconds\": [";
      for (std::size_t k = 0; k < t.wall_seconds.size(); ++k) {
        os << (k ? ", " : "") << number_to_string(t.wall_seconds[k]);
      }
      os << "],\n        \"best_seconds\": " << number_to_string(t.best())
         << ",\n        \"events\": " << t.events
         << ",\n        \"events_per_second\": "
         << number_to_string(static_cast<double>(t.events) /
                             std::max(t.best(), 1e-12))
         << "\n      }" << (i + 1 < n ? ",\n" : "\n");
    }
    os << "    ]\n  }";
    fields.push_back(os.str());
  }
  if (want_par) {
    fields.push_back("  \"parallel\": {\n" +
                     totals_json(par_seconds, par_events) + "\n  }");
  }
  if (want_seq && want_par) {
    fields.push_back(
        "  \"speedup\": " +
        number_to_string(seq_seconds / std::max(par_seconds, 1e-12)));
    fields.push_back(std::string("  \"reports_identical\": ") +
                     (identical ? "true" : "false"));
  }
  std::string json = "{\n";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    json += fields[i] + (i + 1 < fields.size() ? ",\n" : "\n");
  }
  json += "}\n";

  const std::filesystem::path out =
      std::filesystem::path(opts.out.empty() ? "bench_results" : opts.out) /
      "BENCH_summary.json";
  std::error_code ec;
  std::filesystem::create_directories(out.parent_path(), ec);
  std::string error;
  if (!write_file(out, json, error)) {
    std::fprintf(stderr, "bench_all: %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.string().c_str());
  return identical ? 0 : 1;
}
