// Full-registry benchmark: regenerates every experiment in the registry,
// sequentially (the baseline) and host-parallel through the thread pool,
// verifies the two produce byte-identical reports, and writes the
// aggregate timing to bench_results/BENCH_summary.json so the perf
// trajectory of the harness is tracked PR over PR.
//
// Flags parse through core::RunOptions (shared with run_experiment):
//   bench_all [--list] [--filter <substr>] [--repeat N] [--jobs N]
//             [--parallel] [--mode seq|par|both] [--strategy outer|inner]
//             [--out FILE] [--check] [--profile] [--faults seed:intensity]
//             [--transport event|flow] [--flow-speedup]
//             [--race-explore] [--max-execs N]
//
// --transport selects the network backend for every pass; the summary
// records it in the top-level "transport" field.
//
// --flow-speedup additionally times the all-to-all-heavy experiments
// (fig5, table6) under BOTH backends — on a clean engine, before any
// analyzer is enabled — and embeds the per-experiment event counts,
// best wall seconds, and flow/event ratios under "flow_speedup".
//
// Strategies for the parallel pass:
//   outer — one pool task per experiment (default; coarse, low overhead)
//   inner — experiments in order, each one's scenarios fanned out
//           (finer grain; better when one experiment dominates)
//
// --check runs every pass under the simcheck communication-correctness
// analyzer, embeds its report under "check" in the JSON summary, and
// fails the run on any diagnostic.
//
// --profile runs every pass under the simprof profiler (roll-up only, no
// timeline retention) and embeds its report under "profile" in the JSON
// summary.
//
// --faults runs every pass under seeded fault injection and embeds the
// drop/retry/loss counters under "faults". All three analyzers leave the
// sequential/parallel identity check intact (faults are deterministic per
// seed; the analyzers are pure listeners).
//
// One sim::RunContext arms the timed passes: the transport, the analyzers
// the flags ask for, and — with no flag — a simio stats sink (pure
// accounting, cannot perturb timing) whose merged Filesystem counters land
// under "io". Both passes install it, the parallel one on every worker.
//
// --race-explore walks every experiment's wildcard-receive orderings
// through simrace (sequentially, before the timed passes; each execution
// runs under its own candidate-discovery context), bounded
// by --max-execs per experiment, and embeds the explored/pruned/
// infeasible/truncated/diverged totals under "race". A diverged count of
// anything but zero fails the run: the paper artifacts are expected to be
// wildcard-race-free.
//
// The summary carries "schema_version" (bench_json.hpp); readers assert
// it before consuming the file.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/parallel.hpp"
#include "core/experiment.hpp"
#include "core/run_options.hpp"
#include "machine/transport.hpp"
#include "sim/engine.hpp"
#include "sim/run_context.hpp"
#include "simcheck/checker.hpp"
#include "simfault/schedule.hpp"
#include "simio/filesystem.hpp"
#include "simprof/profiler.hpp"
#include "simrace/explorer.hpp"

namespace {

using columbia::bench::ExperimentTiming;
using columbia::core::Exec;
using columbia::core::Experiment;
using columbia::core::Report;
using columbia::sim::RunContext;
using columbia::sim::RunScope;

struct PassResult {
  double total_seconds = 0.0;
  std::uint64_t events = 0;
  std::vector<std::string> rendered;  ///< one per experiment, registry order
  std::vector<ExperimentTiming> timings;  ///< sequential pass only
};

PassResult run_sequential(const std::vector<Experiment>& registry,
                          int repeat) {
  PassResult pass;
  const std::uint64_t events_before = columbia::sim::total_events_processed();
  // simlint:allow(nondet-source) — wall-clock pass timing, not sim state
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& exp : registry) {
    Report report;
    auto timing = columbia::bench::time_experiment(exp, Exec::sequential(),
                                                   repeat, &report);
    pass.rendered.push_back(report.render());
    pass.timings.push_back(std::move(timing));
  }
  pass.total_seconds = std::chrono::duration<double>(
                           // simlint:allow(nondet-source) — wall-clock timing
                           std::chrono::steady_clock::now() - t0)
                           .count();
  pass.events = columbia::sim::total_events_processed() - events_before;
  return pass;
}

PassResult run_parallel(const std::vector<Experiment>& registry, int repeat,
                        int jobs, const std::string& strategy,
                        RunContext& ctx) {
  PassResult pass;
  pass.rendered.resize(registry.size());
  const std::uint64_t events_before = columbia::sim::total_events_processed();
  // simlint:allow(nondet-source) — wall-clock pass timing, not sim state
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < repeat; ++rep) {
    if (strategy == "inner") {
      for (std::size_t i = 0; i < registry.size(); ++i) {
        pass.rendered[i] = registry[i].run_exec(Exec::parallel(jobs)).render();
      }
    } else {
      columbia::common::parallel_for(
          registry.size(),
          [&](std::size_t i) {
            const RunScope scope(ctx);
            pass.rendered[i] =
                registry[i].run_exec(Exec::parallel(jobs)).render();
          },
          jobs);
    }
  }
  pass.total_seconds = std::chrono::duration<double>(
                           // simlint:allow(nondet-source) — wall-clock timing
                           std::chrono::steady_clock::now() - t0)
                           .count() /
                       repeat;
  pass.events =
      (columbia::sim::total_events_processed() - events_before) / repeat;
  return pass;
}

/// One experiment timed under both transports (clean engine, sequential).
struct FlowSpeedup {
  std::string id;
  ExperimentTiming event;
  ExperimentTiming flow;

  double event_reduction() const {
    return static_cast<double>(event.events) /
           std::max<double>(static_cast<double>(flow.events), 1.0);
  }
  double wall_speedup() const {
    return event.best_seconds() / std::max(flow.best_seconds(), 1e-12);
  }
  /// Which backend won this experiment's wall clock. The block reports
  /// per-experiment direction because the answer is not uniform: fig5
  /// favors flow while table6 regresses under it (fewer wire events, but
  /// the solver re-fairs on every completion in table6's long overlapping
  /// transfer mix).
  const char* faster() const {
    return wall_speedup() >= 1.0 ? "flow" : "event";
  }
};

/// Times `exp` under the event backend, then the flow backend.
FlowSpeedup measure_flow_speedup(const Experiment& exp, int repeat) {
  using columbia::machine::TransportModel;
  const auto timed = [&](TransportModel transport) {
    RunContext ctx;
    ctx.transport = transport;
    const RunScope scope(ctx);
    return columbia::bench::time_experiment(exp, Exec::sequential(), repeat);
  };
  FlowSpeedup fs;
  fs.id = exp.id;
  fs.event = timed(TransportModel::Event);
  fs.flow = timed(TransportModel::Flow);
  return fs;
}

/// Registry-wide totals of one `--race-explore` pass.
struct RaceTotals {
  int explored = 0;
  int pruned = 0;
  int infeasible = 0;
  int truncated = 0;
  int diverged = 0;  ///< confirmed divergent schedules across the registry

  void add(const columbia::simrace::ExploreResult& r) {
    explored += r.explored;
    pruned += r.pruned;
    infeasible += r.infeasible;
    truncated += r.truncated;
    diverged += static_cast<int>(r.divergences.size());
  }
};

}  // namespace

int main(int argc, char** argv) {
  using columbia::core::RunOptions;
  using columbia::core::RunOptionsParser;

  int repeat = 1;
  std::string mode;  // empty until --mode/--parallel decide; default "both"
  std::string strategy = "outer";
  bool flow_speedup = false;

  RunOptionsParser parser("bench_all", "[options]");
  parser.add_flag("--repeat", "<n>", "repetitions per experiment",
                  [&repeat](const std::string& v, std::string& err) {
                    const int n = std::atoi(v.c_str());
                    if (n < 1) {
                      err = "--repeat expects a positive integer, got '" + v +
                            "'";
                      return false;
                    }
                    repeat = n;
                    return true;
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
  parser.add_flag("--strategy", "<outer|inner>",
                  "parallel pass grain (per-experiment or per-scenario)",
                  [&strategy](const std::string& v, std::string& err) {
                    if (v != "outer" && v != "inner") {
                      err = "--strategy expects outer or inner, got '" + v +
                            "'";
                      return false;
                    }
                    strategy = v;
                    return true;
                  });
  parser.add_flag("--flow-speedup", "",
                  "time fig5/table6 under both transports, embed the ratios",
                  [&flow_speedup](const std::string&, std::string&) {
                    flow_speedup = true;
                    return true;
                  });
  parser.add_race_flags(/*with_replay=*/false);
  RunOptions opts;
  if (!parser.parse(argc, argv, opts)) return 2;
  if (opts.help) return 0;
  columbia::machine::TransportModel transport_model;
  {
    std::string terr;
    if (!columbia::machine::parse_transport(opts.spec.transport,
                                            transport_model, terr)) {
      std::fprintf(stderr, "bench_all: %s\n", terr.c_str());
      return 2;
    }
  }
  if (opts.list) {
    std::fputs(columbia::core::registry_listing().c_str(), stdout);
    return 0;
  }
  if (mode.empty()) {
    // Bare --parallel means "just the parallel pass"; the default compares
    // both.
    mode = opts.exec.mode == Exec::Mode::Parallel ? "par" : "both";
  }
  const int jobs = opts.exec.jobs;
  const std::string out =
      opts.out.empty() ? "bench_results/BENCH_summary.json" : opts.out;

  const int effective_jobs =
      jobs > 0 ? jobs : columbia::common::ThreadPool::default_jobs();
  std::vector<Experiment> registry;
  for (const auto& e : columbia::core::experiment_registry()) {
    if (opts.matches_filter(e.id)) registry.push_back(e);
  }
  if (registry.empty()) {
    std::fprintf(stderr, "--filter matched no experiment ids\n");
    return 1;
  }

  // Backend comparison runs first, on a clean engine (no analyzers, no
  // faults), so the ratios measure the transports and nothing else.
  std::vector<FlowSpeedup> speedups;
  if (flow_speedup) {
    for (const char* id : {"fig5", "table6"}) {
      const auto* exp = columbia::core::find_experiment(id);
      if (exp == nullptr) continue;
      std::printf("flow-speedup: %s x%d under event, then flow...\n", id,
                  repeat);
      speedups.push_back(measure_flow_speedup(*exp, repeat));
      const auto& fs = speedups.back();
      std::printf("  events %llu -> %llu (%.1fx fewer), best %.3f s -> "
                  "%.3f s (%.2fx wall, %s faster; %.0f -> %.0f events/s)\n",
                  static_cast<unsigned long long>(fs.event.events),
                  static_cast<unsigned long long>(fs.flow.events),
                  fs.event_reduction(), fs.event.best_seconds(),
                  fs.flow.best_seconds(), fs.wall_speedup(), fs.faster(),
                  fs.event.events_per_second, fs.flow.events_per_second);
    }
  }
  // Wildcard-ordering exploration runs before the timed passes: each
  // execution runs under its own candidate-discovery context, and the
  // walk re-runs each scenario up to --max-execs times. Sequential only —
  // schedule keys include the World construction serial, which parallel
  // execution would not keep stable.
  RaceTotals race;
  if (opts.spec.race_explore) {
    std::printf("race-explore: %zu experiments, max %d execs each...\n",
                registry.size(), opts.spec.max_execs);
    for (const auto& exp : registry) {
      const auto scenario = [&exp] {
        return exp.run_exec(Exec::sequential()).render();
      };
      columbia::simrace::ExploreOptions ropts;
      ropts.max_execs = opts.spec.max_execs;
      ropts.transport = transport_model;
      const auto result = columbia::simrace::explore(scenario, ropts);
      race.add(result);
      if (result.raced() || result.baseline_deadlocked) {
        std::fputs(result.render(exp.id).c_str(), stderr);
      }
    }
    std::printf("  %d executions (%d pruned, %d infeasible, %d truncated), "
                "%d diverged\n",
                race.explored, race.pruned, race.infeasible, race.truncated,
                race.diverged);
  }

  RunContext ctx;
  ctx.transport = transport_model;
  ctx.io_stats =
      std::make_shared<columbia::sim::Sink<columbia::simio::IoStats>>();
  std::shared_ptr<columbia::simcheck::CheckSink> check;
  std::shared_ptr<columbia::simprof::ProfileSink> profile;
  std::shared_ptr<columbia::simfault::FaultSink> faults;
  if (opts.spec.check) check = columbia::simcheck::arm_check(ctx);
  if (opts.spec.profile) {
    // Roll-up only: the summary embeds aggregate profiles, not timelines.
    columbia::simprof::ProfileOptions popts;
    popts.retain_timeline = false;
    profile = columbia::simprof::arm_profile(ctx, popts);
  }
  if (opts.spec.faults) {
    faults = columbia::simfault::arm_faults(
        ctx, columbia::simfault::FaultSpec::uniform(opts.spec.fault_seed,
                                                    opts.spec.fault_intensity));
  }
  PassResult seq, par;
  const bool want_seq = mode == "both" || mode == "seq";
  const bool want_par = mode == "both" || mode == "par";
  const RunScope scope(ctx);
  if (want_seq) {
    std::printf("sequential baseline: %zu experiments x%d...\n",
                registry.size(), repeat);
    seq = run_sequential(registry, repeat);
    std::printf("  %.2f s total, %.0f events/s\n", seq.total_seconds,
                seq.events / std::max(seq.total_seconds, 1e-12));
  }
  if (want_par) {
    std::printf("parallel (%s, %d jobs): %zu experiments x%d...\n",
                strategy.c_str(), effective_jobs, registry.size(), repeat);
    par = run_parallel(registry, repeat, jobs, strategy, ctx);
    std::printf("  %.2f s total, %.0f events/s\n", par.total_seconds,
                par.events / std::max(par.total_seconds, 1e-12));
  }

  const columbia::simio::IoStats io_stats = ctx.io_stats->take();
  std::printf("io: %llu filesystems, %llu opens, %llu writes, %llu reads, "
              "%llu chunks\n",
              static_cast<unsigned long long>(io_stats.filesystems),
              static_cast<unsigned long long>(io_stats.opens),
              static_cast<unsigned long long>(io_stats.writes),
              static_cast<unsigned long long>(io_stats.reads),
              static_cast<unsigned long long>(io_stats.chunks));

  columbia::simcheck::CheckReport check_report;
  if (check) {
    check_report = check->take_report();
    std::fputs(check_report.render().c_str(), stderr);
  }
  columbia::simprof::ProfileReport profile_report;
  if (profile) {
    profile_report = profile->take_report();
    std::fputs(profile_report.render().c_str(), stderr);
  }
  columbia::simfault::FaultStats fault_stats;
  if (faults) {
    fault_stats = faults->take();
    std::fprintf(stderr,
                 "faults: %llu worlds, %llu dropped, %llu retries, "
                 "%llu lost\n",
                 static_cast<unsigned long long>(fault_stats.worlds),
                 static_cast<unsigned long long>(fault_stats.messages_dropped),
                 static_cast<unsigned long long>(fault_stats.retries),
                 static_cast<unsigned long long>(fault_stats.messages_lost));
  }

  bool identical = true;
  if (want_seq && want_par) {
    for (std::size_t i = 0; i < registry.size(); ++i) {
      if (seq.rendered[i] != par.rendered[i]) {
        identical = false;
        std::fprintf(stderr, "MISMATCH: %s parallel != sequential\n",
                     registry[i].id.c_str());
      }
    }
    std::printf("speedup: %.2fx (reports %s)\n",
                seq.total_seconds / std::max(par.total_seconds, 1e-12),
                identical ? "identical" : "DIFFER");
  }

  std::ostringstream os;
  os << "{\n";
  os << "  \"schema_version\": " << columbia::bench::kBenchSummarySchemaVersion
     << ",\n";
  os << "  \"host_cpus\": " << columbia::bench::host_cpus() << ",\n";
  os << "  \"jobs\": " << effective_jobs << ",\n";
  os << "  \"repeat\": " << repeat << ",\n";
  os << "  \"strategy\": \"" << strategy << "\",\n";
  os << "  \"transport\": \""
     << columbia::machine::to_string(transport_model) << "\",\n";
  os << "  \"num_experiments\": " << registry.size() << ",\n";
  if (!speedups.empty()) {
    os << "  \"flow_speedup\": {\n";
    os << "    \"repeat\": " << repeat << ",\n";
    os << "    \"experiments\": [\n";
    for (std::size_t i = 0; i < speedups.size(); ++i) {
      const auto& fs = speedups[i];
      os << "      {\n";
      os << "        \"id\": \"" << fs.id << "\",\n";
      os << "        \"event_events\": " << fs.event.events << ",\n";
      os << "        \"flow_events\": " << fs.flow.events << ",\n";
      os << "        \"event_reduction\": "
         << columbia::bench::json_number(fs.event_reduction()) << ",\n";
      os << "        \"event_best_seconds\": "
         << columbia::bench::json_number(fs.event.best_seconds()) << ",\n";
      os << "        \"flow_best_seconds\": "
         << columbia::bench::json_number(fs.flow.best_seconds()) << ",\n";
      os << "        \"event_events_per_second\": "
         << columbia::bench::json_number(fs.event.events_per_second) << ",\n";
      os << "        \"flow_events_per_second\": "
         << columbia::bench::json_number(fs.flow.events_per_second) << ",\n";
      os << "        \"wall_speedup\": "
         << columbia::bench::json_number(fs.wall_speedup()) << ",\n";
      os << "        \"faster\": \"" << fs.faster() << "\"\n";
      os << "      }" << (i + 1 < speedups.size() ? ",\n" : "\n");
    }
    os << "    ]\n  },\n";
  }
  if (opts.spec.faults) {
    os << "  \"faults\": {\n";
    os << "    \"seed\": " << opts.spec.fault_seed << ",\n";
    os << "    \"intensity\": "
       << columbia::bench::json_number(opts.spec.fault_intensity) << ",\n";
    os << "    \"worlds\": " << fault_stats.worlds << ",\n";
    os << "    \"messages_dropped\": " << fault_stats.messages_dropped
       << ",\n";
    os << "    \"retries\": " << fault_stats.retries << ",\n";
    os << "    \"messages_lost\": " << fault_stats.messages_lost << "\n";
    os << "  },\n";
  }
  if (opts.spec.race_explore) {
    os << "  \"race\": {\n";
    os << "    \"max_execs\": " << opts.spec.max_execs << ",\n";
    os << "    \"explored\": " << race.explored << ",\n";
    os << "    \"pruned\": " << race.pruned << ",\n";
    os << "    \"infeasible\": " << race.infeasible << ",\n";
    os << "    \"truncated\": " << race.truncated << ",\n";
    os << "    \"diverged\": " << race.diverged << "\n";
    os << "  },\n";
  }
  // Always present (schema 5): merged counters from every Filesystem the
  // timed passes constructed. A sequential or parallel block always
  // follows, so the trailing comma is safe.
  os << "  \"io\": {\n";
  os << "    \"filesystems\": " << io_stats.filesystems << ",\n";
  os << "    \"opens\": " << io_stats.opens << ",\n";
  os << "    \"writes\": " << io_stats.writes << ",\n";
  os << "    \"reads\": " << io_stats.reads << ",\n";
  os << "    \"chunks\": " << io_stats.chunks << ",\n";
  os << "    \"bytes_written\": " << io_stats.bytes_written << ",\n";
  os << "    \"bytes_read\": " << io_stats.bytes_read << "\n";
  os << "  },\n";
  if (want_seq) {
    os << "  \"sequential\": {\n";
    os << "    \"total_seconds\": "
       << columbia::bench::json_number(seq.total_seconds) << ",\n";
    os << "    \"events\": " << seq.events << ",\n";
    os << "    \"events_per_second\": "
       << columbia::bench::json_number(
              seq.events / std::max(seq.total_seconds, 1e-12))
       << ",\n";
    os << "    \"experiments\": [\n";
    for (std::size_t i = 0; i < seq.timings.size(); ++i) {
      os << columbia::bench::timing_to_json(seq.timings[i], 6)
         << (i + 1 < seq.timings.size() ? ",\n" : "\n");
    }
    os << "    ]\n  }"
       << (want_par || opts.spec.check || opts.spec.profile ? ",\n" : "\n");
  }
  if (want_par) {
    os << "  \"parallel\": {\n";
    os << "    \"total_seconds\": "
       << columbia::bench::json_number(par.total_seconds) << ",\n";
    os << "    \"events\": " << par.events << ",\n";
    os << "    \"events_per_second\": "
       << columbia::bench::json_number(
              par.events / std::max(par.total_seconds, 1e-12))
       << "\n  }"
       << (want_seq || opts.spec.check || opts.spec.profile ? ",\n" : "\n");
  }
  if (want_seq && want_par) {
    os << "  \"speedup\": "
       << columbia::bench::json_number(
              seq.total_seconds / std::max(par.total_seconds, 1e-12))
       << ",\n";
    os << "  \"reports_identical\": " << (identical ? "true" : "false")
       << (opts.spec.check || opts.spec.profile ? ",\n" : "\n");
  }
  if (opts.spec.check) {
    os << "  \"check\":\n" << check_report.to_json(2)
       << (opts.spec.profile ? ",\n" : "\n");
  }
  if (opts.spec.profile) {
    os << "  \"profile\":\n" << profile_report.to_json(2) << "\n";
  }
  os << "}\n";
  // Self-check: the summary we emit must satisfy the read-side contract.
  columbia::bench::assert_summary_schema(os.str());

  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(out).parent_path(), ec);
  std::string error;
  if (!columbia::core::write_file(out, os.str(), error)) {
    std::fprintf(stderr, "bench_all: %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return identical && check_report.clean() && race.diverged == 0 ? 0 : 1;
}
