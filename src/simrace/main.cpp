// simrace: wildcard-receive ordering explorer for registry experiments.
//
//   $ ./simrace --list                     # registry listing
//   $ ./simrace fig5                       # explore fig5's orderings
//   $ ./simrace --max-execs 32 --filter ext-
//   $ ./simrace --replay race.schedule fig5
//                                          # re-run one forcing schedule;
//                                          # stdout is byte-deterministic
//
// Exploration replays each selected experiment sequentially, forcing every
// admissible alternative sender at each wildcard-receive decision (simmpi
// MatchPolicy seam) within the --max-execs budget, and hash-compares the
// executions. A divergence is a confirmed order-dependence: the forcing
// schedule is printed (and written under --out as <id>.race<N>.schedule)
// for `--replay`. Exit status: 0 = no divergence, 1 = at least one
// confirmed race, 2 = usage/setup error.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/run_options.hpp"
#include "machine/transport.hpp"
#include "simrace/explorer.hpp"
#include "simrace/schedule.hpp"

namespace {

using columbia::core::Exec;
using columbia::core::Experiment;

bool read_file(const std::string& path, std::string& out, std::string& error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    error = "cannot read " + path;
    return false;
  }
  std::ostringstream os;
  os << is.rdbuf();
  out = os.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace columbia;

  core::RunOptionsParser parser(
      "simrace", "[options] [experiment-id...]",
      {"--list", "--filter", "--out", "--transport", "--max-execs"});
  std::string replay;
  parser.add_flag("--replay", "<schedule>",
                  "replay one serialized forcing schedule instead of exploring",
                  [&replay](const std::string& v, std::string&) {
                    replay = v;
                    return true;
                  });
  parser.allow_positional();
  core::RunOptions opts;
  if (!parser.parse(argc, argv, opts)) return 2;
  if (opts.help) return 0;
  simrace::ExploreOptions eopts;
  eopts.max_execs = opts.spec.max_execs;
  {
    std::string terr;
    if (!machine::parse_transport(opts.spec.transport, eopts.transport,
                                  terr)) {
      std::fprintf(stderr, "simrace: %s\n", terr.c_str());
      return 2;
    }
  }

  if (opts.list) {
    std::printf("columbia experiment registry (%d paper artifacts):\n\n%s",
                core::paper_artifact_count(),
                core::registry_listing().c_str());
    return 0;
  }

  // Select experiments: explicit ids, then --filter matches.
  std::vector<const Experiment*> selected;
  for (const auto& id : opts.ids) {
    const auto* exp = core::find_experiment(id);
    if (exp == nullptr) {
      std::fprintf(stderr,
                   "simrace: unknown experiment id: %s (--list for the "
                   "registry)\n",
                   id.c_str());
      return 2;
    }
    selected.push_back(exp);
  }
  for (const auto& needle : opts.filters) {
    int matched = 0;
    for (const auto& e : core::experiment_registry()) {
      if (e.id.find(needle) == std::string::npos) continue;
      ++matched;
      selected.push_back(&e);
    }
    if (matched == 0) {
      std::fprintf(stderr, "simrace: --filter %s matched no experiment ids\n",
                   needle.c_str());
      return 2;
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr,
                 "simrace: name at least one experiment (or --filter; "
                 "--list for the registry)\n");
    return 2;
  }

  // Exploration keys schedules by World construction order, so scenarios
  // always run sequentially here.
  auto scenario_of = [](const Experiment* exp) -> simrace::RaceScenario {
    return [exp] { return exp->run_exec(Exec::sequential()).render(); };
  };

  if (!replay.empty()) {
    if (selected.size() != 1) {
      std::fprintf(stderr,
                   "simrace: --replay takes exactly one experiment id\n");
      return 2;
    }
    std::string text;
    std::string err;
    if (!read_file(replay, text, err)) {
      std::fprintf(stderr, "simrace: %s\n", err.c_str());
      return 2;
    }
    simrace::ForcingSchedule schedule;
    if (!simrace::ForcingSchedule::parse(text, schedule, err)) {
      std::fprintf(stderr, "simrace: %s\n", err.c_str());
      return 2;
    }
    const auto out = simrace::run_under(scenario_of(selected.front()),
                                        schedule, eopts.transport);
    // stdout is the replay contract: byte-identical across invocations.
    std::fputs(out.bytes.c_str(), stdout);
    std::printf("simrace: replay %s under %s: fingerprint %016llx%s\n",
                selected.front()->id.c_str(),
                schedule.empty() ? "<free run>" : schedule.canonical().c_str(),
                static_cast<unsigned long long>(out.fingerprint),
                out.deadlocked ? " (deadlocked: schedule infeasible)" : "");
    return 0;
  }

  if (!opts.out.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.out, ec);
    if (ec) {
      std::fprintf(stderr, "simrace: cannot create --out directory %s: %s\n",
                   opts.out.c_str(), ec.message().c_str());
      return 2;
    }
  }

  bool any_race = false;
  for (const auto* exp : selected) {
    const auto result = simrace::explore(scenario_of(exp), eopts);
    std::fputs(result.render(exp->id).c_str(), stdout);
    any_race = any_race || result.raced();
    if (!opts.out.empty()) {
      for (std::size_t i = 0; i < result.divergences.size(); ++i) {
        const auto path =
            std::filesystem::path(opts.out) /
            (exp->id + ".race" + std::to_string(i) + ".schedule");
        std::ofstream os(path, std::ios::binary);
        os << result.divergences[i].schedule.serialize();
      }
    }
  }
  return any_race ? 1 : 0;
}
