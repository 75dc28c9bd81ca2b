#include "simrace/explorer.hpp"

#include <deque>
#include <memory>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/hash.hpp"
#include "sim/engine.hpp"
#include "sim/run_context.hpp"
#include "simmpi/observer.hpp"
#include "simmpi/world.hpp"

namespace columbia::simrace {

namespace {

/// The object representation of an integer, as bytes to hash.
template <typename T>
std::string_view bytes_of(const T& value) {
  return {reinterpret_cast<const char*>(&value), sizeof(value)};
}

std::uint64_t fingerprint_of(const std::string& bytes,
                             const simcheck::CheckReport& check) {
  std::uint64_t h = common::fnv1a64(bytes);
  for (const auto& d : check.diagnostics) {
    if (d.kind == simcheck::DiagKind::WildcardRace) continue;
    h = common::fnv1a64(simcheck::diag_kind_name(d.kind), h);
    h = common::fnv1a64(bytes_of(d.rank), h);
    h = common::fnv1a64(d.detail, h);
  }
  h = common::fnv1a64(bytes_of(check.stats.p2p_ops), h);
  return common::fnv1a64(bytes_of(check.stats.collectives), h);
}

/// Per-run shared state: the schedule plus the World construction counter
/// that turns "the third World this run built" into schedule key `world`.
struct ForcedRun {
  ForcingSchedule schedule;
  int next_world = 0;
};

/// The MatchPolicy product for one World of a forced run.
class WorldPolicy final : public simmpi::MatchPolicy {
 public:
  WorldPolicy(std::shared_ptr<ForcedRun> run, int world)
      : run_(std::move(run)), world_(world) {}

  int forced_source(int rank, int k) override {
    return run_->schedule.forced_source(world_, rank, k);
  }

 private:
  std::shared_ptr<ForcedRun> run_;
  int world_;
};

}  // namespace

RunOutcome run_under(const RaceScenario& scenario,
                     const ForcingSchedule& schedule,
                     machine::TransportModel transport) {
  sim::RunContext ctx;
  ctx.transport = transport;
  auto run = std::make_shared<ForcedRun>();
  run->schedule = schedule;
  ctx.world_match_policy =
      [run](simmpi::World&) -> std::shared_ptr<simmpi::MatchPolicy> {
    const int world = run->next_world++;
    // Worlds the schedule never touches get no policy at all, so they run
    // the unmodified (and bookkeeping-free) match path.
    if (!run->schedule.touches_world(world)) return nullptr;
    return std::make_shared<WorldPolicy>(run, world);
  };
  const auto check = simcheck::arm_check(ctx);
  RunOutcome out;
  {
    const sim::RunScope scope(ctx);
    try {
      out.bytes = scenario();
    } catch (const sim::DeadlockError&) {
      out.deadlocked = true;
    }
  }
  out.check = check->take_report();
  out.decisions = check->take_race_decisions();
  out.fingerprint = fingerprint_of(out.bytes, out.check);
  return out;
}

ExploreResult explore(const RaceScenario& scenario,
                      const ExploreOptions& opts) {
  ExploreResult result;
  std::deque<ForcingSchedule> frontier;
  std::set<std::string> visited;
  frontier.push_back(ForcingSchedule{});
  bool have_baseline = false;

  while (!frontier.empty()) {
    if (result.explored >= opts.max_execs) {
      result.truncated = static_cast<int>(frontier.size());
      break;
    }
    const ForcingSchedule sched = frontier.front();
    frontier.pop_front();
    if (!visited.insert(sched.canonical()).second) {
      // Same constraint set reached through a different derivation order:
      // the orderings commute, one run covers both (sleep-set pruning).
      ++result.pruned;
      continue;
    }

    const RunOutcome out = run_under(scenario, sched, opts.transport);
    ++result.explored;

    if (!have_baseline) {
      have_baseline = true;
      result.baseline_fingerprint = out.fingerprint;
      result.baseline_bytes = out.bytes;
      result.baseline_deadlocked = out.deadlocked;
    } else if (out.deadlocked) {
      // The forced sender never produced a matching message — this
      // constraint set is causally unreachable, not a divergence.
      ++result.infeasible;
      continue;
    } else if (out.fingerprint != result.baseline_fingerprint) {
      result.divergences.push_back({sched, out.fingerprint});
    }

    // Branch: one child per admissible alternative sender at each decision
    // this execution left free. Decisions already pinned by `sched` stay
    // pinned; the chosen source needs no entry (it is what the free match
    // produces under the same prefix).
    for (const auto& d : out.decisions) {
      if (sched.forces(d.world, d.rank, d.k)) continue;
      for (const int alt : d.alternative_sources) {
        ForcingSchedule next = sched;
        next.entries.push_back({d.world, d.rank, d.k, alt});
        frontier.push_back(std::move(next));
      }
    }
  }
  return result;
}

std::string ExploreResult::render(const std::string& label) const {
  std::ostringstream os;
  os << "simrace: " << label << ": " << explored << " execution(s), "
     << pruned << " pruned, " << infeasible << " infeasible, "
     << divergences.size() << " divergence(s)";
  if (truncated > 0) {
    os << " [truncated: " << truncated
       << " schedule(s) unexplored at --max-execs]";
  }
  if (baseline_deadlocked) os << " [baseline deadlocked]";
  os << "\n";
  for (std::size_t i = 0; i < divergences.size(); ++i) {
    const auto& d = divergences[i];
    os << "  confirmed race #" << i << ": fingerprint "
       << common::hex64(d.fingerprint) << " != baseline "
       << common::hex64(baseline_fingerprint) << "; schedule "
       << d.schedule.canonical() << "\n";
  }
  return os.str();
}

}  // namespace columbia::simrace
