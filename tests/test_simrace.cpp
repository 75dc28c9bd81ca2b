// simrace's suite. The heart is the seeded fixture: a 3-rank scenario
// whose rendered output depends on which sender a wildcard receive
// matches first. The explorer must (a) confirm the race within a bounded
// execution budget, (b) hand back a forcing schedule whose replay is
// byte-identical across invocations, and (c) stay silent on a scenario
// that consumes the same wildcard nondeterminism order-insensitively.
// Around that: the MatchPolicy seam end to end, infeasible schedules
// deadlocking (not diverging), each execution's own RunContext, the
// schedule codec, and — unless the ASan build compiles them out — a
// registry smoke pass proving the paper artifacts are wildcard-race-free.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "machine/network.hpp"
#include "machine/placement.hpp"
#include "sim/run_context.hpp"
#include "simmpi/world.hpp"
#include "simrace/explorer.hpp"
#include "simrace/schedule.hpp"

#ifndef COLUMBIA_SIMRACE_NO_REGISTRY
#include "core/experiment.hpp"
#endif

namespace columbia::simrace {
namespace {

using machine::Cluster;
using machine::Network;
using machine::NodeType;
using machine::Placement;
using simmpi::kAny;
using simmpi::Message;
using simmpi::Rank;
using simmpi::World;

struct Rig {
  sim::Engine engine;
  Cluster cluster;
  Network network;
  World world;

  explicit Rig(int nranks, Cluster c = Cluster::single(NodeType::AltixBX2b))
      : cluster(std::move(c)),
        network(engine, cluster),
        world(engine, network, Placement::dense(cluster, nranks)) {}
};

/// Ranks 1 and 2 race one message each into rank 0's two wildcard
/// receives; the rendered result encodes which arrived first. This is the
/// seeded order-dependence simrace exists to catch.
std::string order_dependent_scenario() {
  Rig rig(3);
  std::ostringstream os;
  rig.world.run([&](Rank& r) -> sim::CoTask<void> {
    if (r.rank() == 0) {
      Message first = co_await r.recv(kAny, kAny);
      Message second = co_await r.recv(kAny, kAny);
      os << "winner=" << first.source << " loser=" << second.source << "\n";
    } else {
      co_await r.send(0, 64.0, /*tag=*/7);
    }
  });
  return os.str();
}

/// Same wildcard nondeterminism, order-insensitive consumption: the sum
/// of the received sources is the same under every admissible matching.
std::string order_independent_scenario() {
  Rig rig(3);
  std::ostringstream os;
  rig.world.run([&](Rank& r) -> sim::CoTask<void> {
    if (r.rank() == 0) {
      Message first = co_await r.recv(kAny, kAny);
      Message second = co_await r.recv(kAny, kAny);
      os << "sources_sum=" << first.source + second.source << "\n";
    } else {
      co_await r.send(0, 64.0, /*tag=*/7);
    }
  });
  return os.str();
}

TEST(Schedule, CodecRoundTripsAndRejectsGarbage) {
  ForcingSchedule sched;
  sched.entries.push_back({0, 0, 1, 2});
  sched.entries.push_back({0, 0, 0, 1});

  ForcingSchedule parsed;
  std::string err;
  ASSERT_TRUE(ForcingSchedule::parse(sched.serialize(), parsed, err)) << err;
  EXPECT_EQ(parsed.canonical(), sched.canonical());
  EXPECT_EQ(parsed.entries.size(), 2u);
  EXPECT_TRUE(parsed.forces(0, 0, 1));
  EXPECT_EQ(parsed.forced_source(0, 0, 1), 2);
  EXPECT_EQ(parsed.forced_source(0, 0, 9), -1);
  EXPECT_TRUE(parsed.touches_world(0));
  EXPECT_FALSE(parsed.touches_world(1));

  EXPECT_FALSE(ForcingSchedule::parse("0:0:zero:1\n", parsed, err));
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
}

TEST(MatchPolicy, ForcedScheduleSelectsTheAlternativeSender) {
  const auto baseline = run_under(order_dependent_scenario, {});
  ASSERT_FALSE(baseline.deadlocked);
  ASSERT_FALSE(baseline.decisions.empty());
  const auto& d = baseline.decisions.front();
  EXPECT_EQ(d.rank, 0);
  EXPECT_EQ(d.k, 0);
  ASSERT_EQ(d.alternative_sources.size(), 1u);

  ForcingSchedule flip;
  flip.entries.push_back({d.world, d.rank, d.k, d.alternative_sources[0]});
  const auto forced = run_under(order_dependent_scenario, flip);
  ASSERT_FALSE(forced.deadlocked);
  EXPECT_NE(forced.bytes, baseline.bytes);
  const std::string want =
      "winner=" + std::to_string(d.alternative_sources[0]) + " ";
  EXPECT_EQ(forced.bytes.substr(0, want.size()), want) << forced.bytes;
}

TEST(MatchPolicy, InfeasibleForcingDeadlocksInsteadOfDiverging) {
  ForcingSchedule impossible;
  impossible.entries.push_back({0, 0, 0, /*source=*/5});  // nobody sends
  const auto out = run_under(order_dependent_scenario, impossible);
  EXPECT_TRUE(out.deadlocked);
}

TEST(Explore, ConfirmsTheSeededRaceWithinBudget) {
  ExploreOptions opts;
  opts.max_execs = 8;
  const auto result = explore(order_dependent_scenario, opts);
  EXPECT_TRUE(result.raced());
  EXPECT_LE(result.explored, opts.max_execs);
  ASSERT_FALSE(result.divergences.empty());
  EXPECT_NE(result.divergences[0].fingerprint, result.baseline_fingerprint);
  // The render names the race and carries the forcing schedule.
  const std::string rendered = result.render("fixture");
  EXPECT_NE(rendered.find("confirmed race #0"), std::string::npos) << rendered;
}

TEST(Explore, DivergentScheduleReplaysByteIdentically) {
  ExploreOptions opts;
  opts.max_execs = 8;
  const auto result = explore(order_dependent_scenario, opts);
  ASSERT_TRUE(result.raced());
  const ForcingSchedule& sched = result.divergences[0].schedule;

  const auto once = run_under(order_dependent_scenario, sched);
  const auto twice = run_under(order_dependent_scenario, sched);
  EXPECT_EQ(once.bytes, twice.bytes);
  EXPECT_EQ(once.fingerprint, twice.fingerprint);
  EXPECT_EQ(once.fingerprint, result.divergences[0].fingerprint);
  EXPECT_NE(once.bytes, result.baseline_bytes);
}

TEST(Explore, OrderInsensitiveConsumptionShowsNoDivergence) {
  ExploreOptions opts;
  opts.max_execs = 16;
  const auto result = explore(order_independent_scenario, opts);
  // The wildcard decisions are still there — the explorer walks them —
  // but every admissible matching renders the same bytes.
  EXPECT_GE(result.explored, 2);
  EXPECT_TRUE(result.divergences.empty()) << result.render("independent");
}

TEST(Explore, MaxExecsBoundsTheWalkAndReportsTruncation) {
  ExploreOptions opts;
  opts.max_execs = 1;
  const auto result = explore(order_dependent_scenario, opts);
  EXPECT_EQ(result.explored, 1);
  EXPECT_FALSE(result.raced());  // budget too small to reach the race
  EXPECT_GT(result.truncated, 0);
}

TEST(Explore, RunsUnderItsOwnContextNotTheCallers) {
  // Each execution installs its own RunContext: a caller's armed context
  // sees none of the explored Worlds and is back in place afterwards.
  sim::RunContext outer;
  const auto outer_check = simcheck::arm_check(outer);
  const sim::RunScope scope(outer);
  ExploreOptions opts;
  opts.max_execs = 8;
  const auto result = explore(order_dependent_scenario, opts);
  EXPECT_TRUE(result.raced());
  EXPECT_EQ(sim::current_run_context(), &outer);
  EXPECT_EQ(outer_check->take_report().stats.worlds, 0u);
}

#ifndef COLUMBIA_SIMRACE_NO_REGISTRY

TEST(Registry, PaperArtifactsExploreCleanUnderWildcardForcing) {
  // The acceptance smoke: real experiments (cheap ones — the walk re-runs
  // each scenario per execution) report zero divergences. Their
  // communication either uses concrete sources or consumes wildcards
  // order-insensitively, so exploration terminates at the baseline.
  for (const char* id : {"table1", "ext-shmem", "table2"}) {
    const auto* exp = core::find_experiment(id);
    ASSERT_NE(exp, nullptr) << id;
    const auto scenario = [exp] {
      return exp->run_exec(core::Exec::sequential()).render();
    };
    ExploreOptions opts;
    opts.max_execs = 8;
    const auto result = explore(scenario, opts);
    EXPECT_GE(result.explored, 1) << id;
    EXPECT_TRUE(result.divergences.empty()) << id << ":\n"
                                            << result.render(id);
    EXPECT_FALSE(result.baseline_deadlocked) << id;
  }
}

#endif  // COLUMBIA_SIMRACE_NO_REGISTRY

}  // namespace
}  // namespace columbia::simrace
