// Tests for simcheck: each detector must fire on a deliberately buggy
// program (deadlock cycle, message/request leaks, collective divergence,
// wildcard races, invalid OpenMP region demand), and correct programs
// must come back clean. tests/test_registry.cpp holds the whole registry
// to a clean check with unaltered reports.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "machine/network.hpp"
#include "machine/placement.hpp"
#include "sim/run_context.hpp"
#include "simcheck/checker.hpp"
#include "simmpi/world.hpp"
#include "simomp/omp_model.hpp"

namespace columbia::simcheck {
namespace {

using machine::Cluster;
using machine::Network;
using machine::NodeType;
using machine::Placement;
using simmpi::kAny;
using simmpi::Rank;
using simmpi::World;

struct Rig {
  sim::Engine engine;
  Cluster cluster;
  Network network;
  World world;
  Checker checker;

  explicit Rig(int nranks, Cluster c = Cluster::single(NodeType::AltixBX2b))
      : cluster(std::move(c)),
        network(engine, cluster),
        world(engine, network, Placement::dense(cluster, nranks)) {
    checker.attach(world);
  }
};

bool any_detail_contains(const CheckReport& report, DiagKind kind,
                         const std::string& needle) {
  for (const auto& d : report.diagnostics) {
    if (d.kind == kind && d.detail.find(needle) != std::string::npos)
      return true;
  }
  return false;
}

// --- detector 1: deadlock ---------------------------------------------------

TEST(Deadlock, HeadToHeadRecvReportsTwoRankCycle) {
  Rig rig(2);
  EXPECT_THROW(rig.world.run([&](Rank& r) -> sim::CoTask<void> {
    // Classic head-to-head: both ranks receive before either sends.
    (void)co_await r.recv(1 - r.rank(), 0);
    co_await r.send(1 - r.rank(), 64.0, 0);
  }),
               sim::DeadlockError);
  const CheckReport& rep = rig.checker.report();
  ASSERT_EQ(rep.count(DiagKind::Deadlock), 1u) << rep.render();
  EXPECT_TRUE(any_detail_contains(rep, DiagKind::Deadlock, "wait-for cycle"))
      << rep.render();
  EXPECT_TRUE(any_detail_contains(rep, DiagKind::Deadlock,
                                  "rank 0 blocked in recv(src=1, tag=0)"))
      << rep.render();
  EXPECT_TRUE(any_detail_contains(rep, DiagKind::Deadlock, "2 of 2 ranks"))
      << rep.render();
}

TEST(Deadlock, FourRankRingCycleIsTraced) {
  Rig rig(4);
  EXPECT_THROW(rig.world.run([&](Rank& r) -> sim::CoTask<void> {
    // Every rank waits on its clockwise neighbour; nobody ever sends.
    (void)co_await r.recv((r.rank() + 1) % r.size(), 0);
  }),
               sim::DeadlockError);
  const CheckReport& rep = rig.checker.report();
  ASSERT_EQ(rep.count(DiagKind::Deadlock), 1u);
  // All four hops of the ring appear in the cycle.
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_TRUE(any_detail_contains(
        rep, DiagKind::Deadlock,
        "rank " + std::to_string(rank) + " blocked in recv"))
        << rep.render();
  }
}

TEST(Deadlock, RendezvousSendWithoutReceiverHasNoCycle) {
  Rig rig(2);
  EXPECT_THROW(rig.world.run([&](Rank& r) -> sim::CoTask<void> {
    if (r.rank() == 0) co_await r.send(1, 1e6, 0);  // rendezvous, no recv
  }),
               sim::DeadlockError);
  const CheckReport& rep = rig.checker.report();
  ASSERT_EQ(rep.count(DiagKind::Deadlock), 1u);
  EXPECT_TRUE(any_detail_contains(rep, DiagKind::Deadlock,
                                  "no wait-for cycle"))
      << rep.render();
  EXPECT_TRUE(any_detail_contains(rep, DiagKind::Deadlock, "rendezvous"))
      << rep.render();
}

// --- detector 2: leaks at finalize ------------------------------------------

TEST(Leaks, EagerSendNeverReceived) {
  Rig rig(2);
  rig.world.run([&](Rank& r) -> sim::CoTask<void> {
    // Eager sends complete at the sender, so the run drains normally and
    // only the finalize sweep can notice the stranded message.
    if (r.rank() == 0) co_await r.send(1, 512.0, 7);
  });
  const CheckReport& rep = rig.checker.report();
  ASSERT_EQ(rep.count(DiagKind::UnmatchedSend), 1u) << rep.render();
  EXPECT_EQ(rep.diagnostics[0].rank, 0);
  EXPECT_TRUE(any_detail_contains(rep, DiagKind::UnmatchedSend,
                                  "was never received"))
      << rep.render();
}

TEST(Leaks, UnwaitedRequestsOnBothSides) {
  Rig rig(2);
  rig.world.run([&](Rank& r) -> sim::CoTask<void> {
    if (r.rank() == 0) {
      (void)r.isend(1, 64.0, 0);  // driver delivers it, nobody waits
    } else {
      (void)r.irecv(0, 0);  // matches the send, also never waited
    }
    co_await r.engine().delay(1.0);  // let both drivers finish
  });
  const CheckReport& rep = rig.checker.report();
  EXPECT_EQ(rep.count(DiagKind::UnwaitedRequest), 2u) << rep.render();
  EXPECT_TRUE(any_detail_contains(rep, DiagKind::UnwaitedRequest, "isend"));
  EXPECT_TRUE(any_detail_contains(rep, DiagKind::UnwaitedRequest, "irecv"));
  // The message itself was delivered: no unmatched-send noise.
  EXPECT_EQ(rep.count(DiagKind::UnmatchedSend), 0u) << rep.render();
}

// --- detector 3: collective consistency -------------------------------------

TEST(Collectives, DivergentBcastRoots) {
  Rig rig(2);
  rig.world.run([&](Rank& r) -> sim::CoTask<void> {
    // Both ranks believe they are the root: each one only sends (eagerly),
    // so the run completes — the bug is visible only to the checker.
    co_await r.bcast(r.rank(), 4096.0);
  });
  const CheckReport& rep = rig.checker.report();
  ASSERT_GE(rep.count(DiagKind::CollectiveDivergence), 1u) << rep.render();
  EXPECT_TRUE(any_detail_contains(rep, DiagKind::CollectiveDivergence,
                                  "bcast(root=0"))
      << rep.render();
  EXPECT_TRUE(any_detail_contains(rep, DiagKind::CollectiveDivergence,
                                  "bcast(root=1"))
      << rep.render();
}

TEST(Collectives, DivergentByteCounts) {
  Rig rig(4);
  rig.world.run([&](Rank& r) -> sim::CoTask<void> {
    // Same op and root everywhere, but rank 2 contributes a different
    // message size.
    co_await r.allreduce(r.rank() == 2 ? 8192.0 : 4096.0);
  });
  const CheckReport& rep = rig.checker.report();
  EXPECT_GE(rep.count(DiagKind::CollectiveDivergence), 1u) << rep.render();
}

TEST(Collectives, MissingParticipantDetectedAtFinalize) {
  Rig rig(2);
  rig.world.run([&](Rank& r) -> sim::CoTask<void> {
    // Rank 1 skips the second (eager, root-push) bcast entirely.
    co_await r.bcast(0, 256.0);
    if (r.rank() == 0) co_await r.bcast(0, 256.0);
  });
  const CheckReport& rep = rig.checker.report();
  EXPECT_TRUE(any_detail_contains(rep, DiagKind::CollectiveDivergence,
                                  "participation diverges"))
      << rep.render();
}

TEST(Collectives, ConsistentSequencesAreClean) {
  Rig rig(8);
  rig.world.run([&](Rank& r) -> sim::CoTask<void> {
    co_await r.barrier();
    co_await r.bcast(0, 4096.0);
    co_await r.allreduce(1024.0);
    co_await r.alltoall(512.0);
    std::vector<double> mine{static_cast<double>(r.rank())};
    (void)co_await r.allreduce_sum(mine);
    // Per-rank payload sizes legitimately differ here; must not be flagged.
    std::vector<double> uneven(static_cast<std::size_t>(r.rank() + 1), 1.0);
    (void)co_await r.allgather_values(uneven);
  });
  EXPECT_TRUE(rig.checker.report().clean())
      << rig.checker.report().render();
  EXPECT_GT(rig.checker.report().stats.collectives, 0u);
}

// --- detector 4: wildcard races ---------------------------------------------

TEST(Wildcard, RaceWhenSeveralMessagesAreEligible) {
  Rig rig(3);
  rig.world.run([&](Rank& r) -> sim::CoTask<void> {
    if (r.rank() == 0) {
      // Let both messages land in the unexpected queue first.
      co_await r.engine().delay(1.0);
      (void)co_await r.recv(kAny, kAny);
      (void)co_await r.recv(kAny, kAny);
    } else {
      co_await r.send(0, 64.0, r.rank());
    }
  });
  const CheckReport& rep = rig.checker.report();
  ASSERT_EQ(rep.count(DiagKind::WildcardRace), 1u) << rep.render();
  EXPECT_EQ(rep.diagnostics[0].rank, 0);
  EXPECT_TRUE(any_detail_contains(rep, DiagKind::WildcardRace,
                                  "2 eligible messages"))
      << rep.render();
  // Both candidates are named.
  EXPECT_TRUE(any_detail_contains(rep, DiagKind::WildcardRace, "[source 1"));
  EXPECT_TRUE(any_detail_contains(rep, DiagKind::WildcardRace, "[source 2"));
}

TEST(Wildcard, SingleEligibleMessageIsNotARace) {
  Rig rig(2);
  rig.world.run([&](Rank& r) -> sim::CoTask<void> {
    if (r.rank() == 0) {
      co_await r.engine().delay(1.0);
      (void)co_await r.recv(kAny, kAny);
    } else {
      co_await r.send(0, 64.0, 0);
    }
  });
  EXPECT_TRUE(rig.checker.report().clean())
      << rig.checker.report().render();
}

TEST(Wildcard, SpecificSourceRecvIsNotARace) {
  Rig rig(3);
  rig.world.run([&](Rank& r) -> sim::CoTask<void> {
    if (r.rank() == 0) {
      co_await r.engine().delay(1.0);
      (void)co_await r.recv(1, kAny);
      (void)co_await r.recv(2, kAny);
    } else {
      co_await r.send(0, 64.0, 0);
    }
  });
  EXPECT_TRUE(rig.checker.report().clean())
      << rig.checker.report().render();
}

// --- OpenMP region validation -----------------------------------------------

TEST(Region, NonFiniteAndNegativeDemandFlagged) {
  simomp::RegionSpec bad;
  bad.total.flops = std::nan("");
  bad.total.mem_bytes = -5.0;
  CheckReport out;
  Checker::check_region(bad, 8, out);
  ASSERT_EQ(out.count(DiagKind::InvalidRegion), 1u);
  EXPECT_TRUE(any_detail_contains(out, DiagKind::InvalidRegion, "flops"));
  EXPECT_TRUE(any_detail_contains(out, DiagKind::InvalidRegion, "mem_bytes"));

  simomp::RegionSpec good;
  good.total.flops = 1e9;
  good.total.mem_bytes = 1e9;
  good.total.working_set = 1e6;
  CheckReport out2;
  Checker::check_region(good, 8, out2);
  EXPECT_TRUE(out2.clean());
}

TEST(Region, ArmedContextSeesRegionEvaluations) {
  sim::RunContext ctx;
  const auto sink = arm_check(ctx);
  const sim::RunScope scope(ctx);
  simomp::OmpModel model(machine::NodeSpec::bx2b());
  simomp::RegionSpec bad;
  bad.total.flops = std::nan("");
  bad.total.mem_bytes = 1e9;
  // The observer runs before argument validation, so the diagnostic lands
  // even though the model's own contract then rejects the NaN.
  EXPECT_THROW(
      (void)model.region_time(bad, 4, simomp::Pinning::Pinned,
                              perfmodel::KernelClass::StreamCopy),
      ContractError);
  CheckReport rep = sink->take_report();
  EXPECT_GE(rep.stats.regions, 1u);
  EXPECT_EQ(rep.count(DiagKind::InvalidRegion), 1u) << rep.render();
}

// --- report plumbing --------------------------------------------------------

TEST(Report, RenderAndJsonCarryDiagnostics) {
  CheckReport rep;
  rep.stats.worlds = 1;
  rep.diagnostics.push_back(
      {DiagKind::UnmatchedSend, 3, "send \"x\"\nnever received"});
  const std::string text = rep.render();
  EXPECT_NE(text.find("unmatched-send"), std::string::npos);
  EXPECT_NE(text.find("rank 3"), std::string::npos);
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"clean\": false"), std::string::npos);
  EXPECT_NE(json.find("\\\"x\\\"\\n"), std::string::npos) << json;

  CheckReport clean;
  EXPECT_NE(clean.to_json().find("\"clean\": true"), std::string::npos);
  EXPECT_NE(clean.render().find("simcheck: clean"), std::string::npos);
}

TEST(Report, MergeAccumulatesStatsAndSuppressed) {
  CheckReport a, b;
  a.stats.worlds = 1;
  a.stats.p2p_ops = 10;
  a.suppressed = 2;
  b.stats.worlds = 2;
  b.stats.collectives = 4;
  b.diagnostics.push_back({DiagKind::Deadlock, 0, "x"});
  a.merge(b);
  EXPECT_EQ(a.stats.worlds, 3u);
  EXPECT_EQ(a.stats.p2p_ops, 10u);
  EXPECT_EQ(a.stats.collectives, 4u);
  EXPECT_EQ(a.suppressed, 2u);
  EXPECT_EQ(a.diagnostics.size(), 1u);
  EXPECT_FALSE(a.clean());
}

TEST(Report, PerKindCapSuppressesFloods) {
  Rig rig(2);
  rig.world.run([&](Rank& r) -> sim::CoTask<void> {
    // 12 stranded eager sends: only kMaxPerKind survive in the report.
    if (r.rank() == 0) {
      for (int i = 0; i < 12; ++i) co_await r.send(1, 64.0, i);
    }
    co_return;
  });
  const CheckReport& rep = rig.checker.report();
  EXPECT_EQ(rep.count(DiagKind::UnmatchedSend), Checker::kMaxPerKind);
  EXPECT_EQ(rep.suppressed, 12u - Checker::kMaxPerKind);
  EXPECT_FALSE(rep.clean());
}

// --- clean programs ---------------------------------------------------------

TEST(Clean, CorrectProgramProducesCleanReportAndStats) {
  Rig rig(4);
  rig.world.run([&](Rank& r) -> sim::CoTask<void> {
    const int peer = r.rank() ^ 1;
    simmpi::Request rs = r.isend(peer, 1e6, 0);
    simmpi::Request rr = r.irecv(peer, 0);
    co_await r.compute(1e-3);
    (void)co_await r.wait(rr);
    (void)co_await r.wait(rs);
    co_await r.allreduce(4096.0);
  });
  const CheckReport& rep = rig.checker.report();
  EXPECT_TRUE(rep.clean()) << rep.render();
  EXPECT_GT(rep.stats.p2p_ops, 0u);
  EXPECT_EQ(rep.stats.collectives, 4u);
}

}  // namespace
}  // namespace columbia::simcheck
