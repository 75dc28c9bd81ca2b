// Tests for the simprof profiling subsystem: the trace recorder (span
// totals, timeline cap, CSV / chrome://tracing export), the communication
// matrix, the critical-path analyzer on hand-built 2–4-rank programs
// (late sender under eager and rendezvous, collective barrier chains),
// the per-world roll-up, composition with the simcheck analyzer through
// the observer fan-out, and analyzed runs under separate RunContexts on
// several threads (test_simprof_tsan runs this suite under TSAN).

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "machine/network.hpp"
#include "machine/placement.hpp"
#include "sim/run_context.hpp"
#include "simcheck/checker.hpp"
#include "simio/filesystem.hpp"
#include "simomp/omp_model.hpp"
#include "simprof/comm_matrix.hpp"
#include "simprof/critical_path.hpp"
#include "simprof/profiler.hpp"
#include "simprof/recorder.hpp"

namespace columbia::simprof {
namespace {

using machine::Cluster;
using machine::Network;
using machine::NodeType;
using machine::Placement;
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

// A message comfortably above World::kEagerThreshold (16 KiB).
constexpr double kRendezvousBytes = 1 << 20;

// --- TraceRecorder ----------------------------------------------------------

TEST(Recorder, RecordsTotalsAndUtilization) {
  TraceRecorder trace;
  trace.record(0, sim::SpanKind::Compute, 0.0, 2.0);
  trace.record(0, sim::SpanKind::Communication, 2.0, 3.0);
  trace.record(1, sim::SpanKind::Compute, 0.0, 1.0);
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.total(sim::SpanKind::Compute), 3.0);
  EXPECT_DOUBLE_EQ(trace.total(sim::SpanKind::Compute, 0), 2.0);
  EXPECT_DOUBLE_EQ(trace.total(sim::SpanKind::Communication, 1), 0.0);
  EXPECT_DOUBLE_EQ(trace.utilization(0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(trace.utilization(1, 4.0), 0.25);
  // Degenerate makespan: defined as zero, not a contract violation.
  EXPECT_DOUBLE_EQ(trace.utilization(0, 0.0), 0.0);
}

TEST(Recorder, DropsZeroLengthAndRejectsNegative) {
  TraceRecorder trace;
  trace.record(0, sim::SpanKind::Io, 1.0, 1.0);
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_THROW(trace.record(0, sim::SpanKind::Io, 2.0, 1.0), ContractError);
}

TEST(Recorder, CsvRendersEveryRow) {
  TraceRecorder trace;
  trace.record(3, sim::SpanKind::Communication, 0.5, 1.5);
  const auto csv = trace.csv();
  EXPECT_NE(csv.find("actor,kind,begin,end"), std::string::npos);
  EXPECT_NE(csv.find("3,comm,0.5,1.5"), std::string::npos);
}

TEST(Recorder, TimelineCapDropsSpansButKeepsTotalsExact) {
  TraceRecorder trace(/*max_spans=*/2);
  for (int i = 0; i < 5; ++i)
    trace.record(0, sim::SpanKind::Compute, i, i + 1.0);
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.dropped(), 3u);
  EXPECT_DOUBLE_EQ(trace.total(sim::SpanKind::Compute), 5.0);
  EXPECT_DOUBLE_EQ(trace.utilization(0, 10.0), 0.5);
}

TEST(Recorder, ChromeJsonHasCompleteInstantAndMetadataEvents) {
  TraceRecorder trace;
  trace.record(0, sim::SpanKind::Compute, 0.0, 1.0);
  trace.record(2, sim::SpanKind::Wire, 0.5, 0.75);
  trace.mark(0, "allreduce", 1.0);
  const std::string json = trace.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("allreduce"), std::string::npos);
  // 1.0 s of compute == 1e6 trace microseconds (%g prints it as 1e+06).
  EXPECT_NE(json.find("\"dur\": 1e+06"), std::string::npos);
}

// --- CommMatrix -------------------------------------------------------------

TEST(Matrix, RecordsGrowsAndTotals) {
  CommMatrix m(2);
  m.record(0, 1, 100.0);
  m.record(0, 1, 100.0);
  m.record(5, 2, 8.0);  // out of range: grows to 6
  EXPECT_EQ(m.size(), 6);
  EXPECT_DOUBLE_EQ(m.bytes(0, 1), 200.0);
  EXPECT_EQ(m.messages(0, 1), 2u);
  EXPECT_DOUBLE_EQ(m.bytes(5, 2), 8.0);
  EXPECT_DOUBLE_EQ(m.total_bytes(), 208.0);
  EXPECT_EQ(m.total_messages(), 3u);
}

TEST(Matrix, HistogramBucketsAreLog2) {
  EXPECT_EQ(CommMatrix::bucket_of(0.0), 0);
  EXPECT_EQ(CommMatrix::bucket_of(1.0), 1);
  EXPECT_EQ(CommMatrix::bucket_of(2.0), 2);
  EXPECT_EQ(CommMatrix::bucket_of(1024.0), 11);
  EXPECT_LT(CommMatrix::bucket_of(1e30), CommMatrix::kHistBuckets);
  CommMatrix m(2);
  m.record(0, 1, 1024.0);
  EXPECT_EQ(m.histogram()[CommMatrix::bucket_of(1024.0)], 1u);
}

TEST(Matrix, MergeAndCsv) {
  CommMatrix a(2), b(4);
  a.record(0, 1, 64.0);
  b.record(3, 0, 32.0);
  a.merge(b);
  EXPECT_EQ(a.size(), 4);
  EXPECT_DOUBLE_EQ(a.bytes(3, 0), 32.0);
  const std::string csv = a.csv();
  EXPECT_NE(csv.find("src,dst,messages,bytes"), std::string::npos);
  EXPECT_NE(csv.find("0,1,1,64"), std::string::npos);
  EXPECT_NE(csv.find("3,0,1,32"), std::string::npos);
  EXPECT_NE(csv.find("# size_histogram"), std::string::npos);
}

// --- Critical path on hand-built programs -----------------------------------

// Late sender, eager protocol: rank 1 posts its receive immediately; rank 0
// computes 1 s first. The path must run through rank 0's compute, not
// through rank 1's blocked wait.
TEST(CriticalPath, LateSenderEagerAttributesComputeToSender) {
  Rig rig(2);
  Profiler prof;
  prof.attach(rig.world);
  const double makespan = rig.world.run([](Rank& r) -> sim::CoTask<void> {
    if (r.rank() == 0) {
      co_await r.compute(1.0);
      co_await r.send(1, 1024.0, 0);
    } else {
      (void)co_await r.recv(0, 0);
    }
  });
  ASSERT_TRUE(prof.finalized());
  const CriticalPathResult& cp = prof.profile().critical_path;
  EXPECT_FALSE(cp.truncated);
  EXPECT_NEAR(cp.sum(), makespan, 1e-9);
  EXPECT_NEAR(cp.sum(), prof.profile().makespan, 1e-9);
  // The sender's 1 s of compute dominates the path; the receiver's idle
  // wait is hidden behind it, not double counted.
  EXPECT_NEAR(cp.compute, 1.0, 1e-9);
  EXPECT_LT(cp.blocked_wait, 1e-3);
  EXPECT_GT(cp.serialization + cp.wire, 0.0);
}

// Same shape under rendezvous: the receiver matches late, so the sender's
// transfer cannot start before the handshake; the path still sums exactly.
TEST(CriticalPath, LateReceiverRendezvousSumsToMakespan) {
  Rig rig(2);
  Profiler prof;
  prof.attach(rig.world);
  const double makespan = rig.world.run([](Rank& r) -> sim::CoTask<void> {
    if (r.rank() == 0) {
      co_await r.send(1, kRendezvousBytes, 0);
    } else {
      co_await r.compute(0.5);
      (void)co_await r.recv(0, 0);
    }
  });
  ASSERT_TRUE(prof.finalized());
  const CriticalPathResult& cp = prof.profile().critical_path;
  EXPECT_FALSE(cp.truncated);
  EXPECT_NEAR(cp.sum(), makespan, 1e-9);
  // The receiver computed 0.5 s before matching; that compute is on the
  // path, plus the rendezvous transfer's wire time.
  EXPECT_NEAR(cp.compute, 0.5, 1e-9);
  EXPECT_GT(cp.wire, 0.0);
  // One rendezvous op was sampled on each side.
  bool saw_rendezvous = false;
  for (const auto& op : prof.op_samples())
    if (op.is_send && op.rendezvous) saw_rendezvous = true;
  EXPECT_TRUE(saw_rendezvous);
}

// Symmetric exchange at identical timestamps: both ranks post sends at the
// same instant. Exercises the same-time sender<->receiver jump-cycle guard.
TEST(CriticalPath, SymmetricExchangeTerminatesAndSums) {
  Rig rig(2);
  Profiler prof;
  prof.attach(rig.world);
  const double makespan = rig.world.run([](Rank& r) -> sim::CoTask<void> {
    const int peer = 1 - r.rank();
    for (int i = 0; i < 4; ++i) co_await r.sendrecv(peer, 1e5, peer, 0);
  });
  ASSERT_TRUE(prof.finalized());
  const CriticalPathResult& cp = prof.profile().critical_path;
  EXPECT_FALSE(cp.truncated);
  EXPECT_NEAR(cp.sum(), makespan, 1e-9);
}

// Four ranks with staggered compute meeting at barriers: the slowest rank
// sets the pace, so the path's compute component tracks the per-round max.
TEST(CriticalPath, BarrierChainFollowsSlowestRank) {
  Rig rig(4);
  Profiler prof;
  prof.attach(rig.world);
  const double makespan = rig.world.run([](Rank& r) -> sim::CoTask<void> {
    for (int round = 0; round < 3; ++round) {
      co_await r.compute(0.1 * (r.rank() + 1));
      co_await r.barrier();
    }
  });
  ASSERT_TRUE(prof.finalized());
  const CriticalPathResult& cp = prof.profile().critical_path;
  EXPECT_FALSE(cp.truncated);
  EXPECT_NEAR(cp.sum(), makespan, 1e-9);
  // Rank 3 computes 0.4 s per round; three rounds of it must be on the path.
  EXPECT_GE(cp.compute, 3 * 0.4 - 1e-9);
  EXPECT_LT(cp.compute, makespan);
}

TEST(CriticalPath, EmptyInputIsAllBlockedWait) {
  const auto cp = analyze_critical_path({}, {}, 2, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(cp.makespan, 1.0);
  EXPECT_DOUBLE_EQ(cp.blocked_wait, 1.0);
  EXPECT_NEAR(cp.sum(), 1.0, 1e-12);
  EXPECT_FALSE(cp.truncated);
}

// --- Profiler roll-up -------------------------------------------------------

TEST(Profiler, RankBreakdownMatchesWorldAccounting) {
  Rig rig(2);
  Profiler prof;
  prof.attach(rig.world);
  rig.world.run([](Rank& r) -> sim::CoTask<void> {
    co_await r.compute(0.25 * (r.rank() + 1));
    const int peer = 1 - r.rank();
    co_await r.sendrecv(peer, 1e5, peer, 0);
  });
  const WorldProfile& p = prof.profile();
  ASSERT_EQ(p.nranks, 2);
  ASSERT_EQ(p.ranks.size(), 2u);
  for (const auto& rb : p.ranks) {
    const auto& rank = rig.world.rank(rb.rank);
    EXPECT_NEAR(rb.compute_s, rank.compute_seconds(), 1e-12);
    EXPECT_NEAR(rb.comm_s, rank.comm_seconds(), 1e-12);
    EXPECT_GE(rb.comm_fraction(), 0.0);
    EXPECT_LE(rb.comm_fraction(), 1.0);
  }
  // Rank 1 computes twice as long as rank 0: imbalance = max/mean = 4/3.
  EXPECT_NEAR(p.load_imbalance(), (0.5) / (0.375), 1e-9);
  // sendrecv overlaps its send and recv spans (when_all), so busy time —
  // like the seed's comm_seconds_ accounting — double-counts the overlap
  // and utilization may exceed 1.
  EXPECT_GT(p.mean_utilization(), 0.0);
  // Two sendrecv halves -> 2 messages of 1e5 bytes in the matrix.
  EXPECT_EQ(prof.comm_matrix().total_messages(), 2u);
  EXPECT_DOUBLE_EQ(prof.comm_matrix().total_bytes(), 2e5);
  EXPECT_DOUBLE_EQ(prof.comm_matrix().bytes(0, 1), 1e5);
  EXPECT_DOUBLE_EQ(prof.comm_matrix().bytes(1, 0), 1e5);
}

TEST(Profiler, PureListenerDoesNotPerturbTiming) {
  const auto program = [](Rank& r) -> sim::CoTask<void> {
    co_await r.compute(0.1 * (r.rank() + 1));
    co_await r.allreduce(1 << 18);
    const int peer = r.rank() ^ 1;
    co_await r.sendrecv(peer, kRendezvousBytes, peer, 3);
  };
  Rig plain(4);
  const double t_plain = plain.world.run(program);

  Rig profiled(4);
  Profiler prof;
  prof.attach(profiled.world);
  const double t_prof = profiled.world.run(program);

  EXPECT_DOUBLE_EQ(t_plain, t_prof);
  EXPECT_NEAR(prof.profile().critical_path.sum(), t_plain, 1e-9);
}

sim::CoTask<void> compute_then_dump(simio::Filesystem& fs, Rank& r) {
  co_await r.compute(1e-3 * (r.rank() + 1));
  simio::File f = fs.file(r.cpu());
  co_await f.open(r);
  co_await f.write(r, 8.0 * 1024 * 1024);
  co_await f.close(r);
}

TEST(Profiler, IoSpansFillIoSecondsAndTheCriticalPath) {
  // The SpanKind::Io path end to end: simio's rank-attributed file
  // operations emit Io spans into the same sink the profiler listens on,
  // so per-rank io_s and the critical path's io component both light up
  // (before src/simio existed this was a dead code path).
  Rig rig(4);
  Profiler prof;
  prof.attach(rig.world);
  simio::Filesystem fs(rig.engine,
                       machine::FilesystemSpec::shared_parallel());
  const double makespan = rig.world.run(
      [&fs](Rank& r) { return compute_then_dump(fs, r); });
  const WorldProfile& p = prof.profile();
  ASSERT_EQ(p.ranks.size(), 4u);
  for (const auto& rb : p.ranks) {
    EXPECT_GT(rb.io_s, 0.0) << "rank " << rb.rank;
    EXPECT_NEAR(rb.io_s, rig.world.rank(rb.rank).io_seconds(), 1e-12);
    EXPECT_GT(rb.compute_s, 0.0) << "rank " << rb.rank;
  }
  // The run ends inside the last rank's write, so the walk must attribute
  // a nonzero stretch to I/O — and the partition identity still holds.
  EXPECT_GT(p.critical_path.io, 0.0);
  EXPECT_NEAR(p.critical_path.sum(), makespan, 1e-9);
}

TEST(Profiler, ReportRenderAndJsonCarryTheRollup) {
  Rig rig(2);
  Profiler prof;
  prof.publish_to(nullptr);
  prof.attach(rig.world);
  rig.world.run([](Rank& r) -> sim::CoTask<void> {
    co_await r.compute(0.5);
    co_await r.allreduce(4096.0);
  });
  ProfileReport report;
  report.worlds.push_back(prof.profile());
  report.stats.worlds = 1;
  const std::string text = report.render();
  EXPECT_NE(text.find("critical path"), std::string::npos);
  const std::string json = report.to_json(2);
  EXPECT_NE(json.find("\"worlds\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.find("\"comm_fraction\""), std::string::npos);
}

// --- Per-run profile + composition with simcheck ----------------------------

TEST(Context, ProfileAndCheckComposeThroughObserverFanout) {
  simcheck::CheckReport check;
  ProfileReport profile;
  TraceArtifacts trace;
  double makespan = 0.0;
  {
    sim::RunContext ctx;
    const auto profile_sink = arm_profile(ctx);
    const auto check_sink = simcheck::arm_check(ctx);
    {
      const sim::RunScope scope(ctx);
      Rig rig(4);
      makespan = rig.world.run([](Rank& r) -> sim::CoTask<void> {
        co_await r.compute(1e-3 * (r.rank() + 1));
        co_await r.allreduce(8192.0);
        const int peer = r.rank() ^ 1;
        co_await r.sendrecv(peer, 1e5, peer, 5);
      });
    }
    check = check_sink->take_report();
    profile = profile_sink->take_report();
    trace = profile_sink->take_trace();
  }
  EXPECT_EQ(sim::current_run_context(), nullptr);

  EXPECT_TRUE(check.clean()) << check.render();
  EXPECT_GT(check.stats.p2p_ops, 0u);
  ASSERT_EQ(profile.worlds.size(), 1u);
  const WorldProfile& w = profile.worlds[0];
  EXPECT_EQ(w.nranks, 4);
  EXPECT_NEAR(w.makespan, makespan, 1e-12);
  EXPECT_NEAR(w.critical_path.sum(), w.makespan, 1e-9);
  ASSERT_TRUE(trace.valid);
  EXPECT_EQ(trace.nranks, 4);
  EXPECT_GT(trace.spans.size(), 0u);
  EXPECT_NE(trace.chrome_json().find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.gantt_csv().find("actor,kind,begin,end"), std::string::npos);
  EXPECT_NE(trace.comm_csv().find("src,dst,messages,bytes"),
            std::string::npos);
}

TEST(Context, TakenTwiceIsEmptyAndScopeExitDetaches) {
  sim::RunContext ctx;
  const auto sink = arm_profile(ctx);
  {
    const sim::RunScope scope(ctx);
    {
      Rig rig(2);
      rig.world.run([](Rank& r) -> sim::CoTask<void> {
        co_await r.allreduce(128.0);
      });
    }
    ProfileReport first = sink->take_report();
    EXPECT_EQ(first.worlds.size(), 1u);
    ProfileReport second = sink->take_report();
    EXPECT_EQ(second.worlds.size(), 0u);
  }
  // Worlds constructed after the scope exits are not profiled.
  {
    Rig rig(2);
    rig.world.run([](Rank& r) -> sim::CoTask<void> {
      co_await r.allreduce(128.0);
    });
  }
  ProfileReport after = sink->take_report();
  EXPECT_EQ(after.worlds.size(), 0u);
  EXPECT_EQ(after.stats.worlds, 0u);
}

/// Three small checked/profiled Worlds and one OpenMP region, built under
/// whatever context is installed.
void analyzed_worlds(int nranks) {
  for (int round = 0; round < 3; ++round) {
    Rig rig(nranks);
    rig.world.run([round](Rank& r) -> sim::CoTask<void> {
      co_await r.compute(1e-4 * (r.rank() + round + 1));
      co_await r.allreduce(4096.0);
      const int peer = r.rank() ^ 1;
      co_await r.sendrecv(peer, kRendezvousBytes, peer, 3);
    });
  }
  simomp::OmpModel model(machine::NodeSpec::bx2b());
  simomp::RegionSpec region;
  region.total.flops = 1e9;
  region.total.mem_bytes = 1e8;
  (void)model.region_time(region, 4, simomp::Pinning::Pinned,
                          perfmodel::KernelClass::StreamCopy);
}

/// Everything one checked + profiled run under its own context produced,
/// rendered: the reports, the retained timeline, the region count.
std::string checked_profiled_run(int nranks) {
  sim::RunContext ctx;
  const auto check = simcheck::arm_check(ctx);
  const auto profile = arm_profile(ctx);
  {
    const sim::RunScope scope(ctx);
    analyzed_worlds(nranks);
  }
  const simcheck::CheckReport c = check->take_report();
  const ProfileReport p = profile->take_report();
  const TraceArtifacts t = profile->take_trace();
  return c.render() + c.to_json() + p.render() + p.to_json() +
         t.chrome_json() + t.gantt_csv() + t.comm_csv();
}

TEST(Context, SeparateContextsOnSeveralThreadsMatchTheSequentialRuns) {
  // Each thread arms its own context; the sinks of one must see exactly
  // the Worlds built under it, however the threads interleave.
  const std::vector<int> sizes = {2, 4, 6, 8};
  std::vector<std::string> expected;
  for (const int n : sizes) expected.push_back(checked_profiled_run(n));
  std::vector<std::string> got(sizes.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    threads.emplace_back(
        [&got, &sizes, i] { got[i] = checked_profiled_run(sizes[i]); });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << sizes[i] << " ranks";
  }
}

TEST(Context, OneContextSharedByThreadsMergesEveryWorld) {
  // What a parallel sweep does: several threads install the same context
  // and their Worlds publish into its sinks concurrently.
  sim::RunContext ctx;
  const auto check = simcheck::arm_check(ctx);
  const auto profile = arm_profile(ctx);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&ctx] {
      const sim::RunScope scope(ctx);
      analyzed_worlds(4);
    });
  }
  for (auto& t : threads) t.join();
  const simcheck::CheckReport c = check->take_report();
  const ProfileReport p = profile->take_report();
  EXPECT_TRUE(c.clean()) << c.render();
  EXPECT_EQ(c.stats.worlds, 12u);
  EXPECT_EQ(c.stats.regions, 4u);
  EXPECT_EQ(p.stats.worlds, 12u);
  EXPECT_EQ(p.stats.regions, 4u);
  EXPECT_EQ(p.worlds.size(), 12u);
}

}  // namespace
}  // namespace columbia::simprof
