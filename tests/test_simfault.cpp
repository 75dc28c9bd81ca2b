// simfault: seeded fault injection, the retry/timeout loop, degraded-node
// placement, fault spans, and the shared RunOptions parser. The fault
// ablations and the --faults contract over the registry are held by
// tests/test_registry.cpp.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/run_options.hpp"
#include "machine/cluster.hpp"
#include "machine/network.hpp"
#include "machine/placement.hpp"
#include "sim/engine.hpp"
#include "sim/run_context.hpp"
#include "simcheck/checker.hpp"
#include "simfault/schedule.hpp"
#include "simmpi/world.hpp"
#include "simprof/recorder.hpp"

namespace columbia {
namespace {

using machine::Cluster;
using machine::NodeType;
using machine::Placement;

// --------------------------------------------------------------------------
// RunOptions: the shared command-line surface.
// --------------------------------------------------------------------------

TEST(RunOptions, ParseFaultArg) {
  std::uint64_t seed = 99;
  double intensity = 9.0;
  std::string error;
  EXPECT_TRUE(core::parse_fault_arg("42:0.5", seed, intensity, error));
  EXPECT_EQ(seed, 42u);
  EXPECT_DOUBLE_EQ(intensity, 0.5);
  EXPECT_TRUE(core::parse_fault_arg("0:0", seed, intensity, error));
  EXPECT_EQ(seed, 0u);
  EXPECT_DOUBLE_EQ(intensity, 0.0);

  for (const char* bad : {"", "42", ":0.5", "42:", "x:0.5", "42:y",
                          "42:1.5", "42:-0.1", "4 2:0.5"}) {
    error.clear();
    EXPECT_FALSE(core::parse_fault_arg(bad, seed, intensity, error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(RunOptions, ParsePositiveInt) {
  int n = 0;
  std::string error;
  EXPECT_TRUE(core::parse_positive_int("--repeat", "3", n, error));
  EXPECT_EQ(n, 3);
  for (const char* bad : {"", "3x", "2.5", "0", "-1", "x3", "99999999999"}) {
    error.clear();
    EXPECT_FALSE(core::parse_positive_int("--repeat", bad, n, error)) << bad;
    EXPECT_EQ(error, std::string("--repeat expects a positive integer, got '") +
                         bad + "'");
  }
  EXPECT_EQ(n, 3);
}

/// A parser naming every shared flag.
core::RunOptionsParser test_parser() {
  return core::RunOptionsParser(
      "test_bin", "[options] [id...]",
      {"--list", "--filter", "--jobs", "--out", "--check", "--profile",
       "--faults", "--transport"});
}

bool parse_argv(const core::RunOptionsParser& parser,
                std::vector<const char*> argv, core::RunOptions& opts) {
  argv.insert(argv.begin(), "test_bin");
  return parser.parse(static_cast<int>(argv.size()), argv.data(), opts);
}

TEST(RunOptions, SharedFlags) {
  auto parser = test_parser();
  parser.allow_positional();
  core::RunOptions opts;
  ASSERT_TRUE(parse_argv(parser,
                         {"--filter", "ext-", "--check", "--profile",
                          "--faults", "7:0.25", "--out", "dir",
                          "--transport", "flow", "fig5"},
                         opts));
  ASSERT_EQ(opts.filters.size(), 1u);
  EXPECT_EQ(opts.filters[0], "ext-");
  EXPECT_TRUE(opts.spec.check);
  EXPECT_TRUE(opts.spec.profile);
  EXPECT_TRUE(opts.spec.faults);
  EXPECT_EQ(opts.spec.fault_seed, 7u);
  EXPECT_DOUBLE_EQ(opts.spec.fault_intensity, 0.25);
  EXPECT_EQ(opts.spec.transport, "flow");
  EXPECT_EQ(opts.out, "dir");
  ASSERT_EQ(opts.ids.size(), 1u);
  EXPECT_EQ(opts.ids[0], "fig5");
  EXPECT_EQ(opts.exec.mode, core::Exec::Mode::Sequential);

  EXPECT_TRUE(opts.matches_filter("ext-io"));
  EXPECT_FALSE(opts.matches_filter("fig6"));
}

TEST(RunOptions, JobsImpliesParallel) {
  auto parser = test_parser();
  core::RunOptions opts;
  ASSERT_TRUE(parse_argv(parser, {"--jobs", "3"}, opts));
  EXPECT_EQ(opts.exec.mode, core::Exec::Mode::Parallel);
  EXPECT_EQ(opts.exec.jobs, 3);
}

TEST(RunOptions, HardErrors) {
  auto parser = test_parser();
  core::RunOptions opts;
  EXPECT_FALSE(parse_argv(parser, {"--no-such-flag"}, opts));
  EXPECT_FALSE(parse_argv(parser, {"--faults"}, opts));       // missing value
  EXPECT_FALSE(parse_argv(parser, {"--faults", "bad"}, opts));
  EXPECT_FALSE(parse_argv(parser, {"--jobs", "0"}, opts));
  EXPECT_FALSE(parse_argv(parser, {"--jobs", "3x"}, opts));
  EXPECT_FALSE(parse_argv(parser, {"--transport", "warp"}, opts));
  EXPECT_FALSE(parse_argv(parser, {"positional"}, opts));  // not allowed
}

// --jobs N alone selects a parallel sweep; --parallel is no flag at all,
// in the parser or in the shared table.
TEST(RunOptions, ParallelIsUnknown) {
  auto parser = test_parser();
  core::RunOptions opts;
  EXPECT_FALSE(parse_argv(parser, {"--parallel"}, opts));
  EXPECT_EQ(opts.exec.mode, core::Exec::Mode::Sequential);
  EXPECT_THROW(core::RunOptionsParser("test_bin", "", {"--parallel"}),
               ContractError);
}

// A binary accepts only the shared flags it names: one built without
// --check rejects it rather than ignoring it.
TEST(RunOptions, UnnamedSharedFlagIsRejected) {
  const core::RunOptionsParser parser("test_bin", "[options]",
                                      {"--list", "--jobs"});
  core::RunOptions opts;
  for (const char* flag : {"--check", "--profile", "--filter", "--out",
                           "--transport", "--faults"}) {
    EXPECT_FALSE(parse_argv(parser, {flag}, opts)) << flag;
  }
  EXPECT_FALSE(opts.spec.check);
  ASSERT_TRUE(parse_argv(parser, {"--list", "--jobs", "2"}, opts));
  EXPECT_TRUE(opts.list);
  EXPECT_EQ(opts.exec.jobs, 2);

  const std::string help = parser.help();
  EXPECT_NE(help.find("--jobs"), std::string::npos);
  EXPECT_EQ(help.find("--check"), std::string::npos);
}

TEST(RunOptions, GeneratedHelpListsSharedAndCustomFlags) {
  auto parser = test_parser();
  bool custom = false;
  parser.add_flag("--repeat", "<n>", "repetitions",
                  [&custom](const std::string&, std::string&) {
                    custom = true;
                    return true;
                  });
  const std::string help = parser.help();
  for (const char* flag : {"--list", "--filter", "--check", "--profile",
                           "--jobs", "--out", "--faults", "--transport",
                           "--repeat", "--help"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << flag;
  }
  EXPECT_EQ(help.find("--parallel"), std::string::npos);
  // --help is listed last, after the binary's own flags.
  EXPECT_LT(help.find("--repeat"), help.find("--help"));
  core::RunOptions opts;
  ASSERT_TRUE(parse_argv(parser, {"--repeat", "4"}, opts));
  EXPECT_TRUE(custom);
}

// --------------------------------------------------------------------------
// FaultSpec / ScheduledFaultModel: determinism and monotonicity.
// --------------------------------------------------------------------------

TEST(FaultSchedule, ZeroIntensityIsDisabled) {
  EXPECT_FALSE(simfault::FaultSpec{}.enabled());
  EXPECT_FALSE(simfault::FaultSpec::uniform(42, 0.0).enabled());
  EXPECT_FALSE(simfault::FaultSpec::jitter_only(42, 0.0).enabled());
  EXPECT_FALSE(simfault::FaultSpec::fabric_only(42, 0.0).enabled());
  EXPECT_TRUE(simfault::FaultSpec::uniform(42, 0.1).enabled());
}

TEST(FaultSchedule, SameSeedSameSchedule) {
  const auto spec = simfault::FaultSpec::uniform(1234, 0.6);
  const simfault::ScheduledFaultModel a(spec, 8, 4);
  const simfault::ScheduledFaultModel b(spec, 8, 4);
  for (int node = 0; node < 8; ++node) {
    EXPECT_EQ(a.link_degraded(node), b.link_degraded(node));
    EXPECT_EQ(a.node_jittery(node), b.node_jittery(node));
    EXPECT_EQ(a.node_degraded(node), b.node_degraded(node));
    EXPECT_EQ(a.link_failed_by(node, 5e-3), b.link_failed_by(node, 5e-3));
  }
  for (std::uint64_t serial = 0; serial < 64; ++serial) {
    const auto va = a.message_verdict(0, 5, 1024.0, serial, 0);
    const auto vb = b.message_verdict(0, 5, 1024.0, serial, 0);
    EXPECT_EQ(va.dropped, vb.dropped);
    EXPECT_DOUBLE_EQ(va.extra_delay, vb.extra_delay);
  }
  EXPECT_DOUBLE_EQ(a.stretched_compute(3, 1e-3, 2e-3),
                   b.stretched_compute(3, 1e-3, 2e-3));
}

TEST(FaultSchedule, DifferentSeedDiffers) {
  const simfault::ScheduledFaultModel a(
      simfault::FaultSpec::uniform(1, 0.5), 16, 4);
  const simfault::ScheduledFaultModel b(
      simfault::FaultSpec::uniform(2, 0.5), 16, 4);
  bool differs = false;
  for (int node = 0; node < 16 && !differs; ++node) {
    differs = a.link_degraded(node) != b.link_degraded(node) ||
              a.node_jittery(node) != b.node_jittery(node);
  }
  for (std::uint64_t serial = 0; serial < 256 && !differs; ++serial) {
    differs = a.message_verdict(0, 5, 1024.0, serial, 0).dropped !=
              b.message_verdict(0, 5, 1024.0, serial, 0).dropped;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultSchedule, VerdictIsPureFunctionOfArguments) {
  const simfault::ScheduledFaultModel m(
      simfault::FaultSpec::uniform(77, 0.9), 4, 4);
  const auto first = m.message_verdict(1, 9, 2048.0, 17, 2);
  for (int i = 0; i < 4; ++i) {
    const auto again = m.message_verdict(1, 9, 2048.0, 17, 2);
    EXPECT_EQ(again.dropped, first.dropped);
    EXPECT_DOUBLE_EQ(again.extra_delay, first.extra_delay);
  }
}

TEST(FaultSchedule, StretchedComputeMonotoneInIntensity) {
  constexpr std::uint64_t kSeed = 5;
  double prev = 0.0;
  for (double intensity : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const auto spec = simfault::FaultSpec::jitter_only(kSeed, intensity);
    const simfault::ScheduledFaultModel m(spec, 2, 8);
    // Long enough to cover several jitter periods.
    const double wall = m.stretched_compute(0, 0.0, 50e-3);
    EXPECT_GE(wall, 50e-3);
    EXPECT_GE(wall, prev);
    if (intensity == 0.0) {
      EXPECT_DOUBLE_EQ(wall, 50e-3);
    }
    prev = wall;
  }
}

TEST(FaultSchedule, BandwidthFactorsStayInContract) {
  const simfault::ScheduledFaultModel m(
      simfault::FaultSpec::uniform(31, 1.0), 4, 4);
  for (int src = 0; src < 16; src += 4) {
    for (int dst = 0; dst < 16; dst += 4) {
      for (double now : {0.0, 5e-3, 20e-3}) {
        const double f = m.bandwidth_factor(src, dst, now);
        EXPECT_GT(f, 0.0);
        EXPECT_LE(f, 1.0);
        EXPECT_GE(m.added_latency(src, dst, now), 0.0);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Network + World integration.
// --------------------------------------------------------------------------

sim::CoTask<void> pingpong_program(simmpi::Rank& rank) {
  const double bytes = 256.0 * 1024;  // rendezvous-sized, cross-node
  if (rank.rank() == 0) {
    co_await rank.send(1, bytes, 0);
    co_await rank.recv(1, 0);
  } else {
    co_await rank.recv(0, 0);
    co_await rank.send(0, bytes, 0);
  }
}

/// Makespan of a 2-rank cross-node ping-pong under `model` (nullptr = clean).
double pingpong_makespan(machine::FaultModel* model,
                         const simmpi::RetryPolicy* policy = nullptr) {
  sim::Engine engine;
  auto cluster = Cluster::numalink4_bx2b(2);
  machine::Network network(engine, cluster);
  const auto placement = Placement::across_nodes(cluster, 2, 2);
  simmpi::World world(engine, network, placement);
  if (model != nullptr) world.set_fault_model(model);
  if (policy != nullptr) world.set_retry_policy(*policy);
  return world.run(pingpong_program);
}

TEST(FaultNetwork, DegradedLinkSlowsCrossNodeTransfer) {
  const double clean = pingpong_makespan(nullptr);
  auto cluster = Cluster::numalink4_bx2b(2);
  simfault::ScheduledFaultModel model(
      simfault::FaultSpec::fabric_only(3, 1.0), cluster);
  const double faulted = pingpong_makespan(&model);
  EXPECT_GT(faulted, clean * 1.5);
}

TEST(FaultNetwork, ZeroIntensityArmingAttachesNothing) {
  sim::RunContext ctx;
  (void)simfault::arm_faults(ctx, simfault::FaultSpec::uniform(0, 0.0));
  const sim::RunScope scope(ctx);
  sim::Engine engine;
  auto cluster = Cluster::single(NodeType::AltixBX2b);
  machine::Network network(engine, cluster);
  simmpi::World world(engine, network, Placement::dense(cluster, 2));
  EXPECT_EQ(world.fault_model(), nullptr);
}

TEST(FaultNetwork, ArmedContextAttachesAndPublishesStats) {
  sim::RunContext ctx;
  const auto sink =
      simfault::arm_faults(ctx, simfault::FaultSpec::uniform(11, 0.5));
  {
    const sim::RunScope scope(ctx);
    sim::Engine engine;
    auto cluster = Cluster::single(NodeType::AltixBX2b);
    machine::Network network(engine, cluster);
    simmpi::World world(engine, network, Placement::dense(cluster, 2));
    EXPECT_NE(world.fault_model(), nullptr);
  }
  const auto stats = sink->take();
  EXPECT_EQ(stats.worlds, 1u);
}

// --------------------------------------------------------------------------
// Retry/timeout semantics.
// --------------------------------------------------------------------------

/// Drops the first `drops` delivery attempts of every message.
class DropFirstAttempts final : public machine::FaultModel {
 public:
  explicit DropFirstAttempts(int drops) : drops_(drops) {}
  machine::MessageVerdict message_verdict(int, int, double, std::uint64_t,
                                          int attempt) const override {
    return {attempt < drops_, 0.0};
  }

 private:
  int drops_;
};

TEST(FaultRetry, DropThenRetrySucceeds) {
  const double clean = pingpong_makespan(nullptr);
  DropFirstAttempts model(2);

  sim::Engine engine;
  auto cluster = Cluster::numalink4_bx2b(2);
  machine::Network network(engine, cluster);
  simmpi::World world(engine, network,
                      Placement::across_nodes(cluster, 2, 2));
  world.set_fault_model(&model);
  const double faulted = world.run(pingpong_program);

  // Both transfers complete after two drops each...
  EXPECT_EQ(world.messages_dropped(), 4u);
  EXPECT_EQ(world.retries(), 4u);
  EXPECT_EQ(world.messages_lost(), 0u);
  // ...and each pays timeout * (1 + backoff) of sender-side waiting.
  const auto& policy = world.retry_policy();
  const double backoff_floor =
      2 * policy.timeout * (1.0 + policy.backoff);
  EXPECT_GE(faulted, clean + backoff_floor);
}

TEST(FaultRetry, ExhaustedRetriesSurfaceAsDeadlock) {
  DropFirstAttempts model(1000);  // beyond any retry budget
  simmpi::RetryPolicy policy;
  policy.max_retries = 2;
  policy.timeout = 10e-6;

  sim::Engine engine;
  auto cluster = Cluster::numalink4_bx2b(2);
  machine::Network network(engine, cluster);
  simmpi::World world(engine, network,
                      Placement::across_nodes(cluster, 2, 2));
  world.set_fault_model(&model);
  world.set_retry_policy(policy);
  simcheck::Checker checker;
  checker.attach(world);

  EXPECT_THROW(world.run(pingpong_program), sim::DeadlockError);
  EXPECT_EQ(world.messages_lost(), 1u);  // rank 0's send dies first
  EXPECT_EQ(world.messages_dropped(), 3u);  // initial attempt + 2 retries
  // simcheck sees the lost message as what it is operationally: a stalled
  // communication graph.
  EXPECT_GE(checker.report().count(simcheck::DiagKind::Deadlock), 1u);
}

TEST(FaultRetry, LostRendezvousMessageReleasesItsSender) {
  // A rendezvous message dropped for good: its sender pays every timeout
  // and returns from send, while the receive stalls. With no retries the
  // loss is decided at the first verdict, inside the sender's await.
  for (const int max_retries : {0, 2}) {
    DropFirstAttempts model(1000);
    simmpi::RetryPolicy policy;
    policy.max_retries = max_retries;
    policy.timeout = 10e-6;

    sim::Engine engine;
    auto cluster = Cluster::numalink4_bx2b(2);
    machine::Network network(engine, cluster);
    simmpi::World world(engine, network,
                        Placement::across_nodes(cluster, 2, 2));
    world.set_fault_model(&model);
    world.set_retry_policy(policy);
    double send_returned = -1.0;
    EXPECT_THROW(world.run([&](simmpi::Rank& r) -> sim::CoTask<void> {
      if (r.rank() == 0) {
        co_await r.send(1, 1.0e6, 0);  // above the eager threshold
        send_returned = r.engine().now();
      } else {
        (void)co_await r.recv(0, 0);
      }
    }),
                 sim::DeadlockError);
    EXPECT_GT(send_returned, 0.0) << max_retries;
    EXPECT_EQ(world.messages_lost(), 1u) << max_retries;
    EXPECT_EQ(world.messages_dropped(),
              static_cast<std::uint64_t>(max_retries + 1));
    EXPECT_EQ(world.retries(), static_cast<std::uint64_t>(max_retries));
  }
}

// --------------------------------------------------------------------------
// Placement fallback.
// --------------------------------------------------------------------------

/// Marks an explicit node set degraded.
class DegradedNodes final : public machine::FaultModel {
 public:
  explicit DegradedNodes(std::vector<int> nodes)
      : nodes_(std::move(nodes)) {}
  bool node_degraded(int node) const override {
    for (int n : nodes_) {
      if (n == node) return true;
    }
    return false;
  }

 private:
  std::vector<int> nodes_;
};

TEST(FaultPlacement, AvoidingSteersAroundDegradedNodes) {
  auto cluster = Cluster::numalink4_bx2b(4);
  const int per_node = cluster.cpus_per_node();
  DegradedNodes faults({0, 2});
  const auto placement =
      Placement::across_nodes_avoiding(cluster, 8, 2, &faults);
  for (int r = 0; r < placement.num_ranks(); ++r) {
    const int node = placement.cpu_of(r) / per_node;
    EXPECT_TRUE(node == 1 || node == 3) << "rank " << r << " on " << node;
  }
}

TEST(FaultPlacement, NullModelReproducesAcrossNodes) {
  auto cluster = Cluster::numalink4_bx2b(4);
  const auto plain = Placement::across_nodes(cluster, 16, 4);
  const auto avoiding =
      Placement::across_nodes_avoiding(cluster, 16, 4, nullptr);
  EXPECT_EQ(plain.cpus(), avoiding.cpus());
}

TEST(FaultPlacement, DegradedClusterFallsBackWhenNothingHealthy) {
  auto cluster = Cluster::numalink4_bx2b(2);
  DegradedNodes faults({0, 1});
  // Everything is sick: the fallback still places all ranks.
  const auto placement =
      Placement::across_nodes_avoiding(cluster, 8, 2, &faults);
  EXPECT_EQ(placement.num_ranks(), 8);
}

// --------------------------------------------------------------------------
// Fault spans.
// --------------------------------------------------------------------------

TEST(FaultSpans, FaultWindowsLandInTheSpanSink) {
  simfault::ScheduledFaultModel model(simfault::FaultSpec::uniform(13, 1.0),
                                      Cluster::numalink4_bx2b(2));

  sim::Engine engine;
  simprof::TraceRecorder recorder;
  engine.set_span_sink(&recorder);
  auto cluster = Cluster::numalink4_bx2b(2);
  machine::Network network(engine, cluster);
  simmpi::World world(engine, network,
                      Placement::across_nodes(cluster, 2, 2));
  world.set_fault_model(&model);
  const double makespan = world.run(pingpong_program);
  engine.set_span_sink(nullptr);

  std::size_t fault_spans = 0;
  for (const auto& span : recorder.spans()) {
    if (span.kind != sim::SpanKind::Fault) continue;
    ++fault_spans;
    EXPECT_GE(span.actor, 0);
    EXPECT_LT(span.actor, 2);
    EXPECT_GE(span.begin, 0.0);
    EXPECT_LE(span.end, makespan + 1e-12);
    EXPECT_LT(span.begin, span.end);
  }
  EXPECT_GT(fault_spans, 0u);
  // The chrome export gives faults their own process row.
  const std::string json = recorder.chrome_json();
  EXPECT_NE(json.find("faults (by node)"), std::string::npos);
}

}  // namespace
}  // namespace columbia
