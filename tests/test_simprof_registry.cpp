// The acceptance gate for the profiling subsystem: every experiment in
// the registry runs under --profile with byte-identical rendered output
// (the profiler is a pure listener), and every profiled world satisfies
// the critical-path identity — compute + serialization + wire + blocked +
// io sums to the makespan within 1e-9 — with comm fractions in [0, 1].
// The sweep runs one pool task per experiment, so it uses every host CPU:
// runs share nothing, and each profiled one has its own RunContext.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "common/parallel.hpp"
#include "core/experiment.hpp"
#include "simprof/profiler.hpp"

namespace columbia::simprof {
namespace {

TEST(Registry, ProfiledRunsAreByteIdenticalAndSatisfyPathIdentity) {
  const auto exec = core::Exec::sequential();
  const auto& registry = core::experiment_registry();
  common::parallel_for(registry.size(), [&](std::size_t i) {
    const auto& exp = registry[i];
    const std::string plain = exp.run_exec(exec).render();

    sim::RunContext ctx;
    const auto sink = arm_profile(ctx);
    std::string profiled;
    {
      const sim::RunScope scope(ctx);
      profiled = exp.run_exec(exec).render();
    }
    ProfileReport report = sink->take_report();
    TraceArtifacts trace = sink->take_trace();

    EXPECT_EQ(plain, profiled) << exp.id << ": profiled run altered output";

    for (const auto& w : report.worlds) {
      EXPECT_FALSE(w.critical_path.truncated)
          << exp.id << ": truncated critical path";
      EXPECT_NEAR(w.critical_path.sum(), w.makespan, 1e-9)
          << exp.id << ": critical-path components do not sum to makespan\n"
          << w.critical_path.render();
      EXPECT_GE(w.comm_fraction(), 0.0) << exp.id;
      EXPECT_LE(w.comm_fraction(), 1.0) << exp.id;
      for (const auto& rb : w.ranks) {
        EXPECT_GE(rb.comm_fraction(), 0.0) << exp.id << " rank " << rb.rank;
        EXPECT_LE(rb.comm_fraction(), 1.0) << exp.id << " rank " << rb.rank;
      }
      // Overlapping nonblocking comm spans (sendrecv) can push busy time
      // past the makespan, so utilization has no hard upper bound of 1.
      EXPECT_GE(w.mean_utilization(), 0.0) << exp.id;
    }
    // MPI experiments must retain a representative timeline whose export
    // is a plausible chrome://tracing document.
    if (!report.worlds.empty()) {
      ASSERT_TRUE(trace.valid) << exp.id;
      EXPECT_GT(trace.nranks, 0) << exp.id;
      const std::string json = trace.chrome_json();
      EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << exp.id;
      EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos) << exp.id;
    }
  });
}

}  // namespace
}  // namespace columbia::simprof
