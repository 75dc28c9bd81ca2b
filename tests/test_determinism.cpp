// The repo-wide golden determinism gate: the entire experiment registry
// runs twice with every optional subsystem switched on at once — MPI
// correctness checking (--check), profiling with trace export
// (--profile), and seeded fault injection (--faults 42:0.25) — and every
// artifact either pass emits must be byte-identical: rendered reports,
// check reports (text + JSON), profile reports (text + JSON), Chrome
// traces, gantt/comm CSVs, and the merged fault counters.
//
// This is the determinism contract stated in DESIGN.md made executable:
// a run is a pure function of (spec, seed). A deterministic *failure* is
// still deterministic — exceptions are folded into the golden string
// rather than aborting the pass, so both passes must throw identically
// or not at all. A pass runs one pool task per experiment, each arming
// its own RunContext, so it uses every host CPU and the gate also covers
// runs that overlap on other threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/experiment.hpp"
#include "machine/transport.hpp"
#include "sim/run_context.hpp"
#include "simcheck/checker.hpp"
#include "simfault/schedule.hpp"
#include "simprof/profiler.hpp"

namespace columbia {
namespace {

/// Everything a check + profile + faults run of one experiment emitted.
struct Armed {
  std::string report;  ///< rendered report, or the exception it threw
  std::string artifacts;  ///< check/profile text + JSON, timeline exports
  simfault::FaultStats faults;
};

/// Runs `exp` under a fresh RunContext on `transport` with check, profile
/// and faults (42:0.25) armed, folding a deterministic failure into the
/// report string rather than aborting.
Armed run_armed(const core::Experiment& exp, const core::Exec& exec,
                machine::TransportModel transport) {
  sim::RunContext ctx;
  ctx.transport = transport;
  const auto check = simcheck::arm_check(ctx);
  const auto profile = simprof::arm_profile(ctx);
  const auto faults =
      simfault::arm_faults(ctx, simfault::FaultSpec::uniform(42, 0.25));
  Armed out;
  {
    const sim::RunScope scope(ctx);
    try {
      out.report = exp.run_exec(exec).render();
    } catch (const std::exception& e) {
      out.report = std::string("exception: ") + e.what() + "\n";
    } catch (...) {
      out.report = "exception: (non-standard)\n";
    }
  }
  const simprof::ProfileReport prof = profile->take_report();
  const simprof::TraceArtifacts trace = profile->take_trace();
  const simcheck::CheckReport chk = check->take_report();
  out.artifacts = chk.render() + chk.to_json() + prof.render() + prof.to_json();
  if (trace.valid) {
    out.artifacts += trace.chrome_json() + trace.gantt_csv() + trace.comm_csv();
  }
  out.faults = faults->take();
  return out;
}

/// One full registry sweep with check + profile + faults enabled: every
/// emitted artifact as one golden string per experiment, in registry
/// order, then the merged fault counters.
std::vector<std::string> golden_pass(
    machine::TransportModel transport = machine::TransportModel::Event) {
  const auto& registry = core::experiment_registry();
  std::vector<std::string> pass(registry.size());
  std::vector<simfault::FaultStats> faults(registry.size());
  common::parallel_for(registry.size(), [&](std::size_t i) {
    Armed run = run_armed(registry[i], core::Exec::sequential(), transport);
    pass[i] = "==== " + registry[i].id + " ====\n" + std::move(run.report) +
              std::move(run.artifacts);
    faults[i] = run.faults;
  });
  simfault::FaultStats stats;
  for (const auto& f : faults) stats.merge(f);
  std::ostringstream os;
  os << "faults: worlds=" << stats.worlds
     << " dropped=" << stats.messages_dropped << " retries=" << stats.retries
     << " lost=" << stats.messages_lost << "\n";
  pass.push_back(os.str());
  return pass;
}

/// Context around the first differing byte — EXPECT_EQ on multi-megabyte
/// strings would drown the log.
std::string first_divergence(const std::string& a, const std::string& b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t at = 0;
  while (at < n && a[at] == b[at]) ++at;
  if (at == n && a.size() == b.size()) return "(identical)";
  const std::size_t lo = at < 120 ? 0 : at - 120;
  std::ostringstream os;
  os << "first divergence at byte " << at << " (sizes " << a.size() << " vs "
     << b.size() << ")\n"
     << "pass 1: …" << a.substr(lo, 240) << "…\n"
     << "pass 2: …" << b.substr(lo, 240) << "…\n";
  return os.str();
}

/// The first golden string on which two passes differ, headed by its
/// `==== <id> ====` line.
std::string first_divergence(const std::vector<std::string>& a,
                             const std::vector<std::string>& b) {
  if (a.size() != b.size()) return "passes differ in length";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      return a[i].substr(0, a[i].find('\n') + 1) +
             first_divergence(a[i], b[i]);
    }
  }
  return "(identical)";
}

TEST(GoldenDeterminism, RegistryWithCheckProfileFaultsIsByteIdentical) {
  const auto pass1 = golden_pass();
  const auto pass2 = golden_pass();
  ASSERT_FALSE(pass1.empty());
  EXPECT_TRUE(pass1 == pass2) << first_divergence(pass1, pass2);
}

TEST(GoldenDeterminism, IoExperimentsSeqVsParallelAreByteIdentical) {
  // The storage experiments tear filesystems down on pool threads (the
  // RunContext's sinks publish from there) and the NFS scenarios drive
  // Network transfers from scenario closures — exactly the places where a
  // parallel sweep could diverge from the sequential baseline. Each also
  // regenerates under check + profile + faults like the full gate, its
  // context carried onto the pool workers.
  for (const std::string id :
       {"ext-io", "ext-checkpoint", "ext-btio", "ext-io-overlap"}) {
    const auto* exp = core::find_experiment(id);
    ASSERT_NE(exp, nullptr) << id;
    const Armed seq = run_armed(*exp, core::Exec::sequential(),
                                machine::TransportModel::Event);
    const Armed par = run_armed(*exp, core::Exec::parallel(),
                                machine::TransportModel::Event);
    EXPECT_TRUE(seq.report == par.report)
        << id << "\n" << first_divergence(seq.report, par.report);
    EXPECT_EQ(seq.faults.worlds, par.faults.worlds) << id;
    EXPECT_EQ(seq.faults.messages_dropped, par.faults.messages_dropped) << id;
    EXPECT_EQ(seq.faults.retries, par.faults.retries) << id;
    EXPECT_EQ(seq.faults.messages_lost, par.faults.messages_lost) << id;
  }
}

TEST(GoldenDeterminism, RegistryUnderFlowTransportIsByteIdentical) {
  // The same contract with the fluid network backend selected for the
  // whole run (what `--transport flow` does): every experiment, still
  // under check + profile + faults, must regenerate byte-identically.
  const auto pass1 = golden_pass(machine::TransportModel::Flow);
  const auto pass2 = golden_pass(machine::TransportModel::Flow);
  ASSERT_FALSE(pass1.empty());
  EXPECT_TRUE(pass1 == pass2) << first_divergence(pass1, pass2);
}

}  // namespace
}  // namespace columbia
