// The registry gate: every experiment runs once under each of four
// configs, and each (id, config) is held to its line in
// tests/golden/registry.digest: FNV-1a 64s of the report and of every
// analyzer artifact, the fault counters and the engine event count (so a
// change that claims to keep every event is held to it). plain (nothing
// armed) must also write the committed bench_results/ CSVs;
// check-profile (check, profile, faults 0:0) must reproduce plain's
// report with a clean check and exact critical paths; armed-event and
// armed-flow arm check, profile and faults 42:0.25. A nondeterministic
// run or a moved model output fails its line; a deterministic exception
// folds into the report.
//
// Two ctest entries run this binary (tests/CMakeLists.txt), each sweeping
// its own configs over the host pool: test_simprof_registry runs
// ProfiledRegistry (plain and check-profile), and test_determinism
// everything else (armed-event and armed-flow, the I/O parallel runs and
// the fault ablations). Each merges the lines it computed into one
// digest file next to the test binary, and a mismatch prints the `cp`
// that accepts that file.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/file.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "machine/transport.hpp"
#include "sim/run_context.hpp"
#include "simcheck/checker.hpp"
#include "simfault/schedule.hpp"
#include "simprof/profiler.hpp"

namespace columbia {
namespace {

struct Config {
  const char* name;
  bool armed;  ///< check + profile + faults
  simfault::FaultSpec faults;
  machine::TransportModel transport;
};

// In digest-file order.
const Config kConfigs[] = {
    {"plain", false, {}, machine::TransportModel::Event},
    {"check-profile", true, simfault::FaultSpec::uniform(0, 0.0),
     machine::TransportModel::Event},
    {"armed-event", true, simfault::FaultSpec::uniform(42, 0.25),
     machine::TransportModel::Event},
    {"armed-flow", true, simfault::FaultSpec::uniform(42, 0.25),
     machine::TransportModel::Flow},
};
const Config& kPlain = kConfigs[0];
const Config& kCheckProfile = kConfigs[1];
const Config& kArmedEvent = kConfigs[2];
const Config& kArmedFlow = kConfigs[3];

/// Everything one (experiment, config) run emitted.
struct Outcome {
  core::Report data;
  std::string report;  ///< data.render(), or the exception the run threw
  simcheck::CheckReport check;
  simprof::ProfileReport profile;
  simprof::TraceArtifacts trace;
  simfault::FaultStats faults;
  std::uint64_t events = 0;  ///< engine events the run processed
};

Outcome run_config(const core::Experiment& exp, const Config& config,
                   const core::Exec& exec) {
  sim::RunContext ctx;
  ctx.transport = config.transport;
  const auto check = config.armed ? simcheck::arm_check(ctx) : nullptr;
  const auto profile = config.armed ? simprof::arm_profile(ctx) : nullptr;
  const auto faults =
      config.armed ? simfault::arm_faults(ctx, config.faults) : nullptr;
  Outcome out;
  {
    const sim::RunScope scope(ctx);
    try {
      out.data = exp.run_exec(exec);
      out.report = out.data.render();
    } catch (const std::exception& e) {
      out.report = std::string("exception: ") + e.what() + "\n";
    } catch (...) {
      out.report = "exception: (non-standard)\n";
    }
  }
  out.events = ctx.events.load(std::memory_order_relaxed);
  if (config.armed) {
    out.check = check->take_report();
    out.profile = profile->take_report();
    out.trace = profile->take_trace();
    out.faults = faults->take();
  }
  return out;
}

/// The digest line of `run`: id, config, the report's FNV-1a, the FNV-1a
/// of its analyzer artifacts in a fixed order (none for plain), the
/// fault counters and the engine events the run processed (exact under a
/// parallel sweep too: every pool worker adds into the run's context).
/// The artifacts are hashed one at a time, so no concatenation of
/// multi-megabyte traces is ever held, and the one render of the chrome
/// trace is also checked to be a plausible chrome://tracing document.
std::string digest_line(const std::string& id, const Config& config,
                        const Outcome& run) {
  std::uint64_t artifacts = common::kFnv1aBasis;
  if (config.armed) {
    for (const std::string& report :
         {run.check.render(), run.check.to_json(), run.profile.render(),
          run.profile.to_json()}) {
      artifacts = common::fnv1a64(report, artifacts);
    }
    if (run.trace.valid) {
      const std::string chrome = run.trace.chrome_json();
      EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos) << id;
      EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos) << id;
      artifacts = common::fnv1a64(chrome, artifacts);
      artifacts = common::fnv1a64(run.trace.gantt_csv(), artifacts);
      artifacts = common::fnv1a64(run.trace.comm_csv(), artifacts);
    }
  }
  std::ostringstream os;
  os << id << " " << config.name << " "
     << common::hex64(common::fnv1a64(run.report)) << " "
     << common::hex64(artifacts) << " worlds=" << run.faults.worlds
     << " dropped=" << run.faults.messages_dropped
     << " retries=" << run.faults.retries
     << " lost=" << run.faults.messages_lost << " events=" << run.events;
  return os.str();
}

/// The whitespace-separated fields of a digest line.
std::vector<std::string> fields(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> out;
  std::string field;
  while (is >> field) out.push_back(field);
  return out;
}

/// A digest file: "<id> <config>" -> its whole line.
std::map<std::string, std::string> read_digest(
    const std::filesystem::path& path) {
  std::ifstream in(path);
  std::map<std::string, std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    const auto f = fields(line);
    if (f.size() >= 2) lines[f[0] + " " + f[1]] = line;
  }
  return lines;
}

/// The `<id>_*.csv` files in `dir`, file name -> bytes.
std::map<std::string, std::string> csv_files(const std::filesystem::path& dir,
                                             const std::string& id) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(id + "_", 0) != 0 || entry.path().extension() != ".csv") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[name] = bytes.str();
  }
  return files;
}

/// The plain report's CSVs, written by the core writer, must be the
/// committed bench_results/ files byte for byte, none missing or extra.
void expect_committed_csvs(const std::string& id, const core::Report& report,
                           const std::filesystem::path& tmp) {
  const auto dir = tmp / id;
  std::filesystem::create_directories(dir);
  std::string error;
  ASSERT_TRUE(core::write_report_csvs(report, id, dir, error)) << error;
  const auto produced = csv_files(dir, id);
  const auto committed = csv_files(COLUMBIA_BENCH_RESULTS, id);
  EXPECT_FALSE(produced.empty()) << id << " plain: no CSVs";
  for (const auto& [name, bytes] : produced) {
    const auto it = committed.find(name);
    EXPECT_TRUE(it != committed.end() && it->second == bytes)
        << id << " plain: " << name
        << " is missing from bench_results/ or differs from it";
  }
  for (const auto& [name, bytes] : committed) {
    EXPECT_EQ(produced.count(name), 1u)
        << id << " plain: " << name << " was not produced";
  }
}

/// The analyzers are pure listeners whose reports hold invariants of
/// their own: a clean check, and per profiled world a critical path
/// whose compute + serialization + wire + blocked + io components sum to
/// the makespan within 1e-9, with comm fractions in [0, 1].
void expect_clean_and_path_identity(const std::string& id,
                                    const Outcome& run) {
  EXPECT_TRUE(run.check.clean()) << id << ":\n" << run.check.render();
  for (const auto& w : run.profile.worlds) {
    EXPECT_FALSE(w.critical_path.truncated)
        << id << ": truncated critical path";
    EXPECT_NEAR(w.critical_path.sum(), w.makespan, 1e-9)
        << id << ": critical-path components do not sum to makespan\n"
        << w.critical_path.render();
    EXPECT_GE(w.comm_fraction(), 0.0) << id;
    EXPECT_LE(w.comm_fraction(), 1.0) << id;
    for (const auto& rb : w.ranks) {
      EXPECT_GE(rb.comm_fraction(), 0.0) << id << " rank " << rb.rank;
      EXPECT_LE(rb.comm_fraction(), 1.0) << id << " rank " << rb.rank;
    }
    // Overlapping nonblocking comm spans (sendrecv) can push busy time
    // past the makespan, so utilization has no hard upper bound of 1.
    EXPECT_GE(w.mean_utilization(), 0.0) << id;
  }
  // MPI experiments must retain a representative timeline (its chrome
  // export is checked where it is hashed).
  if (!run.profile.worlds.empty()) {
    ASSERT_TRUE(run.trace.valid) << id;
    EXPECT_GT(run.trace.nranks, 0) << id;
  }
}

/// Merges `computed` into the digest file COLUMBIA_REGISTRY_DIGEST_OUT
/// (the committed digest until a sweep has written it), in registry and
/// config order. The two ctest entries may sweep at the same time, so
/// the read and the write happen under an exclusive lock.
void merge_into_out_digest(
    const std::map<std::string, std::string>& computed) {
  const int lock =
      ::open(COLUMBIA_REGISTRY_DIGEST_OUT ".lock", O_CREAT | O_RDWR, 0644);
  ASSERT_GE(lock, 0) << COLUMBIA_REGISTRY_DIGEST_OUT ".lock";
  if (::flock(lock, LOCK_EX) != 0) {
    ::close(lock);
    FAIL() << "cannot lock " COLUMBIA_REGISTRY_DIGEST_OUT ".lock";
  }
  auto lines = read_digest(std::filesystem::exists(COLUMBIA_REGISTRY_DIGEST_OUT)
                               ? COLUMBIA_REGISTRY_DIGEST_OUT
                               : COLUMBIA_REGISTRY_DIGEST);
  for (const auto& [key, line] : computed) lines[key] = line;
  std::string body;
  for (const auto& exp : core::experiment_registry()) {
    for (const Config& config : kConfigs) {
      const auto it = lines.find(exp.id + " " + config.name);
      if (it != lines.end()) body += it->second + "\n";
    }
  }
  std::string error;
  EXPECT_TRUE(core::write_file(COLUMBIA_REGISTRY_DIGEST_OUT, body, error))
      << error;
  ::close(lock);  // releases the lock
}

/// Runs every experiment under each of `configs` in one pool sweep, one
/// task per (experiment, config), an experiment's configs claimed
/// together so its heavy runs start early: runs share nothing, and each
/// has its own RunContext. A plain run must also write the committed
/// CSVs, and a check-profile run must check clean with exact critical
/// paths. Each line must match the committed digest and none of these
/// configs' committed lines may go unmatched; the computed lines are
/// merged into COLUMBIA_REGISTRY_DIGEST_OUT either way, and returned as
/// "<id> <config>" -> line.
std::map<std::string, std::string> expect_sweep_matches_committed(
    const std::vector<const Config*>& configs) {
  const auto& registry = core::experiment_registry();
  const auto tmp = std::filesystem::path(testing::TempDir()) /
                   ("test_registry_csvs." + std::to_string(::getpid()));
  const std::size_t k = configs.size();
  std::vector<std::string> lines(registry.size() * k);
  common::parallel_for(lines.size(), [&](std::size_t t) {
    const auto& exp = registry[t / k];
    const Config& config = *configs[t % k];
    const Outcome run = run_config(exp, config, core::Exec::sequential());
    if (&config == &kPlain) expect_committed_csvs(exp.id, run.data, tmp);
    if (&config == &kCheckProfile) expect_clean_and_path_identity(exp.id, run);
    lines[t] = digest_line(exp.id, config, run);
  });
  std::filesystem::remove_all(tmp);
  std::map<std::string, std::string> computed;
  for (const auto& line : lines) {
    const auto f = fields(line);
    computed[f[0] + " " + f[1]] = line;
  }
  merge_into_out_digest(computed);

  auto committed = read_digest(COLUMBIA_REGISTRY_DIGEST);
  std::ostringstream diff;
  for (const auto& line : lines) {
    const auto f = fields(line);
    const auto it = committed.find(f[0] + " " + f[1]);
    if (it == committed.end()) {
      diff << "  missing: " << line << "\n";
      continue;
    }
    if (it->second != line) {
      diff << "  moved:   " << it->second << "\n"
           << "       to: " << line << "\n";
    }
    committed.erase(it);
  }
  for (const auto& [key, line] : committed) {
    for (const Config* config : configs) {
      if (fields(line)[1] == config->name) {
        diff << "  extra:   " << line << "\n";
      }
    }
  }
  EXPECT_TRUE(diff.str().empty())
      << "the registry no longer matches " << COLUMBIA_REGISTRY_DIGEST
      << ":\n"
      << diff.str()
      << "test_simprof_registry and test_determinism each merge the lines "
         "they computed into\n  "
      << COLUMBIA_REGISTRY_DIGEST_OUT
      << "\nIf every change is intended, run both, accept the file with\n"
         "  cp "
      << COLUMBIA_REGISTRY_DIGEST_OUT << " " << COLUMBIA_REGISTRY_DIGEST
      << "\nand say in CHANGES.md why each line moved.";
  return computed;
}

TEST(ProfiledRegistry, PlainAndCheckProfileRunsMatchTheCommittedDigest) {
  const auto lines = expect_sweep_matches_committed({&kCheckProfile, &kPlain});
  for (const auto& exp : core::experiment_registry()) {
    // Pure listeners: arming check and profile leaves the report alone.
    EXPECT_EQ(fields(lines.at(exp.id + " " + kPlain.name))[2],
              fields(lines.at(exp.id + " " + kCheckProfile.name))[2])
        << exp.id << ": check+profile run altered the report";
  }
}

TEST(GoldenDeterminism, ArmedRunsMatchTheCommittedDigest) {
  // Every subsystem armed at once, on both transports: a run is a pure
  // function of (spec, seed), so the committed bytes stand in for a
  // second run.
  expect_sweep_matches_committed({&kArmedFlow, &kArmedEvent});
}

TEST(GoldenDeterminism, IoExperimentsRunInParallelMatchTheCommittedDigest) {
  // The storage experiments tear filesystems down on pool threads (the
  // RunContext's sinks publish from there) and the NFS scenarios drive
  // Network transfers from scenario closures — exactly the places where
  // a parallel run could diverge from the sequential one. Run from the
  // test thread, so the scenarios really fan out over the pool. Profile
  // worlds merge in completion order under a parallel run, so the
  // artifact digest (the fourth field) stays out of the comparison; the
  // event count stays in, since each pool worker adds into one context.
  const auto committed = read_digest(COLUMBIA_REGISTRY_DIGEST);
  for (const std::string id :
       {"ext-io", "ext-checkpoint", "ext-btio", "ext-io-overlap"}) {
    const auto* exp = core::find_experiment(id);
    ASSERT_NE(exp, nullptr) << id;
    const auto it = committed.find(id + " " + kArmedEvent.name);
    ASSERT_NE(it, committed.end()) << id;
    const Outcome run = run_config(*exp, kArmedEvent, core::Exec::parallel());
    auto par = fields(digest_line(id, kArmedEvent, run));
    auto want = fields(it->second);
    par.erase(par.begin() + 3);
    want.erase(want.begin() + 3);
    EXPECT_EQ(par, want) << id << ": parallel run differs from "
                         << it->second;
  }
}

// --------------------------------------------------------------------------
// The fault ablations and the --faults contract end to end.
// --------------------------------------------------------------------------

/// Numeric cells of one table row ("0.50  33.46  1.089" -> {0.5, ...}).
std::vector<double> row_numbers(const std::string& line) {
  std::istringstream is(line);
  std::vector<double> out;
  std::string tok;
  while (is >> tok) {
    try {
      std::size_t used = 0;
      const double v = std::stod(tok, &used);
      if (used == tok.size()) out.push_back(v);
    } catch (...) {
      // non-numeric cell
    }
  }
  return out;
}

/// Data rows (all-numeric lines) of the `table_index`-th table in `render`.
std::vector<std::vector<double>> table_rows(const std::string& render,
                                            int table_index) {
  std::istringstream is(render);
  std::string line;
  int table = -1;
  std::vector<std::vector<double>> rows;
  while (std::getline(is, line)) {
    if (line.rfind("==", 0) == 0) {
      ++table;
      continue;
    }
    if (table != table_index || line.empty()) continue;
    auto nums = row_numbers(line);
    // Data rows carry at least two numeric cells (labels drop out above);
    // header/separator lines carry none.
    if (nums.size() >= 2) rows.push_back(std::move(nums));
  }
  return rows;
}

TEST(FaultRegistry, AblationsAreRegistered) {
  EXPECT_NE(core::find_experiment("ablation-variability"), nullptr);
  EXPECT_NE(core::find_experiment("ablation-degraded-fabric"), nullptr);
  const std::string listing = core::registry_listing();
  EXPECT_NE(listing.find("ablation-variability"), std::string::npos);
  EXPECT_NE(listing.find("ablation-degraded-fabric"), std::string::npos);
}

TEST(FaultRegistry, VariabilityCurveIsMonotone) {
  const auto rows =
      table_rows(core::ablation_variability().render(), 0);
  ASSERT_EQ(rows.size(), 5u);
  // Columns: intensity, min, mean, max, spread, mean slowdown.
  EXPECT_DOUBLE_EQ(rows[0].back(), 1.0);  // clean baseline
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i][2], rows[i - 1][2]) << "mean not monotone, row " << i;
    EXPECT_GE(rows[i].back(), rows[i - 1].back());
  }
  EXPECT_GT(rows.back().back(), 1.1);  // full jitter costs >10%
}

TEST(FaultRegistry, DegradedFabricCurveIsMonotone) {
  const auto render = core::ablation_degraded_fabric().render();
  const auto rows = table_rows(render, 0);
  ASSERT_EQ(rows.size(), 4u);
  // Columns: fraction, NL4 ms, NL4 slowdown, IB ms, IB slowdown.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i][1], rows[i - 1][1]) << "NL4 not monotone, row " << i;
    EXPECT_GE(rows[i][3], rows[i - 1][3]) << "IB not monotone, row " << i;
  }
  EXPECT_GT(rows.back()[2], 1.0);
  EXPECT_GT(rows.back()[4], 1.0);

  // Placement fallback: avoiding degraded boxes is never slower.
  const auto placement_rows = table_rows(render, 1);
  ASSERT_EQ(placement_rows.size(), 2u);
  EXPECT_LE(placement_rows[1][0], placement_rows[0][0]);
}

TEST(FaultRegistry, FaultedRunsAreSeedDeterministic) {
  const auto* exp = core::find_experiment("ablation-variability");
  ASSERT_NE(exp, nullptr);
  sim::RunContext ctx;
  (void)simfault::arm_faults(ctx, simfault::FaultSpec::uniform(9, 0.4));
  const sim::RunScope scope(ctx);
  const auto seq1 = exp->run_exec(core::Exec::sequential()).render();
  const auto seq2 = exp->run_exec(core::Exec::sequential()).render();
  const auto par = exp->run_exec(core::Exec::parallel(2)).render();
  EXPECT_EQ(seq1, seq2);
  EXPECT_EQ(seq1, par);
}

}  // namespace
}  // namespace columbia
