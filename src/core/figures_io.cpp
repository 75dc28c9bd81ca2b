// Storage experiments on the discrete-event filesystem model (src/simio):
//  * ext-io          — OVERFLOW-D per-step cost under the two 2004
//                      filesystems, closed-form machine::IoModel column
//                      next to the simulated 504-rank dump
//  * ext-checkpoint  — checkpoint/restart interval sweep under storage
//                      degradation + machine-wide crashes
//  * ext-btio        — BT-IO-style strided appends: file-per-process vs
//                      collective buffering through aggregator ranks
//  * ext-io-overlap  — blocking dumps vs write_async double buffering
//
// Every scenario wires fs.set_fault_model(world.fault_model()) so the
// run's `--faults` model degrades the server disks alongside the fabric,
// and the NFS preset routes its chunks across the compute fabric through
// machine::Network (the TransportModel seam).

#include <algorithm>
#include <string>
#include <vector>

#include "cfd/apps.hpp"
#include "core/figures.hpp"
#include "machine/io_model.hpp"
#include "machine/network.hpp"
#include "machine/placement.hpp"
#include "simfault/schedule.hpp"
#include "simio/filesystem.hpp"
#include "simio/workload.hpp"
#include "simmpi/world.hpp"

namespace columbia::core {

namespace {

using machine::Cluster;
using machine::NodeType;
using machine::Placement;

// One q-file dump (5 variables, 75M points, doubles) every 100 steps.
constexpr int kDumpInterval = 100;
constexpr int kIoRanks = 504;
constexpr int kIoNodes = 4;

// Coroutine bodies are free functions taking their context as parameters:
// the launching lambda returns the CoTask without being a coroutine
// itself, so no lambda captures outlive their frame.
sim::CoTask<void> dump_program(simio::Filesystem& fs, double bytes,
                               simmpi::Rank& rank) {
  simio::File f = fs.file(rank.cpu());
  co_await f.open(rank);
  co_await f.write(rank, bytes);
  co_await f.close(rank);
}

/// Makespan of every rank dumping `bytes_per_rank` to `spec`, placed
/// across `n_nodes` boxes of `cluster`. The NFS preset rides the compute
/// fabric: every chunk crosses machine::Network to the gateway CPU.
double simulated_dump_seconds(const Cluster& cluster, int nranks,
                              int n_nodes,
                              const machine::FilesystemSpec& spec,
                              double bytes_per_rank) {
  sim::Engine engine;
  machine::Network network(engine, cluster);
  simmpi::World world(engine, network,
                      Placement::across_nodes(cluster, nranks, n_nodes));
  simio::Filesystem fs(engine, spec);
  fs.set_fault_model(world.fault_model());
  if (spec.kind == machine::FilesystemKind::NfsOverTenGigE) {
    fs.set_network(&network, /*gateway_cpu=*/0);
  }
  return world.run([&fs, bytes_per_rank](simmpi::Rank& r) {
    return dump_program(fs, bytes_per_rank, r);
  });
}

}  // namespace

Report ext_io_filesystems(const Exec& exec) {
  struct FabricCase {
    std::string name;
    bool numalink;
  };
  const std::vector<FabricCase> fabrics{{"NUMAlink4", true},
                                        {"InfiniBand", false}};

  std::vector<Scenario> scenarios;
  for (const auto& f : fabrics) {
    scenarios.push_back(
        {"ext-io/" + f.name, [numalink = f.numalink] {
           const auto rotor = overset::make_rotor();
           const double dump_bytes = 5.0 * 8.0 * rotor.total_points();
           auto cluster =
               numalink ? Cluster::numalink4_bx2b(kIoNodes)
                        : Cluster::infiniband_cluster(NodeType::AltixBX2b,
                                                      kIoNodes);
           cfd::OverflowConfig cfg;
           cfg.nprocs = kIoRanks;
           cfg.n_nodes = kIoNodes;
           const auto base = cfd::overflow_model(rotor, cluster, cfg);
           std::vector<double> v{base.exec_seconds_per_step};
           for (auto fs : {machine::FilesystemSpec::shared_parallel(),
                           machine::FilesystemSpec::nfs_over_gige()}) {
             const machine::IoModel io(fs);
             v.push_back(
                 io.per_step_cost(cfg.nprocs, dump_bytes, kDumpInterval));
             const double dump = simulated_dump_seconds(
                 cluster, cfg.nprocs, cfg.n_nodes, fs,
                 dump_bytes / cfg.nprocs);
             v.push_back(dump / kDumpInterval);
           }
           return v;
         }});
  }
  const auto results = run_scenarios(scenarios, exec);

  Report r;
  Table t("Extension: OVERFLOW-D per-step cost under the two 2004 "
          "filesystems (504 CPUs, 4 BX2b boxes)",
          {"Fabric", "Filesystem", "compute+comm (s)", "closed-form I/O (s)",
           "simulated I/O (s)", "total (s)", "I/O share"});
  for (std::size_t i = 0; i < fabrics.size(); ++i) {
    const double exec_s = results[i][0];
    std::size_t idx = 1;
    for (auto fs : {machine::FilesystemSpec::shared_parallel(),
                    machine::FilesystemSpec::nfs_over_gige()}) {
      const double closed = results[i][idx++];
      const double sim = results[i][idx++];
      const double total = exec_s + sim;
      t.add_row({fabrics[i].name, machine::to_string(fs.kind),
                 Cell(exec_s, 3), Cell(closed, 3), Cell(sim, 3),
                 Cell(total, 3), Cell(sim / total, 3)});
    }
  }
  r.tables.push_back(std::move(t));
  return r;
}

Report ext_checkpoint_restart(const Exec& exec) {
  // A 64-rank job checkpointing 128 MiB per rank to the shared-parallel
  // filesystem: the write (C) and restart read (R) are priced by the
  // discrete-event model under the same storage faults whose crash
  // schedule then drives the interval sweep.
  constexpr std::uint64_t kSeed = 0xC0FFEEull;
  constexpr double kCrashPeriod = 120.0;
  constexpr double kRebootSeconds = 30.0;
  constexpr double kWork = 400.0;
  constexpr int kRanks = 64;
  constexpr double kBytesPerRank = 128.0 * 1024 * 1024;
  constexpr double kHorizon = 5000.0;
  const std::vector<double> taus{10.0, 20.0, 40.0, 80.0, 160.0};
  const std::vector<double> intensities{0.0, 0.25, 0.5, 1.0};

  std::vector<Scenario> scenarios;
  for (double intensity : intensities) {
    scenarios.push_back(
        {"ext-checkpoint/" + std::to_string(intensity),
         [intensity, taus] {
           const auto spec = simfault::FaultSpec::storage_only(
               kSeed, intensity, kCrashPeriod);
           const simfault::ScheduledFaultModel model(spec, /*num_nodes=*/1,
                                                     /*cpus_per_node=*/kRanks);
           const auto fs = machine::FilesystemSpec::shared_parallel();
           const double c = simio::simulated_write_time(
               fs, kRanks, kBytesPerRank, &model);
           const double r = kRebootSeconds + simio::simulated_read_time(
                                                 fs, kRanks, kBytesPerRank,
                                                 &model);
           std::vector<double> v{c, r};
           double best_tau = taus.front();
           double best_m = -1.0;
           for (double tau : taus) {
             simio::CheckpointParams p;
             p.work = kWork;
             p.interval = tau;
             p.checkpoint_cost = c;
             p.restart_cost = r;
             p.horizon = kHorizon;
             const double m = simio::checkpoint_makespan(p, model);
             v.push_back(m);
             if (best_m < 0.0 || m < best_m) {
               best_m = m;
               best_tau = tau;
             }
           }
           v.push_back(best_tau);
           // Young's first-order optimum against the candidate-grid MTBF
           // (infinite when no crash strikes).
           v.push_back(intensity > 0.0
                           ? simio::young_interval(c, kCrashPeriod / intensity)
                           : -1.0);
           return v;
         }});
  }
  const auto results = run_scenarios(scenarios, exec);

  Report r;
  std::vector<std::string> header{"intensity", "C (s)", "R (s)"};
  for (double tau : taus) {
    header.push_back("tau=" + std::to_string(static_cast<int>(tau)) + " (s)");
  }
  header.push_back("best tau");
  header.push_back("Young tau");
  Table t("Extension: checkpoint/restart makespan (400 s of work, 64 ranks "
          "x 128 MiB to the shared-parallel FS, crashes every 120 s "
          "candidate grid; censored at 5000 s)",
          header);
  for (std::size_t i = 0; i < intensities.size(); ++i) {
    const auto& v = results[i];
    std::vector<Cell> row{Cell(intensities[i], 2), Cell(v[0], 1),
                          Cell(v[1], 1)};
    // Cells are built in place: GCC 12 flags moving a temporary Cell into
    // the row as a maybe-uninitialized string read (-Werror builds).
    for (std::size_t j = 0; j < taus.size(); ++j) {
      row.emplace_back(v[2 + j], 1);
    }
    row.emplace_back(v[2 + taus.size()], 0);
    const double young = v[3 + taus.size()];
    if (young < 0.0) {
      row.emplace_back("-");
    } else {
      row.emplace_back(young, 1);
    }
    t.add_row(std::move(row));
  }
  r.tables.push_back(std::move(t));
  return r;
}

namespace {

sim::CoTask<void> btio_fpp_program(simio::Filesystem& fs, int steps,
                                   double block, simmpi::Rank& rank) {
  simio::File f = fs.file(rank.cpu());
  co_await f.open(rank);
  for (int s = 0; s < steps; ++s) {
    co_await f.write(rank, block);
  }
  co_await f.close(rank);
}

/// Collective buffering: ranks >= naggr ship each append to aggregator
/// (rank % naggr); aggregators coalesce their group's blocks into one
/// sequential write per step (fewer, larger, stripe-aligned disk ops).
sim::CoTask<void> btio_collective_program(simio::Filesystem& fs, int naggr,
                                          int steps, double block,
                                          simmpi::Rank& rank) {
  const int n = rank.size();
  if (rank.rank() < naggr) {
    simio::File f = fs.file(rank.cpu());
    co_await f.open(rank);
    for (int s = 0; s < steps; ++s) {
      std::vector<simmpi::Request> reqs;
      for (int src = rank.rank() + naggr; src < n; src += naggr) {
        reqs.push_back(rank.irecv(src, s));
      }
      co_await rank.wait_all(reqs);
      co_await f.write(rank,
                       block * static_cast<double>(reqs.size() + 1));
    }
    co_await f.close(rank);
  } else {
    for (int s = 0; s < steps; ++s) {
      co_await rank.send(rank.rank() % naggr, block, s);
    }
  }
}

}  // namespace

Report ext_btio_collective(const Exec& exec) {
  // BT-IO appends one solution block per rank every few timesteps; the
  // appends are strided, so each lands as its own positioning-cost-bearing
  // disk access unless coalesced. server_seek (zero in the presets, which
  // model streaming dumps) is raised to the strided-append cost here.
  constexpr int kSteps = 40;
  constexpr double kTotalBytes = 3.0e9;
  constexpr double kServerSeek = 0.5e-3;
  const double block = kTotalBytes / kIoRanks / kSteps;

  struct StrategyCase {
    std::string name;
    bool collective;
  };
  const std::vector<StrategyCase> strategies{{"file-per-process", false},
                                             {"collective buffering", true}};
  const std::vector<machine::FilesystemSpec> presets{
      machine::FilesystemSpec::shared_parallel(),
      machine::FilesystemSpec::nfs_over_gige()};

  std::vector<Scenario> scenarios;
  for (const auto& fs_spec : presets) {
    for (const auto& strat : strategies) {
      scenarios.push_back(
          {"ext-btio/" + std::string(machine::to_string(fs_spec.kind)) + "/" +
               strat.name,
           [fs_spec, collective = strat.collective, block] {
             auto spec = fs_spec;
             spec.server_seek = kServerSeek;
             const int naggr = std::min(kIoRanks, spec.servers * 4);
             auto cluster = Cluster::numalink4_bx2b(kIoNodes);
             sim::Engine engine;
             machine::Network network(engine, cluster);
             simmpi::World world(
                 engine, network,
                 Placement::across_nodes(cluster, kIoRanks, kIoNodes));
             simio::Filesystem fs(engine, spec);
             fs.set_fault_model(world.fault_model());
             if (spec.kind == machine::FilesystemKind::NfsOverTenGigE) {
               fs.set_network(&network, /*gateway_cpu=*/0);
             }
             double makespan = 0.0;
             if (collective) {
               makespan =
                   world.run([&fs, naggr, block](simmpi::Rank& r) {
                     return btio_collective_program(fs, naggr, kSteps, block,
                                                    r);
                   });
             } else {
               makespan = world.run([&fs, block](simmpi::Rank& r) {
                 return btio_fpp_program(fs, kSteps, block, r);
               });
             }
             return std::vector<double>{
                 makespan, world.mean_io_seconds(),
                 static_cast<double>(fs.stats().chunks),
                 static_cast<double>(collective ? naggr : kIoRanks)};
           }});
    }
  }
  const auto results = run_scenarios(scenarios, exec);

  Report r;
  Table t("Extension: BT-IO-style strided appends, 504 CPUs, 3 GB over 40 "
          "steps (server positioning cost 0.5 ms)",
          {"Filesystem", "Strategy", "writers", "makespan (s)",
           "mean I/O block (s)", "disk ops"});
  std::size_t i = 0;
  for (const auto& fs_spec : presets) {
    for (const auto& strat : strategies) {
      const auto& v = results[i++];
      t.add_row({machine::to_string(fs_spec.kind), strat.name,
                 static_cast<long long>(v[3]), Cell(v[0], 2), Cell(v[1], 2),
                 static_cast<long long>(v[2])});
    }
  }
  r.tables.push_back(std::move(t));
  return r;
}

namespace {

sim::CoTask<void> overlap_program(simio::Filesystem& fs, int steps,
                                  double compute_s, double bytes, bool async,
                                  simmpi::Rank& rank) {
  simio::File f = fs.file(rank.cpu());
  co_await f.open(rank);
  simio::IoRequest pending;
  for (int s = 0; s < steps; ++s) {
    // Slight deterministic skew keeps the ranks out of lockstep.
    co_await rank.compute(compute_s + 2e-3 * (rank.rank() % 8));
    if (async) {
      if (pending.valid()) {
        co_await f.wait(rank, pending);
      }
      pending = f.write_async(bytes);
    } else {
      co_await f.write(rank, bytes);
    }
  }
  if (pending.valid()) {
    co_await f.wait(rank, pending);
  }
  co_await f.close(rank);
}

}  // namespace

Report ext_io_overlap(const Exec& exec) {
  // Double buffering: each step's dump streams out while the next step
  // computes; the rank only pays for I/O still in flight when it next
  // needs the buffer. io_s measures blocked time, so a hidden dump
  // charges (almost) nothing.
  constexpr int kRanks = 64;
  constexpr int kSteps = 8;
  constexpr double kComputeSeconds = 1.0;
  constexpr double kBytesPerStep = 16.0 * 1024 * 1024;

  struct ModeCase {
    std::string name;
    bool async;
  };
  const std::vector<ModeCase> modes{{"blocking", false},
                                    {"async double-buffer", true}};
  const std::vector<machine::FilesystemSpec> presets{
      machine::FilesystemSpec::shared_parallel(),
      machine::FilesystemSpec::nfs_over_gige()};

  std::vector<Scenario> scenarios;
  for (const auto& fs_spec : presets) {
    for (const auto& mode : modes) {
      scenarios.push_back(
          {"ext-io-overlap/" +
               std::string(machine::to_string(fs_spec.kind)) + "/" +
               mode.name,
           [fs_spec, async = mode.async] {
             auto cluster = Cluster::single(NodeType::AltixBX2b);
             sim::Engine engine;
             machine::Network network(engine, cluster);
             simmpi::World world(engine, network,
                                 Placement::dense(cluster, kRanks));
             simio::Filesystem fs(engine, fs_spec);
             fs.set_fault_model(world.fault_model());
             if (fs_spec.kind == machine::FilesystemKind::NfsOverTenGigE) {
               fs.set_network(&network, /*gateway_cpu=*/0);
             }
             const double makespan =
                 world.run([&fs, async](simmpi::Rank& r) {
                   return overlap_program(fs, kSteps, kComputeSeconds,
                                          kBytesPerStep, async, r);
                 });
             return std::vector<double>{makespan, world.mean_io_seconds(),
                                        world.mean_compute_seconds()};
           }});
    }
  }
  const auto results = run_scenarios(scenarios, exec);

  Report r;
  Table t("Extension: I/O-vs-compute overlap, 64 ranks x 8 steps x 16 MiB "
          "dumps (io_s counts blocked time only)",
          {"Filesystem", "Mode", "makespan (s)", "mean io_s (blocked)",
           "mean compute (s)"});
  std::size_t i = 0;
  for (const auto& fs_spec : presets) {
    for (const auto& mode : modes) {
      const auto& v = results[i++];
      t.add_row({machine::to_string(fs_spec.kind), mode.name, Cell(v[0], 2),
                 Cell(v[1], 3), Cell(v[2], 3)});
    }
  }
  r.tables.push_back(std::move(t));
  return r;
}

}  // namespace columbia::core
