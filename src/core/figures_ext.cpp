// Extension experiments: the paper's §5 future-work items, implemented.
//  * ext-linpack       — the §1 "51.9 Tflop/s, Top500 #2" Linpack run
//  * ext-shmem         — SHMEM vs MPI transport microbenchmark
//  * ext-ins3d-multi   — multinode INS3D over SHMEM/NUMAlink4 vs MPI/IB
//  * ext-columbia-full — the whole 20-box machine, only tractable under
//                        the flow transport

#include "cfd/apps.hpp"
#include "cfd/ins3d_multinode.hpp"
#include "core/figures.hpp"
#include "hpcc/beff.hpp"
#include "hpcc/hpl.hpp"
#include "npbmz/hybrid.hpp"
#include "machine/network.hpp"
#include "machine/placement.hpp"
#include "simmpi/world.hpp"
#include "simshmem/shmem.hpp"

namespace columbia::core {

namespace {
using machine::Cluster;
using machine::NodeType;
using machine::Placement;
}  // namespace

Report ext_linpack(const Exec& exec) {
  std::vector<Scenario> scenarios;
  scenarios.push_back({"ext-linpack/full", [] {
                         const auto inventory = hpcc::columbia_inventory();
                         const auto full = hpcc::hpl_model(inventory);
                         return std::vector<double>{
                             hpcc::columbia_peak_flops(inventory) / 1e12,
                             static_cast<double>(full.n), full.rmax / 1e12,
                             full.efficiency};
                       }});
  scenarios.push_back(
      {"ext-linpack/subsystem", [] {
         // The 2048-CPU NUMAlink4 capability subsystem (paper: "13 Tflop/s
         // peak").
         std::vector<machine::NodeSpec> subsystem(4,
                                                  machine::NodeSpec::bx2b());
         hpcc::HplConfig sub_cfg;
         sub_cfg.fabric = machine::FabricSpec::numalink4();
         const auto sub = hpcc::hpl_model(subsystem, sub_cfg);
         return std::vector<double>{
             hpcc::columbia_peak_flops(subsystem) / 1e12,
             static_cast<double>(sub.n), sub.rmax / 1e12, sub.efficiency};
       }});
  const auto results = run_scenarios(scenarios, exec);

  Report r;
  Table t("Extension: Linpack on the full 20-node Columbia (Nov 2004 "
          "Top500 #2)",
          {"Configuration", "CPUs", "Rpeak (Tflop/s)", "N",
           "Rmax (Tflop/s)", "efficiency"});
  t.add_row({"20 boxes (12x3700 + 3xBX2a + 5xBX2b), IB", 20 * 512,
             Cell(results[0][0], 1),
             static_cast<long long>(results[0][1]), Cell(results[0][2], 1),
             Cell(results[0][3], 3)});
  t.add_row({"4 BX2b boxes, NUMAlink4", 4 * 512, Cell(results[1][0], 1),
             static_cast<long long>(results[1][1]), Cell(results[1][2], 1),
             Cell(results[1][3], 3)});
  r.tables.push_back(std::move(t));
  return r;
}

Report ext_shmem_vs_mpi(const Exec& exec) {
  // One-way delivery between distant CPUs: time until the payload is in
  // the destination's memory. MPI pays matching + (for large messages)
  // the rendezvous handshake; a SHMEM put is a single traversal. One
  // scenario per message size; each runs both transports on its own
  // engines.
  const std::vector<double> sizes{8.0, 1024.0, 65536.0, 1048576.0};
  std::vector<Scenario> scenarios;
  for (double bytes : sizes) {
    scenarios.push_back(
        {"ext-shmem/" + std::to_string(static_cast<long>(bytes)), [bytes] {
           auto cluster = Cluster::single(NodeType::AltixBX2b);
           const auto placement = Placement::dense(cluster, 64);
           double mpi_s = 0.0;
           {
             sim::Engine engine;
             machine::Network network(engine, cluster);
             simmpi::World world(engine, network, placement);
             mpi_s = world.run(
                 [&](simmpi::Rank& rank) -> sim::CoTask<void> {
                   if (rank.rank() == 0) {
                     co_await rank.send(63, bytes, 0);
                   } else if (rank.rank() == 63) {
                     (void)co_await rank.recv(0, 0);
                   }
                 });
           }
           double shmem_s = 0.0;
           {
             sim::Engine engine;
             machine::Network network(engine, cluster);
             simshmem::ShmemWorld world(engine, network, placement);
             // The makespan includes the asynchronous delivery completing.
             shmem_s = world.run(
                 [&](simshmem::Pe& pe) -> sim::CoTask<void> {
                   if (pe.pe() == 0) {
                     co_await pe.put(63, bytes);
                     co_await pe.quiet();
                   }
                 });
           }
           return std::vector<double>{mpi_s, shmem_s};
         }});
  }
  const auto results = run_scenarios(scenarios, exec);

  Report r;
  Table t("Extension: SHMEM one-sided vs MPI two-sided transport (BX2b)",
          {"Pattern", "MPI (usec)", "SHMEM (usec)", "SHMEM/MPI"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const double m = results[i][0];
    const double s = results[i][1];
    t.add_row({std::to_string(static_cast<long>(sizes[i])) + " B one-way",
               Cell(m * 1e6, 2), Cell(s * 1e6, 2), Cell(s / m, 2)});
  }
  r.tables.push_back(std::move(t));
  return r;
}

Report ext_ins3d_multinode(const Exec& exec) {
  struct Point {
    int nodes;
    int threads;
  };
  std::vector<Point> points;
  for (int nodes : {2, 4}) {
    for (int threads : {2, 4}) points.push_back({nodes, threads});
  }
  std::vector<Scenario> scenarios;
  for (const auto& pt : points) {
    scenarios.push_back(
        {"ext-ins3d-multinode/" + std::to_string(pt.nodes) + "n/" +
             std::to_string(pt.threads) + "t",
         [pt] {
           const auto pump = overset::make_turbopump();
           auto nl4 = Cluster::numalink4_bx2b(4);
           auto ib = Cluster::infiniband_cluster(NodeType::AltixBX2b, 4);
           cfd::Ins3dMultinodeConfig cfg;
           cfg.n_nodes = pt.nodes;
           cfg.groups_per_node = 36;
           cfg.threads_per_group = pt.threads;
           cfg.transport = cfd::BoundaryTransport::ShmemPut;
           const auto rs = cfd::ins3d_multinode_model(pump, nl4, cfg);
           cfg.transport = cfd::BoundaryTransport::MpiSendRecv;
           const auto rm = cfd::ins3d_multinode_model(pump, ib, cfg);
           return std::vector<double>{
               rs.seconds_per_timestep, rs.comm_seconds_per_timestep,
               rs.group_imbalance,      rm.seconds_per_timestep,
               rm.comm_seconds_per_timestep, rm.group_imbalance};
         }});
  }
  const auto results = run_scenarios(scenarios, exec);

  Report r;
  Table t("Extension: multinode INS3D (turbopump), SHMEM/NL4 vs MPI/IB",
          {"Nodes", "Groups x threads", "Transport", "sec/step",
           "cross-node comm (s)", "imbalance"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& v = results[i];
    const std::string mix =
        "36x" + std::to_string(points[i].threads) + " per node";
    t.add_row({points[i].nodes, mix, "SHMEM / NUMAlink4", Cell(v[0], 2),
               Cell(v[1], 3), Cell(v[2], 2)});
    t.add_row({points[i].nodes, mix, "MPI / InfiniBand", Cell(v[3], 2),
               Cell(v[4], 3), Cell(v[5], 2)});
  }
  r.tables.push_back(std::move(t));
  return r;
}

Report ext_class_f(const Exec& exec) {
  // Class F was defined by the paper's authors (§3.2) to stress the full
  // machine but no Class F results appear in the paper — this is the run
  // the machine was being prepared for. The §2 InfiniBand connection
  // limit (~8*128/(n-1) processes per node) makes pure MPI impossible
  // past three boxes, so the larger runs are hybrid by necessity: the
  // 20-box configuration needs ten OpenMP threads per MPI process.
  struct Point {
    npbmz::MzBenchmark bench;
    int procs;
    int threads;
    int nodes;
  };
  std::vector<Point> points;
  for (auto bench : {npbmz::MzBenchmark::BTMZ, npbmz::MzBenchmark::SPMZ}) {
    points.push_back({bench, 1536, 1, 3});
    points.push_back({bench, 1000, 5, 10});
    points.push_back({bench, 1000, 10, 20});
  }
  std::vector<Scenario> scenarios;
  for (const auto& pt : points) {
    scenarios.push_back(
        {"ext-classf/" + npbmz::to_string(pt.bench) + "/" +
             std::to_string(pt.procs) + "x" + std::to_string(pt.threads),
         [pt] {
           auto columbia =
               Cluster::infiniband_cluster(NodeType::AltixBX2b, 20);
           npbmz::MzConfig cfg;
           cfg.nprocs = pt.procs;
           cfg.threads_per_proc = pt.threads;
           cfg.n_nodes = pt.nodes;
           const auto res = npbmz::mz_rate(pt.bench, 'F', columbia, cfg);
           return std::vector<double>{res.gflops_total, res.gflops_per_cpu,
                                      res.imbalance};
         }});
  }
  const auto results = run_scenarios(scenarios, exec);

  Report r;
  Table t("Extension: NPB-MZ Class F (16384 zones, 12032x8960x250) on the "
          "full 20-box InfiniBand Columbia",
          {"Benchmark", "CPUs", "procs x threads", "Gflop/s total",
           "Gflop/s per CPU", "imbalance"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& pt = points[i];
    const auto& v = results[i];
    t.add_row({npbmz::to_string(pt.bench), pt.procs * pt.threads,
               std::to_string(pt.procs) + " x " + std::to_string(pt.threads),
               Cell(v[0], 1), Cell(v[1], 3), Cell(v[2], 2)});
  }
  r.tables.push_back(std::move(t));
  return r;
}

Report ext_columbia_full(const Exec& exec) {
  // The full machine the paper characterizes piecewise but never drives
  // end-to-end: 20 boxes, 10,240 CPUs. Event-model cost scales with
  // per-hop contention events — at this size a single random-ring sweep
  // queues tens of millions of them — so every scenario pins the flow
  // transport explicitly per Network, whatever the run's transport.
  constexpr auto kFlow = machine::TransportModel::Flow;
  constexpr int kBoxes = 20;
  constexpr int kCpusPerBox = 512;
  constexpr int kRingRanks = kBoxes * kCpusPerBox;  // 10,240
  // §2 InfiniBand connection limit: ~8*128/(n-1) MPI processes per box at
  // n=20 boxes is 53; 52 per box keeps the all-to-all legal.
  constexpr int kAlltoallRanks = 52 * kBoxes;
  constexpr double kFtBlockBytes = 65536.0;

  std::vector<Scenario> scenarios;
  scenarios.push_back(
      {"ext-columbia-full/rings", [] {
         auto columbia =
             Cluster::infiniband_cluster(NodeType::AltixBX2b, kBoxes);
         const auto placement =
             Placement::across_nodes(columbia, kRingRanks, kBoxes);
         hpcc::Beff beff(columbia, placement, 0xBEEFull, kFlow);
         const auto nat = beff.natural_ring(/*iterations=*/1);
         const auto rnd = beff.random_ring(/*trials=*/1, /*iterations=*/1);
         return std::vector<double>{nat.latency * 1e6, nat.bandwidth / 1e9,
                                    rnd.latency * 1e6, rnd.bandwidth / 1e9};
       }});
  scenarios.push_back(
      {"ext-columbia-full/ft-alltoall", [] {
         auto columbia =
             Cluster::infiniband_cluster(NodeType::AltixBX2b, kBoxes);
         const auto placement =
             Placement::across_nodes(columbia, kAlltoallRanks, kBoxes);
         sim::Engine engine;
         machine::Network network(engine, columbia, kFlow);
         simmpi::World world(engine, network, placement);
         const double seconds =
             world.run([&](simmpi::Rank& r) -> sim::CoTask<void> {
               // FT's dominant phase: one full transpose.
               co_await r.alltoall(kFtBlockBytes);
             });
         const double total_bytes = kFtBlockBytes *
                                    static_cast<double>(kAlltoallRanks) *
                                    static_cast<double>(kAlltoallRanks - 1);
         return std::vector<double>{seconds, total_bytes / seconds / 1e9};
       }});
  const auto results = run_scenarios(scenarios, exec);

  Report r;
  Table rings("Extension: full-Columbia HPCC rings, 10240 CPUs over 20 "
              "IB-connected BX2b boxes (flow transport)",
              {"Pattern", "CPUs", "latency (usec/iter)",
               "per-process bandwidth (GB/s)"});
  rings.add_row({"Natural Ring", kRingRanks, Cell(results[0][0], 2),
                 Cell(results[0][1], 3)});
  rings.add_row({"Random Ring", kRingRanks, Cell(results[0][2], 2),
                 Cell(results[0][3], 3)});
  r.tables.push_back(std::move(rings));

  Table ft("Extension: FT-style transpose at the Sec. 2 IB connection "
           "limit (52 procs/box)",
           {"CPUs", "block (KiB)", "transpose (s)", "aggregate (GB/s)"});
  ft.add_row({kAlltoallRanks, Cell(kFtBlockBytes / 1024.0, 0),
              Cell(results[1][0], 4), Cell(results[1][1], 1)});
  r.tables.push_back(std::move(ft));
  return r;
}

}  // namespace columbia::core
