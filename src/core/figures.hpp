#pragma once
/// \file figures.hpp
/// Reproduction drivers: one function per table/figure of the paper's
/// evaluation (§4). Each returns ready-to-print Table/Figure objects. The
/// experiment registry (experiment.hpp) indexes them by paper id.
///
/// Every driver decomposes its sweep into independent `Scenario` closures
/// (one sim::Engine / model evaluation per point, see scenario.hpp) and
/// assembles the Report from the ordered results, so the `Exec` policy
/// chooses sequential or host-parallel execution without changing output
/// byte-for-byte.
///
/// Simulation sizes are chosen so every driver completes in seconds on a
/// laptop while exercising the same code paths as the full-scale runs.

#include <vector>

#include "common/table.hpp"
#include "core/scenario.hpp"

namespace columbia::core {

/// Output bundle of one experiment.
struct Report {
  std::vector<Table> tables;
  std::vector<Figure> figures;

  std::string render() const;
};

// --- §2 / Table 1 ----------------------------------------------------------
Report table1_node_characteristics(const Exec& exec = {});

// --- §4.1.1 / Fig. 5: HPCC on one node of each type -------------------------
Report fig5_hpcc_single_box(const Exec& exec = {});

// --- §4.1.2 / Fig. 6: NPB (MPI + OpenMP) on the three node types ------------
Report fig6_npb_node_types(const Exec& exec = {});

// --- §4.1.3 / Table 2: INS3D groups x threads, 3700 vs BX2b ------------------
Report table2_ins3d(const Exec& exec = {});

// --- §4.1.4 / Table 3: OVERFLOW-D strong scaling, 3700 vs BX2b ---------------
Report table3_overflow(const Exec& exec = {});

// --- §4.2: CPU stride effects ------------------------------------------------
Report sec42_cpu_stride(const Exec& exec = {});

// --- §4.3 / Fig. 7: pinning vs no pinning (SP-MZ class C) -------------------
Report fig7_pinning(const Exec& exec = {});

// --- §4.4 / Fig. 8: compiler versions on OpenMP NPB -------------------------
Report fig8_compiler_versions(const Exec& exec = {});

// --- §4.4 / Table 4: INS3D and OVERFLOW-D under compilers 7.1 vs 8.1 ---------
Report table4_app_compilers(const Exec& exec = {});

// --- §4.5 / Fig. 9: process/thread mixes for BT-MZ ---------------------------
Report fig9_process_thread_mixes(const Exec& exec = {});

// --- §4.6.1 / Fig. 10: multinode HPCC, NUMAlink4 vs InfiniBand ---------------
Report fig10_hpcc_multinode(const Exec& exec = {});

// --- §4.6.2 / Fig. 11: NPB-MZ class E across nodes ---------------------------
Report fig11_npbmz_multinode(const Exec& exec = {});

// --- §4.6.3 / Table 5: molecular dynamics weak scaling -----------------------
Report table5_md_weak_scaling(const Exec& exec = {});

// --- §4.6.4 / Table 6: OVERFLOW-D across BX2b nodes --------------------------
Report table6_overflow_multinode(const Exec& exec = {});

// --- Extensions (the paper's §5 future work, implemented) --------------------
/// §1's Linpack anchor: 51.9 Tflop/s on the 20-node machine.
Report ext_linpack(const Exec& exec = {});
/// SHMEM one-sided vs MPI two-sided transport.
Report ext_shmem_vs_mpi(const Exec& exec = {});
/// Multinode INS3D over SHMEM/NUMAlink4 vs MPI/InfiniBand.
Report ext_ins3d_multinode(const Exec& exec = {});
/// OVERFLOW-D per-step cost under the two 2004 filesystems (§4.6.4):
/// closed-form machine::IoModel next to the simulated simio dump.
Report ext_io_filesystems(const Exec& exec = {});
/// Checkpoint/restart under storage faults + crashes: interval sweep with
/// C/R priced by the discrete-event filesystem, Young's optimum alongside.
Report ext_checkpoint_restart(const Exec& exec = {});
/// BT-IO-style strided appends at 504 CPUs: file-per-process vs collective
/// buffering through aggregator ranks, on both 2004 filesystems.
Report ext_btio_collective(const Exec& exec = {});
/// I/O-vs-compute overlap: blocking dumps vs write_async double buffering.
Report ext_io_overlap(const Exec& exec = {});
/// NPB-MZ Class F on the full 20-box machine (defined in §3.2, never run).
Report ext_class_f(const Exec& exec = {});
/// The whole 20-box, 10,240-CPU Columbia under the flow transport: HPCC
/// rings at full scale plus an FT-style transpose at the §2 IB connection
/// limit. Forces TransportModel::Flow per network; intractable under the
/// event model.
Report ext_columbia_full(const Exec& exec = {});

// --- Ablations (design choices called out in DESIGN.md) ----------------------
/// All-to-all algorithm choice vs the FT/Fig. 6 result shape.
Report ablation_alltoall_algorithms(const Exec& exec = {});
/// Grouping strategy (connectivity-aware LPT vs naive round-robin) vs the
/// Table 3 flattening.
Report ablation_grouping_strategies(const Exec& exec = {});
/// The cache-slab assumption behind the BX2b CFD advantage.
Report ablation_cache_slab(const Exec& exec = {});
/// simfault: run-to-run slowdown distribution vs OS-jitter intensity
/// (dedicated-vs-shared variability, §4 throughout).
Report ablation_variability(const Exec& exec = {});
/// simfault: makespan vs fraction of degraded links, NUMAlink4 vs
/// InfiniBand, plus the degraded-node-avoiding placement fallback.
Report ablation_degraded_fabric(const Exec& exec = {});

}  // namespace columbia::core
