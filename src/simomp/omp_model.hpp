#pragma once
/// \file omp_model.hpp
/// OpenMP parallel-region cost model for one Altix node (paper §4.3, §4.5).
///
/// An OpenMP region's time on a NUMA box is governed by four effects the
/// paper isolates experimentally:
///   1. per-thread compute/bandwidth cost (roofline, bus sharing),
///   2. remote-memory traffic once threads span multiple C-bricks — the
///      reason OpenMP codes "scaled much better on BX2 than on 3700 when
///      the number of threads is four or more" (Fig. 6): the BX2 brick
///      holds 8 threads before spilling, and its NUMAlink4 doubles the
///      spill bandwidth,
///   3. fork/join + barrier overhead growing with thread count — the reason
///      "OpenMP performance drops quickly as the number of threads
///      increases" (Fig. 9),
///   4. data/thread placement: without pinning, threads migrate and lose
///      first-touch locality (Fig. 7) — hybrid codes suffer most.

#include "machine/spec.hpp"
#include "perfmodel/compute.hpp"
#include "perfmodel/work.hpp"

namespace columbia::simomp {

enum class Pinning { Pinned, Unpinned };

/// One parallel region's aggregate demand.
struct RegionSpec {
  perfmodel::Work total;  ///< summed over all threads
  /// Fraction of the region's memory traffic that touches data shared
  /// across threads (and therefore lives on remote bricks once the team
  /// spans several). Kernel-specific: stencil ~0.2, FFT transpose ~0.5.
  double shared_traffic_fraction = 0.3;
  /// Amdahl serial fraction: master-only code, reductions, loop startup.
  /// Drives the "OpenMP performance drops quickly as the number of threads
  /// increases" behaviour of Fig. 9.
  double serial_fraction = 0.001;
  /// Parallel width reported to the compiler model (some compiler effects
  /// depend on the total job size, e.g. OVERFLOW-D's Table 4 crossover at
  /// 64 CPUs). 0 = use the team size.
  int compiler_width = 0;
};

class OmpModel {
 public:
  OmpModel(const machine::NodeSpec& node,
           perfmodel::CompilerVersion compiler =
               perfmodel::CompilerVersion::Intel7_1);

  const machine::NodeSpec& node() const { return model_.node(); }

  /// Wall time of one region executed by `nthreads` densely-placed threads.
  /// Calls the installed RunContext's region observers first (simcheck's
  /// `--check` validates non-finite or negative demand the contracts
  /// cannot catch, since NaN compares false; simprof's `--profile` counts
  /// regions).
  /// `bus_sharers_override`: CPUs actively streaming on each FSB. 0 derives
  /// it from the team size alone (a lone job on the node); pass the node's
  /// cpus_per_bus when other processes of a dense job occupy the
  /// neighbouring CPUs.
  double region_time(const RegionSpec& region, int nthreads, Pinning pin,
                     perfmodel::KernelClass kernel,
                     int bus_sharers_override = 0) const;

  /// Cost of spawning/joining a team of `nthreads` (log-tree barrier).
  double fork_join_cost(int nthreads) const;

  /// Multiplier >= 1 applied to unpinned runs; grows with team size and
  /// brick span (remote-access probability after migration).
  double migration_penalty(int nthreads, Pinning pin) const;

  /// Number of C-bricks a dense team of `nthreads` occupies.
  int bricks_spanned(int nthreads) const;

 private:
  /// Parallel-body wall time (no fork/join, no serial section).
  double body_time(const RegionSpec& region, int nthreads, Pinning pin,
                   perfmodel::KernelClass kernel,
                   int bus_sharers_override = 0) const;

  perfmodel::ComputeModel model_;
};

}  // namespace columbia::simomp
