#include "simomp/omp_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "sim/run_context.hpp"

namespace columbia::simomp {

OmpModel::OmpModel(const machine::NodeSpec& node,
                   perfmodel::CompilerVersion compiler)
    : model_(node, compiler) {}

int OmpModel::bricks_spanned(int nthreads) const {
  return (nthreads + node().cpus_per_brick - 1) / node().cpus_per_brick;
}

double OmpModel::fork_join_cost(int nthreads) const {
  if (nthreads <= 1) return 0.0;
  const double levels = std::ceil(std::log2(static_cast<double>(nthreads)));
  return node().omp_fork_join * levels;
}

double OmpModel::migration_penalty(int nthreads, Pinning pin) const {
  if (pin == Pinning::Pinned) return 1.0;
  if (nthreads <= 1) return 1.05;  // processes mostly stay put (Fig. 7)
  // Each migration strands a thread's pages on its old brick; the expected
  // remote-access surcharge grows with team size (more victims, longer
  // NUMA distances). Calibrated to the Fig. 7 gaps.
  const double levels = std::log2(static_cast<double>(nthreads));
  return 1.0 + 0.25 * levels;
}

double OmpModel::region_time(const RegionSpec& region, int nthreads,
                             Pinning pin, perfmodel::KernelClass kernel,
                             int bus_sharers_override) const {
  if (const sim::RunContext* ctx = sim::current_run_context()) {
    for (const auto& obs : ctx->region_observers) obs(region, nthreads);
  }
  COL_REQUIRE(nthreads >= 1, "need at least one thread");
  COL_REQUIRE(nthreads <= node().num_cpus, "team exceeds node size");
  COL_REQUIRE(region.shared_traffic_fraction >= 0.0 &&
                  region.shared_traffic_fraction <= 1.0,
              "shared fraction must be in [0,1]");
  COL_REQUIRE(region.serial_fraction >= 0.0 && region.serial_fraction < 1.0,
              "serial fraction must be in [0,1)");

  const double parallel =
      body_time(region, nthreads, pin, kernel, bus_sharers_override);
  double serial = 0.0;
  if (region.serial_fraction > 0.0 && nthreads > 1) {
    serial = region.serial_fraction *
             body_time(region, 1, pin, kernel, bus_sharers_override);
  }
  return parallel + serial + fork_join_cost(nthreads);
}

double OmpModel::body_time(const RegionSpec& region, int nthreads,
                           Pinning pin, perfmodel::KernelClass kernel,
                           int bus_sharers_override) const {
  const double inv = 1.0 / nthreads;
  const int bricks = bricks_spanned(nthreads);
  // Traffic that leaves the thread's brick: the shared portion, scaled by
  // how much of the team is remote.
  const double remote_fraction =
      region.shared_traffic_fraction * (1.0 - 1.0 / bricks);

  perfmodel::Work per_thread;
  per_thread.flops = region.total.flops * inv;
  per_thread.mem_bytes = region.total.mem_bytes * inv * (1.0 - remote_fraction);
  per_thread.working_set = region.total.working_set * inv;
  per_thread.flop_efficiency = region.total.flop_efficiency;

  const int bus_sharers =
      bus_sharers_override > 0
          ? std::min(bus_sharers_override, node().cpus_per_bus)
          : std::min(nthreads, node().cpus_per_bus);
  const int width =
      region.compiler_width > 0 ? region.compiler_width : nthreads;
  const double t_local = model_.time(per_thread, bus_sharers, kernel, width);

  // Remote traffic moves as cache-coherent line fills, so it is
  // *latency*-bound: a thread keeps a few line transfers in flight against
  // the round-trip to the remote brick. NUMAlink4's shallower tree and
  // faster routers cut that round-trip — the mechanism behind Fig. 6's
  // "up to 2x at 128 threads" OpenMP gap between BX2 and 3700. (The
  // fat-tree bisection scales linearly with CPUs, so aggregate link
  // bandwidth is not the binding constraint.)
  double t_remote = 0.0;
  if (remote_fraction > 0.0) {
    const double remote_bytes =
        region.total.mem_bytes * inv * remote_fraction;
    const double hops =
        2.0 * std::ceil(std::log(static_cast<double>(bricks)) /
                        std::log(static_cast<double>(node().router_radix))) -
        1.0;
    const double round_trip =
        node().mem.local_latency +
        std::max(1.0, hops) * node().numa_hop_mem_latency;
    const double remote_bw = node().mem_lines_outstanding *
                             node().cpu.cache_line_bytes / round_trip;
    t_remote = remote_bytes / remote_bw;
  }

  return (t_local + t_remote) * migration_penalty(nthreads, pin);
}

}  // namespace columbia::simomp
