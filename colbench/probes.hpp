#pragma once
/// \file probes.hpp
/// Layer probes: each builds its own sim/simmpi/machine objects, times
/// the one call that runs them (Engine::run or World::run), and divides
/// by the operations the probe's own coroutines counted. Sizes are fixed
/// so counts repeat exactly; the seed only picks delays and permutations.

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace colbench {

struct ProbeResult {
  std::string name;         ///< metric name, e.g. "sim.resume_ns.h512"
  std::uint64_t count = 0;  ///< operations the probe itself counted
  double wall_s = 0.0;      ///< wall time of the timed call into the layer
  double ns_per_op() const {
    return count > 0 ? wall_s * 1e9 / static_cast<double>(count) : 0.0;
  }
};

/// `live_tasks` Tasks each resumed `resumes_per_task` times through
/// Engine::delay (seeded per-task periods, so the heap stays mixed).
ProbeResult probe_resume(int live_tasks, int resumes_per_task,
                         std::uint64_t seed, Tracer* tracer);
/// Engine::spawn plus reap of `tasks` trivial Tasks, spawned in batches.
ProbeResult probe_spawn(int tasks, Tracer* tracer);
/// `waiters` Tasks woken by each of `fires` same-time Trigger::fire calls.
ProbeResult probe_trigger(int waiters, int fires, Tracer* tracer);
/// `contenders` Tasks cycling acquire/hold/release on a 2-unit Resource.
ProbeResult probe_resource(int contenders, int rounds, Tracer* tracer);
/// Two-rank ping-pong of `bytes` messages on one BX2b box.
ProbeResult probe_pingpong(const std::string& name, double bytes,
                           int round_trips, Tracer* tracer);
/// 252 ranks on one BX2b box as a 7x6x6 torus: each step every rank
/// sendrecv()s `bytes` with its 6 neighbours under sim::when_all.
ProbeResult probe_halo(double bytes, int steps, Tracer* tracer);
/// `ranks` ranks calling alltoall(`bytes`) `rounds` times. Event
/// transport on one BX2b box when `ib_boxes` is 0, else flow transport
/// over that many InfiniBand-connected BX2b boxes.
ProbeResult probe_alltoall(const std::string& name, int ranks, double bytes,
                           int rounds, int ib_boxes, Tracer* tracer);

/// Network::transfer under one backend: every CPU of a 4-box InfiniBand
/// BX2b cluster sends `rounds` transfers of `bytes` to its image under a
/// seeded random permutation.
struct TransferProbe {
  ProbeResult result;
  std::uint64_t flow_solves = 0;     ///< FlowSolver::solves() (flow only)
  std::uint64_t flows_completed = 0;  ///< FlowSolver::flows_completed()
};
TransferProbe probe_transfer(bool flow, double bytes, int rounds,
                             std::uint64_t seed, Tracer* tracer);

/// Every layer probe at its benchmark size, metric-named.
struct LayerProbes {
  std::vector<ProbeResult> ns;  ///< reported as ns per operation
  double flow_solves_per_flow = 0.0;
  std::uint64_t flows = 0;
};
LayerProbes run_layer_probes(std::uint64_t seed, Tracer* tracer);

}  // namespace colbench
