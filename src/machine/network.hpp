#pragma once
/// \file network.hpp
/// Engine-bound contended network for a Cluster, with two selectable
/// transport backends behind one coroutine interface (transport.hpp):
///
/// TransportModel::Event — every simulated message moves through shared
/// resources exactly where the hardware serializes:
///   * a per-CPU injection port (a CPU pushes one message at a time),
///   * per-SHUB NUMAlink ports — each SHUB serves the two CPUs of one bus,
///     so cross-bus traffic contends per CPU pair (this is the BX2's real
///     edge: same ports-per-CPU, double the port bandwidth),
///   * a per-node spine pool bounding concurrent cross-brick transfers to
///     the fat-tree bisection,
///   * per-node fabric channels (NUMAlink4 ports or InfiniBand cards) for
///     cross-node traffic.
/// Transfers hold their path's resources for bytes/bottleneck_bw seconds
/// (store-and-forward at message granularity), then incur the path's wire
/// latency. Resources are acquired in a fixed global order (injection ->
/// egress -> spine -> ingress), so no simulated deadlocks are possible.
///
/// TransportModel::Flow — the same links and capacities feed a fluid
/// max-min fair bandwidth-sharing solver (flow.hpp): a transfer is one
/// start/finish event pair whose duration is solved from the concurrent
/// flow set, instead of a queueing walk through the resources. Roughly an
/// order of magnitude fewer machine events on contention-heavy patterns,
/// at the price of replacing FIFO queueing detail with fair sharing —
/// aggregate timings track the event backend within a few tens of percent
/// (see DESIGN.md "Transport models"), uncontended paths and zero-byte
/// handshakes match it exactly.
///
/// Both backends share path classification, fault sampling (at injection
/// time), the transfer counter, and the Wire span emitted per transfer, so
/// workloads, simcheck, simprof, and simfault behave identically under
/// either.

#include <cstdint>
#include <memory>
#include <vector>

#include "machine/cluster.hpp"
#include "machine/fault.hpp"
#include "machine/flow.hpp"
#include "machine/transport.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace columbia::machine {

class Network {
 public:
  /// The default transport is the installed RunContext's (--transport);
  /// pass one explicitly to force a backend regardless of the run mode
  /// (the full-Columbia experiment forces Flow this way).
  Network(sim::Engine& engine, const Cluster& cluster,
          TransportModel transport = context_transport());

  const Cluster& cluster() const { return *cluster_; }
  sim::Engine& engine() const { return *engine_; }
  TransportModel transport() const { return transport_; }

  /// Attaches a fault model: cross-node transfers query it for bandwidth
  /// degradation and reroute latency (fault.hpp). The model must outlive
  /// every transfer; nullptr (the default) restores clean behaviour —
  /// and a clean network is byte-identical to a pre-fault build.
  void set_fault_model(const FaultModel* model) { fault_model_ = model; }
  const FaultModel* fault_model() const { return fault_model_; }

  /// Moves `bytes` from `src` to `dst` (global CPU ids). The coroutine
  /// completes at delivery time. `bytes == 0` models a pure handshake.
  sim::CoTask<void> transfer(int src, int dst, double bytes);

  /// Time a lone `bytes`-message would take with zero contention; used by
  /// analytic cost models and tests. Identical under both transports.
  double uncontended_time(int src, int dst, double bytes) const;

  std::uint64_t transfers_completed() const { return transfers_completed_; }
  /// The flow backend's solver (nullptr under the event backend).
  const FlowSolver* flow_solver() const { return flow_.get(); }

 private:
  /// Path classification shared by both backends: which serialization
  /// points a (src, dst) pair crosses.
  struct Path {
    int src_node;
    int dst_node;
    int src_bus;   ///< global bus index (node * buses_per_node + local)
    int dst_bus;
    bool cross_node;
    bool cross_bus;
    bool cross_brick;
  };
  Path classify(int src, int dst) const;

  sim::Engine* engine_;
  const Cluster* cluster_;
  TransportModel transport_;

  // Event backend state (empty under Flow).
  std::vector<std::unique_ptr<sim::Resource>> injection_;    // per CPU
  std::vector<std::unique_ptr<sim::Resource>> bus_egress_;   // per SHUB port
  std::vector<std::unique_ptr<sim::Resource>> bus_ingress_;  // per SHUB port
  std::vector<std::unique_ptr<sim::Resource>> spine_;        // per node
  std::vector<std::unique_ptr<sim::Resource>> node_egress_;  // per node
  std::vector<std::unique_ptr<sim::Resource>> node_ingress_; // per node

  // Flow backend state (nullptr under Event). Link indexing mirrors the
  // resource vectors above: [injection | bus egress | bus ingress | spine
  // | node egress | node ingress].
  std::unique_ptr<FlowSolver> flow_;
  int link_bus_egress_base_ = 0;
  int link_bus_ingress_base_ = 0;
  int link_spine_base_ = 0;
  int link_node_egress_base_ = 0;
  int link_node_ingress_base_ = 0;

  const FaultModel* fault_model_ = nullptr;
  std::uint64_t transfers_completed_ = 0;
};

}  // namespace columbia::machine
