#pragma once
/// \file network.hpp
/// Engine-bound contended network for a Cluster, with two selectable
/// transport backends behind one interface (transport.hpp). A transfer is
/// a caller-owned `Network::Transfer` record stepped by callback events
/// (inject()), so it costs events but no coroutine frame; `transfer()`
/// wraps one record in an awaitable for coroutine callers:
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
/// egress -> spine -> ingress) and released in reverse, so no simulated
/// deadlocks are possible.
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

#include <array>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "machine/cluster.hpp"
#include "machine/fault.hpp"
#include "machine/flow.hpp"
#include "machine/transport.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

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

  /// One transfer in flight, in storage its caller owns until it
  /// completes: `bytes` from `src` to `dst` (global CPU ids); `bytes == 0`
  /// models a pure handshake. inject() steps it through callback events:
  /// the self copy; on the event backend, acquire the path in order, hold
  /// it for the serialization time, release it in reverse, then the
  /// latency; on the flow backend, the drain.
  class Transfer {
   public:
    Transfer() = default;
    /// `done` runs, inside the event that completes the transfer, at
    /// delivery time (unless inject() returns true).
    Transfer(int src, int dst, double bytes, sim::Callback done)
        : src_(src), dst_(dst), bytes_(bytes), done_(done) {}

    int src() const { return src_; }
    int dst() const { return dst_; }
    double bytes() const { return bytes_; }

   private:
    friend class Network;
    /// Acquires the rest of the path; the grant callback of a queued hop.
    void acquire_path();
    /// Releases the path and schedules the latency.
    void release_path();
    /// Delivery: counts the transfer, emits its span, runs `done_`.
    void land();

    int src_ = 0;
    int dst_ = 0;
    double bytes_ = 0.0;
    sim::Callback done_;
    Network* net_ = nullptr;
    double begin_ = 0.0;    ///< injection time (span start)
    double latency_ = 0.0;  ///< after the serialization segment
    double hold_ = 0.0;     ///< serialization time on the path
    /// Injection, then egress, spine and ingress where the path crosses
    /// them; path_[0..held_) are acquired.
    std::array<sim::Resource*, 4> path_{};
    int npath_ = 0;
    int held_ = 0;
  };

  /// Injects `t` now. Returns true when it completed at once (a zero-byte
  /// self-message); otherwise `t`'s callback runs at delivery time.
  bool inject(Transfer& t);

  /// Awaitable: `co_await network.transfer(src, dst, bytes)` completes at
  /// delivery time, over a Transfer record held in the awaiting frame.
  auto transfer(int src, int dst, double bytes) {
    struct Awaiter {
      Network& net;
      Transfer t;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) {
        t.done_ = sim::Callback::resume(h);
        return !net.inject(t);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, Transfer(src, dst, bytes, {})};
  }

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
  /// Counts a finished transfer and emits its Wire span.
  void complete(const Transfer& t);

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
