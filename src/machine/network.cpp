#include "machine/network.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "sim/trace.hpp"

namespace columbia::machine {

Network::Network(sim::Engine& engine, const Cluster& cluster,
                 TransportModel transport)
    : engine_(&engine), cluster_(&cluster), transport_(transport) {
  const int cpus = cluster.total_cpus();
  const int buses = cluster.num_nodes() * cluster.topology().num_buses();
  const int links = cluster.fabric().type == FabricType::None
                        ? 1
                        : cluster.fabric().links_per_node;
  const int spine_units = std::max(1, cluster.topology().num_buses() / 2);

  if (transport_ == TransportModel::Event) {
    injection_.reserve(static_cast<std::size_t>(cpus));
    for (int i = 0; i < cpus; ++i) {
      injection_.push_back(std::make_unique<sim::Resource>(engine, 1));
    }
    for (int i = 0; i < buses; ++i) {
      bus_egress_.push_back(std::make_unique<sim::Resource>(engine, 1));
      bus_ingress_.push_back(std::make_unique<sim::Resource>(engine, 1));
    }
    for (int i = 0; i < cluster.num_nodes(); ++i) {
      spine_.push_back(std::make_unique<sim::Resource>(engine, spine_units));
      node_egress_.push_back(std::make_unique<sim::Resource>(engine, links));
      node_ingress_.push_back(std::make_unique<sim::Resource>(engine, links));
    }
    return;
  }

  // Flow backend: one capacity entry per serialization point, same layout
  // and unit counts as the resource vectors above.
  link_bus_egress_base_ = cpus;
  link_bus_ingress_base_ = link_bus_egress_base_ + buses;
  link_spine_base_ = link_bus_ingress_base_ + buses;
  link_node_egress_base_ = link_spine_base_ + cluster.num_nodes();
  link_node_ingress_base_ = link_node_egress_base_ + cluster.num_nodes();
  std::vector<double> caps;
  caps.reserve(static_cast<std::size_t>(link_node_ingress_base_ +
                                        cluster.num_nodes()));
  caps.insert(caps.end(), static_cast<std::size_t>(cpus), 1.0);
  caps.insert(caps.end(), static_cast<std::size_t>(2 * buses), 1.0);
  caps.insert(caps.end(), static_cast<std::size_t>(cluster.num_nodes()),
              static_cast<double>(spine_units));
  caps.insert(caps.end(), static_cast<std::size_t>(2 * cluster.num_nodes()),
              static_cast<double>(links));
  flow_ = std::make_unique<FlowSolver>(engine, std::move(caps));
}

double Network::uncontended_time(int src, int dst, double bytes) const {
  if (src == dst) {
    return bytes > 0 ? bytes / cluster_->node_spec().mem.cpu_stream_bw : 0.0;
  }
  const double lat = cluster_->latency(src, dst);
  const double bw = cluster_->bandwidth(src, dst, bytes);
  return lat + (bytes > 0 ? bytes / bw : 0.0);
}

Network::Path Network::classify(int src, int dst) const {
  const auto& topo = cluster_->topology();
  Path p;
  p.src_node = cluster_->node_of(src);
  p.dst_node = cluster_->node_of(dst);
  const int src_local = cluster_->local_cpu(src);
  const int dst_local = cluster_->local_cpu(dst);
  p.src_bus = p.src_node * topo.num_buses() + topo.bus_of(src_local);
  p.dst_bus = p.dst_node * topo.num_buses() + topo.bus_of(dst_local);
  p.cross_node = p.src_node != p.dst_node;
  p.cross_bus = p.src_bus != p.dst_bus;
  p.cross_brick = p.cross_node ||
                  topo.brick_of(src_local) != topo.brick_of(dst_local);
  return p;
}

bool Network::inject(Transfer& t) {
  const int src = t.src_;
  const int dst = t.dst_;
  const double bytes = t.bytes_;
  COL_REQUIRE(src >= 0 && src < cluster_->total_cpus(), "src out of range");
  COL_REQUIRE(dst >= 0 && dst < cluster_->total_cpus(), "dst out of range");
  COL_REQUIRE(bytes >= 0, "negative message size");
  t.net_ = this;
  t.begin_ = engine_->now();
  const auto land = sim::Callback::method<&Transfer::land>(&t);

  if (src == dst) {
    // Local self-message: a memcpy.
    if (bytes > 0) {
      engine_->schedule_after(
          bytes / cluster_->node_spec().mem.cpu_stream_bw, land);
      return false;
    }
    complete(t);
    return true;
  }

  double lat = cluster_->latency(src, dst);
  double bw = cluster_->bandwidth(src, dst, bytes);

  const Path path = classify(src, dst);
  // Degraded-fabric state is sampled once, at injection time, so a
  // transfer's cost is a pure function of (path, bytes, start time).
  if (fault_model_ != nullptr && path.cross_node) {
    const double factor = fault_model_->bandwidth_factor(src, dst, t.begin_);
    COL_REQUIRE(factor > 0.0 && factor <= 1.0,
                "fault bandwidth factor outside (0, 1]");
    bw *= factor;
    const double reroute = fault_model_->added_latency(src, dst, t.begin_);
    COL_REQUIRE(reroute >= 0.0, "negative fault reroute latency");
    lat += reroute;
  }

  if (transport_ == TransportModel::Flow) {
    if (bytes > 0) {
      // One flow over the same serialization points the event backend
      // queues through; the solver calls back `lat` after the drain ends.
      FlowSolver::PathRef ref;
      ref.links[static_cast<std::size_t>(ref.nlinks++)] = src;  // injection
      if (path.cross_node) {
        ref.links[static_cast<std::size_t>(ref.nlinks++)] =
            link_node_egress_base_ + path.src_node;
        ref.links[static_cast<std::size_t>(ref.nlinks++)] =
            link_node_ingress_base_ + path.dst_node;
      } else if (path.cross_bus) {
        ref.links[static_cast<std::size_t>(ref.nlinks++)] =
            link_bus_egress_base_ + path.src_bus;
        if (path.cross_brick) {
          ref.links[static_cast<std::size_t>(ref.nlinks++)] =
              link_spine_base_ + path.src_node;
        }
        ref.links[static_cast<std::size_t>(ref.nlinks++)] =
            link_bus_ingress_base_ + path.dst_bus;
      }
      flow_->start_flow(ref, bytes, bw, lat, land);
    } else {
      // Pure handshake: latency only, exactly as the event backend (whose
      // zero-byte transfers hold their resources for zero time).
      engine_->schedule_after(lat, land);
    }
    return false;
  }

  t.latency_ = lat;
  t.hold_ = bytes > 0 ? bytes / bw : 0.0;
  // Acquisition order: injection -> egress -> spine -> ingress (globally
  // consistent, therefore cycle-free).
  t.npath_ = 0;
  t.held_ = 0;
  const auto hop = [&t](const auto& resources, int i) {
    t.path_[static_cast<std::size_t>(t.npath_++)] =
        resources[static_cast<std::size_t>(i)].get();
  };
  hop(injection_, src);
  if (path.cross_node) {
    hop(node_egress_, path.src_node);
    hop(node_ingress_, path.dst_node);
  } else if (path.cross_bus) {
    hop(bus_egress_, path.src_bus);
    if (path.cross_brick) hop(spine_, path.src_node);
    hop(bus_ingress_, path.dst_bus);
  }
  t.acquire_path();
  return false;
}

void Network::Transfer::acquire_path() {
  while (held_ < npath_) {
    sim::Resource& hop = *path_[static_cast<std::size_t>(held_++)];
    if (!hop.acquire(1, sim::Callback::method<&Transfer::acquire_path>(this))) {
      return;  // the grant takes the unit for us and calls back here
    }
  }
  if (hold_ > 0) {
    net_->engine_->schedule_after(
        hold_, sim::Callback::method<&Transfer::release_path>(this));
    return;
  }
  release_path();
}

void Network::Transfer::release_path() {
  for (int i = npath_ - 1; i >= 0; --i) {
    path_[static_cast<std::size_t>(i)]->release();
  }
  // Wire/protocol latency after the serialization segment; the receiver
  // observes arrival when this event runs.
  net_->engine_->schedule_after(
      latency_, sim::Callback::method<&Transfer::land>(this));
}

void Network::Transfer::land() {
  net_->complete(*this);
  done_();  // last: it may resume a coroutine that frees this record
}

void Network::complete(const Transfer& t) {
  ++transfers_completed_;
  // Span hook: one Wire span per transfer, covering queueing + hold +
  // latency, on the source CPU's track (pure listener, no timing effect).
  if (auto* sink = engine_->span_sink()) {
    sink->on_span({t.src_, sim::SpanKind::Wire, t.begin_, engine_->now()});
  }
}

}  // namespace columbia::machine
