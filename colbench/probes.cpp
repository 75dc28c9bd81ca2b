#include "probes.hpp"

#include <array>
#include <chrono>
#include <utility>

#include "common/rng.hpp"
#include "machine/cluster.hpp"
#include "machine/network.hpp"
#include "machine/placement.hpp"
#include "sim/engine.hpp"
#include "sim/join.hpp"
#include "sim/resource.hpp"
#include "sim/trigger.hpp"
#include "simmpi/world.hpp"

namespace colbench {

namespace {

using columbia::machine::Cluster;
using columbia::machine::Network;
using columbia::machine::NodeType;
using columbia::machine::Placement;
using columbia::machine::TransportModel;
using columbia::simmpi::Rank;
using columbia::simmpi::World;
namespace sim = columbia::sim;

/// Times `call`, recording it as a child span of the probe.
template <typename F>
double timed(Tracer* tracer, int parent, const char* name, F&& call) {
  SpanGuard span(tracer, name, parent);
  const auto t0 = std::chrono::steady_clock::now();
  call();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

sim::Task resumer(sim::Engine& engine, double period, int rounds,
                  std::uint64_t& resumes) {
  for (int k = 0; k < rounds; ++k) {
    co_await engine.delay(period);
    ++resumes;
  }
}

sim::Task trivial(std::uint64_t& ran) {
  ++ran;
  co_return;
}

sim::Task spawner(sim::Engine& engine, int tasks, std::uint64_t& ran) {
  constexpr int kBatch = 64;  // keeps the heap small: spawn cost, not heap
  for (int done = 0; done < tasks; done += kBatch) {
    for (int i = 0; i < kBatch && done + i < tasks; ++i) {
      engine.spawn(trivial(ran));
    }
    co_await engine.delay(1e-9);
  }
}

sim::Task waiter(std::vector<sim::Trigger>& triggers, std::uint64_t& woken) {
  for (auto& t : triggers) {
    co_await t.wait();
    ++woken;
  }
}

sim::Task firer(sim::Engine& engine, std::vector<sim::Trigger>& triggers) {
  for (auto& t : triggers) {
    co_await engine.delay(1e-6);
    t.fire();
  }
}

sim::Task contender(sim::Engine& engine, sim::Resource& resource, int rounds,
                    std::uint64_t& grants) {
  for (int k = 0; k < rounds; ++k) {
    co_await resource.acquire();
    co_await engine.delay(1e-6);
    resource.release();
    ++grants;
  }
}

sim::Task mover(Network& network, int src, int dst, int rounds, double bytes,
                std::uint64_t& moved) {
  for (int k = 0; k < rounds; ++k) {
    co_await network.transfer(src, dst, bytes);
    ++moved;
  }
}

}  // namespace

ProbeResult probe_resume(int live_tasks, int resumes_per_task,
                         std::uint64_t seed, Tracer* tracer) {
  ProbeResult r{"sim.resume_ns.h" + std::to_string(live_tasks)};
  SpanGuard probe(tracer, "probe." + r.name);
  sim::Engine engine;
  engine.reserve_events(static_cast<std::size_t>(live_tasks));
  columbia::Rng rng(seed);
  for (int i = 0; i < live_tasks; ++i) {
    engine.spawn(resumer(engine, rng.uniform(1e-6, 2e-6), resumes_per_task,
                         r.count));
  }
  r.wall_s = timed(tracer, probe.id(), "Engine::run", [&] { engine.run(); });
  return r;
}

ProbeResult probe_spawn(int tasks, Tracer* tracer) {
  ProbeResult r{"sim.spawn_ns"};
  SpanGuard probe(tracer, "probe." + r.name);
  sim::Engine engine;
  engine.spawn(spawner(engine, tasks, r.count));
  r.wall_s = timed(tracer, probe.id(), "Engine::run", [&] { engine.run(); });
  return r;
}

ProbeResult probe_trigger(int waiters, int fires, Tracer* tracer) {
  ProbeResult r{"sim.trigger_ns"};
  SpanGuard probe(tracer, "probe." + r.name);
  sim::Engine engine;
  std::vector<sim::Trigger> triggers;
  triggers.reserve(static_cast<std::size_t>(fires));
  for (int i = 0; i < fires; ++i) triggers.emplace_back(engine);
  for (int w = 0; w < waiters; ++w) engine.spawn(waiter(triggers, r.count));
  engine.spawn(firer(engine, triggers));
  r.wall_s = timed(tracer, probe.id(), "Engine::run", [&] { engine.run(); });
  return r;
}

ProbeResult probe_resource(int contenders, int rounds, Tracer* tracer) {
  ProbeResult r{"sim.resource_ns"};
  SpanGuard probe(tracer, "probe." + r.name);
  sim::Engine engine;
  sim::Resource resource(engine, 2);
  for (int c = 0; c < contenders; ++c) {
    engine.spawn(contender(engine, resource, rounds, r.count));
  }
  r.wall_s = timed(tracer, probe.id(), "Engine::run", [&] { engine.run(); });
  return r;
}

ProbeResult probe_pingpong(const std::string& name, double bytes,
                           int round_trips, Tracer* tracer) {
  ProbeResult r{name};
  SpanGuard probe(tracer, "probe." + r.name);
  const auto cluster = Cluster::single(NodeType::AltixBX2b);
  sim::Engine engine;
  Network network(engine, cluster, TransportModel::Event);
  World world(engine, network, Placement::dense(cluster, 2));
  auto program = [&](Rank& rank) -> sim::CoTask<void> {
    const int peer = 1 - rank.rank();
    for (int i = 0; i < round_trips; ++i) {
      if (rank.rank() == 0) {
        co_await rank.send(peer, bytes);
        co_await rank.recv(peer);
      } else {
        co_await rank.recv(peer);
        co_await rank.send(peer, bytes);
      }
      ++r.count;  // one message received per rank per round trip
    }
  };
  r.wall_s =
      timed(tracer, probe.id(), "World::run", [&] { world.run(program); });
  return r;
}

ProbeResult probe_halo(double bytes, int steps, Tracer* tracer) {
  ProbeResult r{"simmpi.halo_ns"};
  SpanGuard probe(tracer, "probe." + r.name);
  constexpr std::array<int, 3> kDims{7, 6, 6};  // 252 ranks, no dim below 3
  constexpr int kRanks = kDims[0] * kDims[1] * kDims[2];
  const auto cluster = Cluster::single(NodeType::AltixBX2b);
  sim::Engine engine;
  Network network(engine, cluster, TransportModel::Event);
  World world(engine, network, Placement::dense(cluster, kRanks));
  auto program = [&](Rank& rank) -> sim::CoTask<void> {
    std::array<int, 3> c{rank.rank() / (kDims[1] * kDims[2]),
                         rank.rank() / kDims[2] % kDims[1],
                         rank.rank() % kDims[2]};
    std::vector<int> peers;
    for (int d = 0; d < 3; ++d) {
      for (int step : {1, kDims[d] - 1}) {
        auto n = c;
        n[d] = (n[d] + step) % kDims[d];
        peers.push_back((n[0] * kDims[1] + n[1]) * kDims[2] + n[2]);
      }
    }
    for (int step = 0; step < steps; ++step) {
      std::vector<sim::CoTask<void>> ops;
      for (int peer : peers) ops.push_back(rank.sendrecv(peer, bytes, peer, step));
      co_await sim::when_all(rank.engine(), std::move(ops));
      r.count += peers.size();  // messages this rank sent
    }
  };
  r.wall_s =
      timed(tracer, probe.id(), "World::run", [&] { world.run(program); });
  return r;
}

ProbeResult probe_alltoall(const std::string& name, int ranks, double bytes,
                           int rounds, int ib_boxes, Tracer* tracer) {
  ProbeResult r{name};
  SpanGuard probe(tracer, "probe." + r.name);
  const auto cluster =
      ib_boxes > 0
          ? Cluster::infiniband_cluster(NodeType::AltixBX2b, ib_boxes)
          : Cluster::single(NodeType::AltixBX2b);
  sim::Engine engine;
  Network network(engine, cluster,
                  ib_boxes > 0 ? TransportModel::Flow : TransportModel::Event);
  World world(engine, network,
              ib_boxes > 0 ? Placement::across_nodes(cluster, ranks, ib_boxes)
                           : Placement::dense(cluster, ranks));
  auto program = [&](Rank& rank) -> sim::CoTask<void> {
    for (int i = 0; i < rounds; ++i) {
      co_await rank.alltoall(bytes);
      r.count += static_cast<std::uint64_t>(rank.size() - 1);
    }
  };
  r.wall_s =
      timed(tracer, probe.id(), "World::run", [&] { world.run(program); });
  return r;
}

TransferProbe probe_transfer(bool flow, double bytes, int rounds,
                             std::uint64_t seed, Tracer* tracer) {
  TransferProbe p;
  p.result.name = flow ? "machine.transfer_ns.flow" : "machine.transfer_ns.event";
  SpanGuard probe(tracer, "probe." + p.result.name);
  const auto cluster = Cluster::infiniband_cluster(NodeType::AltixBX2b, 4);
  sim::Engine engine;
  Network network(engine, cluster,
                  flow ? TransportModel::Flow : TransportModel::Event);
  const std::vector<int> image =
      columbia::Rng(seed).permutation(cluster.total_cpus());
  for (int src = 0; src < cluster.total_cpus(); ++src) {
    engine.spawn(mover(network, src, image[static_cast<std::size_t>(src)],
                       rounds, bytes, p.result.count));
  }
  p.result.wall_s =
      timed(tracer, probe.id(), "Engine::run", [&] { engine.run(); });
  if (const auto* solver = network.flow_solver()) {
    p.flow_solves = solver->solves();
    p.flows_completed = solver->flows_completed();
  }
  return p;
}

LayerProbes run_layer_probes(std::uint64_t seed, Tracer* tracer) {
  LayerProbes out;
  auto& ns = out.ns;
  ns.push_back(probe_resume(512, 4000, seed, tracer));
  ns.push_back(probe_resume(10240, 200, seed, tracer));
  ns.push_back(probe_spawn(1000000, tracer));
  ns.push_back(probe_trigger(64, 64000, tracer));
  ns.push_back(probe_resource(64, 32000, tracer));
  ns.push_back(probe_pingpong("simmpi.eager_ns", 2048.0, 50000, tracer));
  ns.push_back(probe_pingpong("simmpi.rndv_ns", 65536.0, 50000, tracer));
  ns.push_back(probe_halo(8192.0, 20, tracer));
  ns.push_back(
      probe_alltoall("simmpi.alltoall_ns.r64", 64, 2048.0, 30, 0, tracer));
  ns.push_back(
      probe_alltoall("simmpi.alltoall_ns.r508", 508, 2048.0, 1, 0, tracer));
  ns.push_back(probe_alltoall("simmpi.alltoall_ns.r1040", 1040, 65536.0, 1,
                              20, tracer));
  ns.push_back(probe_transfer(false, 65536.0, 100, seed, tracer).result);
  const TransferProbe flow = probe_transfer(true, 65536.0, 100, seed, tracer);
  ns.push_back(flow.result);
  out.flows = flow.flows_completed;
  out.flow_solves_per_flow =
      flow.flows_completed > 0 ? static_cast<double>(flow.flow_solves) /
                                     static_cast<double>(flow.flows_completed)
                               : 0.0;
  return out;
}

}  // namespace colbench
