#pragma once
/// \file beff.hpp
/// HPCC b_eff latency/bandwidth component (paper §3.1, Figs. 5 and 10).
///
/// Three communication patterns, simulated on the contended network:
///   * Ping-Pong — average one-way latency/bandwidth over a sample of rank
///     pairs (the HPCC "average" columns the paper uses),
///   * Natural Ring — every rank exchanges with its MPI_COMM_WORLD
///     neighbours (local communication predominates),
///   * Random Ring — ring over a random permutation (mostly remote
///     traffic; reported as a geometric mean over orderings, as HPCC does).

#include <cstdint>

#include "common/rng.hpp"
#include "machine/cluster.hpp"
#include "machine/placement.hpp"
#include "machine/transport.hpp"

namespace columbia::hpcc {

/// One pattern's result: seconds and bytes/second, per process.
struct LatBw {
  double latency = 0.0;
  double bandwidth = 0.0;
};

/// HPCC message sizes: 8-byte latency probes, 2,000,000-byte bandwidth
/// messages.
inline constexpr double kLatencyBytes = 8.0;
inline constexpr double kBandwidthBytes = 2.0e6;

class Beff {
 public:
  /// `transport` selects the network backend for every internal world this
  /// component builds; the default follows the installed RunContext, so
  /// drivers that must pin a backend (e.g. ext-columbia-full forcing the
  /// flow model) pass it explicitly.
  Beff(const machine::Cluster& cluster, machine::Placement placement,
       std::uint64_t seed = 0xBEEFull,
       machine::TransportModel transport = machine::context_transport());

  int num_ranks() const { return placement_.num_ranks(); }

  /// Average over `sample_pairs` randomly drawn rank pairs.
  LatBw ping_pong(int sample_pairs = 16) const;

  /// Ring over ranks 0,1,2,...; reports worst-case per-iteration latency
  /// and per-process bandwidth (2 messages per process per iteration).
  LatBw natural_ring(int iterations = 4) const;

  /// Geometric mean over `trials` random ring orderings.
  LatBw random_ring(int trials = 3, int iterations = 4) const;

 private:
  /// Runs one ring ordering; returns {seconds/iteration(latency msgs),
  /// seconds/iteration(bandwidth msgs)}.
  struct RingTimes {
    double latency_iter;
    double bandwidth_iter;
  };
  RingTimes run_ring(const std::vector<int>& order, int iterations) const;

  const machine::Cluster* cluster_;
  machine::Placement placement_;
  std::uint64_t seed_;
  machine::TransportModel transport_;
};

}  // namespace columbia::hpcc
