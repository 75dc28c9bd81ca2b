#pragma once
/// \file schedule.hpp
/// Seeded fault schedules: the concrete machine::FaultModel.
///
/// A `FaultSpec` is a seed plus intensity knobs; `ScheduledFaultModel`
/// expands it — using common::Rng only — into a fixed schedule of degraded
/// machine state for one cluster:
///   * a "sickness order" of the nodes (one permutation); the degraded-link,
///     link-failure, and jitter sets are *prefixes* of it, so raising any
///     fraction strictly grows the affected set (monotone degradation
///     curves by construction);
///   * per-node link degradation: cross-node transfers touching a degraded
///     node lose fabric bandwidth (link_bw_factor);
///   * per-node link failure at a drawn time: afterwards the fat-tree
///     reroute adds latency and costs bandwidth (reroute_*);
///   * per-node slowdown windows (OS-jitter/daemon-noise model): a periodic
///     duty cycle, phase drawn per node, inside which compute runs
///     jitter_slowdown times slower — the paper's shared-environment
///     variability;
///   * per-message drop/delay verdicts, a pure hash of
///     (seed, src, dst, serial, attempt) so verdicts cannot depend on event
///     order or attached observers.
///
/// Determinism contract: the schedule is fully determined at construction
/// by (spec, cluster shape); every query is a pure function of its
/// arguments and that state. Same seed => byte-identical reports.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "machine/cluster.hpp"
#include "machine/fault.hpp"
#include "sim/run_context.hpp"

namespace columbia::simfault {

/// Intensity knobs for one fault schedule. Default-constructed = healthy
/// machine (enabled() == false, and arm_faults builds no model).
struct FaultSpec {
  std::uint64_t seed = 0;
  /// The scalar the knobs were derived from (kept for reporting only).
  double intensity = 0.0;

  // --- fabric degradation --------------------------------------------------
  /// Fraction of nodes whose fabric links run degraded for the whole run.
  double degraded_link_fraction = 0.0;
  /// Bandwidth multiplier in (0, 1] on a degraded node's cross-node path.
  double link_bw_factor = 1.0;
  /// Fraction of nodes that suffer an outright link failure.
  double link_fail_fraction = 0.0;
  /// Failures strike at a per-node time drawn uniformly in
  /// [0, link_fail_window); they are permanent.
  double link_fail_window = 10e-3;
  /// Reroute penalty after a failure: added one-way latency (seconds) and
  /// a bandwidth multiplier for the longer fat-tree path.
  double reroute_latency = 0.0;
  double reroute_bw_factor = 1.0;

  // --- node slowdown windows (OS jitter) -----------------------------------
  /// Fraction of nodes with a periodic slowdown window.
  double jitter_node_fraction = 0.0;
  /// Fraction of each period spent inside the window, window length
  /// jitter_duty * jitter_period, phase drawn per node.
  double jitter_duty = 0.0;
  /// Compute inside the window runs this many times slower (>= 1).
  double jitter_slowdown = 1.0;
  double jitter_period = 10e-3;

  // --- messaging -----------------------------------------------------------
  /// Probability a delivery attempt is dropped (per attempt, i.i.d. in the
  /// hash sense).
  double drop_probability = 0.0;
  /// Probability a delivered message is held up by `delay_seconds` first.
  double delay_probability = 0.0;
  double delay_seconds = 0.0;

  // --- storage (consumed by src/simio through the disk queries) -------------
  /// Fraction of filesystem server disks running degraded. Each server
  /// keeps a fixed per-seed uniform draw and is degraded iff its draw is
  /// below the fraction, so raising the fraction only grows the set.
  double disk_degraded_fraction = 0.0;
  /// Bandwidth multiplier in (0, 1] on a degraded server disk.
  double disk_bw_factor = 1.0;
  /// Added per-access service latency (seconds) on a degraded server.
  double disk_added_latency = 0.0;

  // --- machine-wide crashes (checkpoint/restart walks) ----------------------
  /// Candidate crash times sit on the grid (i+1)*crash_period; 0 = off.
  double crash_period = 0.0;
  /// Fraction of candidates that actually strike (same threshold-on-fixed-
  /// draws scheme as the disks, so crash sets nest as acceptance grows).
  double crash_acceptance = 0.0;

  /// True when any knob departs from the healthy machine. A disabled spec
  /// must behave exactly like no fault model at all.
  bool enabled() const;

  /// The `--faults <seed:intensity>` mapping: every fault class scaled by
  /// one `intensity` in [0, 1] (0 = healthy, knobs grow linearly).
  static FaultSpec uniform(std::uint64_t seed, double intensity);
  /// Jitter only (dedicated-vs-shared variability ablation): every node
  /// gets a slowdown window whose duty/slowdown grow with `intensity`.
  /// Message and fabric faults stay off, so `--check` stays clean.
  static FaultSpec jitter_only(std::uint64_t seed, double intensity);
  /// Fabric only (degraded-fabric ablation): `fraction` of the nodes run
  /// with degraded links, half of those also losing a link outright.
  static FaultSpec fabric_only(std::uint64_t seed, double fraction);
  /// Storage only (checkpoint/restart scenarios): server-disk degradation
  /// plus machine-wide crashes on a `crash_period` candidate grid, all
  /// scaled by `intensity`. Fabric/jitter/message faults stay off so the
  /// I/O effect is isolated and `--check` stays clean.
  static FaultSpec storage_only(std::uint64_t seed, double intensity,
                                double crash_period = 0.0);
};

/// Counters for one World (or merged across the Worlds of a run).
struct FaultStats {
  std::uint64_t worlds = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t retries = 0;
  std::uint64_t messages_lost = 0;

  void merge(const FaultStats& other);
};

/// Where the fault models of one RunContext merge their counters.
using FaultSink = sim::Sink<FaultStats>;

/// The concrete seed-driven fault model (see file comment).
class ScheduledFaultModel final : public machine::FaultModel {
 public:
  /// Builds the schedule for a machine of `num_nodes` nodes with
  /// `cpus_per_node` CPUs each.
  ScheduledFaultModel(const FaultSpec& spec, int num_nodes,
                      int cpus_per_node);
  /// Convenience: shape taken from the cluster.
  ScheduledFaultModel(const FaultSpec& spec,
                      const machine::Cluster& cluster);
  /// Merges stats() into the sink set by publish_to, if any.
  ~ScheduledFaultModel() override;

  const FaultSpec& spec() const { return spec_; }
  const FaultStats& stats() const { return stats_; }
  void publish_to(std::shared_ptr<FaultSink> sink) { sink_ = std::move(sink); }

  // --- schedule queries (tests, placement reporting) -----------------------
  bool link_degraded(int node) const;
  /// True once `node`'s failed link has actually failed at time `now`.
  bool link_failed_by(int node, double now) const;
  bool node_jittery(int node) const;
  /// True when filesystem server disk `server` runs degraded.
  bool disk_degraded(int server) const;

  // --- machine::FaultModel -------------------------------------------------
  double bandwidth_factor(int src_cpu, int dst_cpu,
                          double now) const override;
  double added_latency(int src_cpu, int dst_cpu, double now) const override;
  double stretched_compute(int cpu, double t0,
                           double seconds) const override;
  machine::MessageVerdict message_verdict(int src_cpu, int dst_cpu,
                                          double bytes, std::uint64_t serial,
                                          int attempt) const override;
  bool node_degraded(int node) const override;
  double disk_bandwidth_factor(int server, double now) const override;
  double disk_added_latency(int server, double now) const override;
  double next_crash(double now) const override;
  void emit_fault_spans(double t0, double t1,
                        sim::SpanSink& sink) const override;
  void note_message_dropped() override { ++stats_.messages_dropped; }
  void note_retry() override { ++stats_.retries; }
  void note_message_lost() override { ++stats_.messages_lost; }

 private:
  int node_of(int cpu) const {
    const int node = cpu / cpus_per_node_;
    COL_REQUIRE(cpu >= 0 && node < num_nodes_,
                "CPU outside the machine this fault schedule was built for");
    return node;
  }
  /// Per-node bandwidth multiplier at `now` (degradation and reroute).
  double node_bw_factor(int node, double now) const;

  FaultSpec spec_;
  int num_nodes_;
  int cpus_per_node_;
  int n_degraded_ = 0;
  int n_failed_ = 0;
  int n_jitter_ = 0;
  /// severity_[node] = position of `node` in the sickness permutation;
  /// a node is in a fault set iff its severity is below the set's size.
  std::vector<int> severity_;
  std::vector<double> jitter_phase_;  // per node, in [0, jitter_period)
  std::vector<double> fail_time_;    // per node, in [0, link_fail_window)
  FaultStats stats_;
  std::shared_ptr<FaultSink> sink_;
};

/// Arms `ctx` for `--faults <seed:intensity>`: every World constructed
/// under it builds a ScheduledFaultModel from `spec` and the World's own
/// cluster shape, attaches it, and merges its counters into the returned
/// sink at teardown. A spec with `enabled() == false` builds no model at
/// all, so `--faults 0:0` runs are byte-identical to clean runs.
std::shared_ptr<FaultSink> arm_faults(sim::RunContext& ctx,
                                      const FaultSpec& spec);

}  // namespace columbia::simfault
