#include "simfault/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "simmpi/world.hpp"

namespace columbia::simfault {

namespace {

/// SplitMix64 finalizer: the per-message verdict hash.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Top 53 bits as a double in [0, 1).
double to_unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Rounded set size for `fraction` of `n` nodes; any positive fraction
/// affects at least one node.
int prefix_size(double fraction, int n) {
  if (fraction <= 0.0) return 0;
  const int k =
      static_cast<int>(std::lround(fraction * static_cast<double>(n)));
  return std::clamp(k, 1, n);
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultSpec
// ---------------------------------------------------------------------------

bool FaultSpec::enabled() const {
  const bool fabric = degraded_link_fraction > 0.0 && link_bw_factor < 1.0;
  const bool failures =
      link_fail_fraction > 0.0 &&
      (reroute_latency > 0.0 || reroute_bw_factor < 1.0);
  const bool jitter = jitter_node_fraction > 0.0 && jitter_duty > 0.0 &&
                      jitter_slowdown > 1.0;
  const bool drops = drop_probability > 0.0;
  const bool delays = delay_probability > 0.0 && delay_seconds > 0.0;
  const bool storage = disk_degraded_fraction > 0.0 &&
                       (disk_bw_factor < 1.0 || disk_added_latency > 0.0);
  const bool crashes = crash_period > 0.0 && crash_acceptance > 0.0;
  return fabric || failures || jitter || drops || delays || storage ||
         crashes;
}

FaultSpec FaultSpec::uniform(std::uint64_t seed, double intensity) {
  COL_REQUIRE(intensity >= 0.0 && intensity <= 1.0,
              "fault intensity must be in [0, 1]");
  FaultSpec s;
  s.seed = seed;
  s.intensity = intensity;
  s.degraded_link_fraction = 0.5 * intensity;
  s.link_bw_factor = 1.0 - 0.6 * intensity;
  s.link_fail_fraction = 0.25 * intensity;
  s.reroute_latency = 5e-6 * intensity;
  s.reroute_bw_factor = 1.0 - 0.5 * intensity;
  s.jitter_node_fraction = intensity > 0.0 ? 1.0 : 0.0;
  s.jitter_duty = 0.25 * intensity;
  s.jitter_slowdown = 1.0 + 2.0 * intensity;
  s.drop_probability = 0.01 * intensity;
  s.delay_probability = 0.05 * intensity;
  s.delay_seconds = 20e-6 * intensity;
  s.disk_degraded_fraction = 0.5 * intensity;
  s.disk_bw_factor = 1.0 - 0.5 * intensity;
  s.disk_added_latency = 1e-3 * intensity;
  // Crashes stay off: only the checkpoint walks consume them, and the
  // uniform `--faults` mapping must leave ordinary runs completing.
  return s;
}

FaultSpec FaultSpec::jitter_only(std::uint64_t seed, double intensity) {
  COL_REQUIRE(intensity >= 0.0 && intensity <= 1.0,
              "fault intensity must be in [0, 1]");
  FaultSpec s;
  s.seed = seed;
  s.intensity = intensity;
  s.jitter_node_fraction = intensity > 0.0 ? 1.0 : 0.0;
  s.jitter_duty = 0.25 * intensity;
  s.jitter_slowdown = 1.0 + 3.0 * intensity;
  return s;
}

FaultSpec FaultSpec::fabric_only(std::uint64_t seed, double fraction) {
  COL_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
              "degraded fraction must be in [0, 1]");
  FaultSpec s;
  s.seed = seed;
  s.intensity = fraction;
  s.degraded_link_fraction = fraction;
  s.link_bw_factor = 0.35;
  s.link_fail_fraction = 0.5 * fraction;
  s.reroute_latency = 5e-6;
  s.reroute_bw_factor = 0.5;
  return s;
}

FaultSpec FaultSpec::storage_only(std::uint64_t seed, double intensity,
                                  double crash_period) {
  COL_REQUIRE(intensity >= 0.0 && intensity <= 1.0,
              "fault intensity must be in [0, 1]");
  COL_REQUIRE(crash_period >= 0.0, "crash period must be non-negative");
  FaultSpec s;
  s.seed = seed;
  s.intensity = intensity;
  s.disk_degraded_fraction = intensity;
  s.disk_bw_factor = 0.4;
  s.disk_added_latency = 2e-3 * intensity;
  s.crash_period = crash_period;
  s.crash_acceptance = intensity;
  return s;
}

void FaultStats::merge(const FaultStats& other) {
  worlds += other.worlds;
  messages_dropped += other.messages_dropped;
  retries += other.retries;
  messages_lost += other.messages_lost;
}

// ---------------------------------------------------------------------------
// ScheduledFaultModel
// ---------------------------------------------------------------------------

ScheduledFaultModel::ScheduledFaultModel(const FaultSpec& spec, int num_nodes,
                                         int cpus_per_node)
    : spec_(spec), num_nodes_(num_nodes), cpus_per_node_(cpus_per_node) {
  COL_REQUIRE(num_nodes_ > 0, "fault schedule needs at least one node");
  COL_REQUIRE(cpus_per_node_ > 0, "fault schedule needs CPUs per node");
  COL_REQUIRE(spec_.link_bw_factor > 0.0 && spec_.link_bw_factor <= 1.0,
              "link_bw_factor outside (0, 1]");
  COL_REQUIRE(spec_.reroute_bw_factor > 0.0 && spec_.reroute_bw_factor <= 1.0,
              "reroute_bw_factor outside (0, 1]");
  COL_REQUIRE(spec_.jitter_slowdown >= 1.0, "jitter_slowdown below 1");
  COL_REQUIRE(spec_.jitter_duty >= 0.0 && spec_.jitter_duty <= 1.0,
              "jitter_duty outside [0, 1]");
  COL_REQUIRE(spec_.jitter_period > 0.0, "jitter_period must be positive");
  COL_REQUIRE(spec_.link_fail_window > 0.0,
              "link_fail_window must be positive");
  COL_REQUIRE(spec_.disk_degraded_fraction >= 0.0 &&
                  spec_.disk_degraded_fraction <= 1.0,
              "disk_degraded_fraction outside [0, 1]");
  COL_REQUIRE(spec_.disk_bw_factor > 0.0 && spec_.disk_bw_factor <= 1.0,
              "disk_bw_factor outside (0, 1]");
  COL_REQUIRE(spec_.disk_added_latency >= 0.0,
              "disk_added_latency must be non-negative");
  COL_REQUIRE(spec_.crash_period >= 0.0 && spec_.crash_acceptance >= 0.0 &&
                  spec_.crash_acceptance <= 1.0,
              "crash schedule knobs out of range");

  // One sickness order, one prefix per fault class: raising any fraction
  // grows its set without reshuffling, and per-node draws are made for
  // every node up front so they are identical across intensities — the two
  // properties the monotone degradation curves rest on.
  Rng rng(spec_.seed);
  const std::vector<int> order = rng.permutation(num_nodes_);
  severity_.assign(static_cast<std::size_t>(num_nodes_), 0);
  for (int pos = 0; pos < num_nodes_; ++pos) {
    severity_[static_cast<std::size_t>(order[static_cast<std::size_t>(pos)])] =
        pos;
  }
  jitter_phase_.reserve(static_cast<std::size_t>(num_nodes_));
  fail_time_.reserve(static_cast<std::size_t>(num_nodes_));
  for (int node = 0; node < num_nodes_; ++node) {
    jitter_phase_.push_back(rng.uniform(0.0, spec_.jitter_period));
    fail_time_.push_back(rng.uniform(0.0, spec_.link_fail_window));
  }
  n_degraded_ = prefix_size(spec_.degraded_link_fraction, num_nodes_);
  n_failed_ = prefix_size(spec_.link_fail_fraction, num_nodes_);
  n_jitter_ = prefix_size(spec_.jitter_node_fraction, num_nodes_);
}

ScheduledFaultModel::ScheduledFaultModel(const FaultSpec& spec,
                                         const machine::Cluster& cluster)
    : ScheduledFaultModel(spec, cluster.num_nodes(),
                          cluster.cpus_per_node()) {}

ScheduledFaultModel::~ScheduledFaultModel() {
  if (sink_) {
    FaultStats out = stats_;
    out.worlds = 1;
    sink_->merge(out);
  }
}

bool ScheduledFaultModel::link_degraded(int node) const {
  return severity_[static_cast<std::size_t>(node)] < n_degraded_;
}

bool ScheduledFaultModel::link_failed_by(int node, double now) const {
  return severity_[static_cast<std::size_t>(node)] < n_failed_ &&
         now >= fail_time_[static_cast<std::size_t>(node)];
}

bool ScheduledFaultModel::node_jittery(int node) const {
  return severity_[static_cast<std::size_t>(node)] < n_jitter_;
}

double ScheduledFaultModel::node_bw_factor(int node, double now) const {
  // Compose multiplicatively: a node whose link is both degraded and
  // rerouted is sicker than either alone. (Multiplying by factors <= 1 also
  // keeps the per-node effect monotone in the nested fault sets, which is
  // what makes the intensity curves monotone.)
  double factor = 1.0;
  if (link_degraded(node)) factor *= spec_.link_bw_factor;
  if (link_failed_by(node, now)) factor *= spec_.reroute_bw_factor;
  return factor;
}

double ScheduledFaultModel::bandwidth_factor(int src_cpu, int dst_cpu,
                                             double now) const {
  // A transfer is only as healthy as the sicker endpoint's links.
  return std::min(node_bw_factor(node_of(src_cpu), now),
                  node_bw_factor(node_of(dst_cpu), now));
}

double ScheduledFaultModel::added_latency(int src_cpu, int dst_cpu,
                                          double now) const {
  const bool rerouted = link_failed_by(node_of(src_cpu), now) ||
                        link_failed_by(node_of(dst_cpu), now);
  return rerouted ? spec_.reroute_latency : 0.0;
}

double ScheduledFaultModel::stretched_compute(int cpu, double t0,
                                              double seconds) const {
  const int node = node_of(cpu);
  const double period = spec_.jitter_period;
  const double window = spec_.jitter_duty * period;  // slowed wall time/period
  const double slow = spec_.jitter_slowdown;
  if (seconds <= 0.0 || window <= 0.0 || slow <= 1.0 || !node_jittery(node)) {
    return seconds;
  }
  // Walk the periodic duty cycle from t0, spending `seconds` of nominal
  // work at rate 1/slow inside the window and rate 1 outside. Whole
  // periods are skipped in O(1), so long bursts stay cheap.
  const double per_period = window / slow + (period - window);
  double u = std::fmod(t0 - jitter_phase_[static_cast<std::size_t>(node)],
                       period);
  if (u < 0.0) u += period;
  double wall = 0.0;
  double remaining = seconds;
  while (remaining > 0.0) {
    if (u < window) {
      const double wall_avail = window - u;
      const double work_avail = wall_avail / slow;
      if (remaining <= work_avail) {
        wall += remaining * slow;
        break;
      }
      wall += wall_avail;
      remaining -= work_avail;
      u = window;
    } else {
      const double wall_avail = period - u;
      if (remaining <= wall_avail) {
        wall += remaining;
        break;
      }
      wall += wall_avail;
      remaining -= wall_avail;
      u = 0.0;
      if (remaining > per_period) {
        const double whole = std::floor(remaining / per_period);
        wall += whole * period;
        remaining -= whole * per_period;
      }
    }
  }
  return wall;
}

machine::MessageVerdict ScheduledFaultModel::message_verdict(
    int src_cpu, int dst_cpu, double bytes, std::uint64_t serial,
    int attempt) const {
  (void)bytes;
  machine::MessageVerdict verdict;
  if (spec_.drop_probability <= 0.0 && spec_.delay_probability <= 0.0) {
    return verdict;
  }
  std::uint64_t h = mix(spec_.seed ^ 0x6661756C74ull);  // domain tag
  h = mix(h ^ static_cast<std::uint64_t>(src_cpu));
  h = mix(h ^ static_cast<std::uint64_t>(dst_cpu));
  h = mix(h ^ serial);
  h = mix(h ^ static_cast<std::uint64_t>(attempt));
  if (to_unit(h) < spec_.drop_probability) {
    verdict.dropped = true;
    return verdict;
  }
  if (to_unit(mix(h)) < spec_.delay_probability) {
    verdict.extra_delay = spec_.delay_seconds;
  }
  return verdict;
}

bool ScheduledFaultModel::disk_degraded(int server) const {
  if (spec_.disk_degraded_fraction <= 0.0 || server < 0) return false;
  // Fixed per-server uniform draw vs a growing threshold: the degraded set
  // nests as the fraction rises, independent of any cluster-side state.
  std::uint64_t h = mix(spec_.seed ^ 0x6469736Bull);  // "disk" domain tag
  h = mix(h ^ static_cast<std::uint64_t>(server));
  return to_unit(h) < spec_.disk_degraded_fraction;
}

double ScheduledFaultModel::disk_bandwidth_factor(int server,
                                                  double now) const {
  (void)now;  // degradation is for the whole run
  return disk_degraded(server) ? spec_.disk_bw_factor : 1.0;
}

double ScheduledFaultModel::disk_added_latency(int server, double now) const {
  (void)now;
  return disk_degraded(server) ? spec_.disk_added_latency : 0.0;
}

double ScheduledFaultModel::next_crash(double now) const {
  if (spec_.crash_period <= 0.0 || spec_.crash_acceptance <= 0.0) {
    return -1.0;
  }
  const double period = spec_.crash_period;
  std::int64_t i = 0;
  if (now > period) {
    i = static_cast<std::int64_t>(std::floor(now / period)) - 1;
    if (i < 0) i = 0;
  }
  // Candidate i sits at (i+1)*period and strikes iff its fixed draw falls
  // under the acceptance threshold (crash sets nest as acceptance grows).
  // The scan horizon bounds a query against a near-zero acceptance.
  constexpr std::int64_t kScanHorizon = 1 << 20;
  for (std::int64_t end = i + kScanHorizon; i < end; ++i) {
    const double at = static_cast<double>(i + 1) * period;
    if (at < now) continue;
    std::uint64_t h = mix(spec_.seed ^ 0x6372617368ull);  // "crash" tag
    h = mix(h ^ static_cast<std::uint64_t>(i));
    if (to_unit(h) < spec_.crash_acceptance) return at;
  }
  return -1.0;
}

bool ScheduledFaultModel::node_degraded(int node) const {
  COL_REQUIRE(node >= 0 && node < num_nodes_, "node out of range");
  const int sickest = std::max({n_degraded_, n_failed_, n_jitter_});
  return severity_[static_cast<std::size_t>(node)] < sickest;
}

void ScheduledFaultModel::emit_fault_spans(double t0, double t1,
                                           sim::SpanSink& sink) const {
  if (t1 <= t0) return;
  const double period = spec_.jitter_period;
  const double window = spec_.jitter_duty * period;
  for (int node = 0; node < num_nodes_; ++node) {
    // Whole-run span for a node running on degraded links.
    if (link_degraded(node)) {
      sink.on_span({node, sim::SpanKind::Fault, t0, t1});
    }
    // From-failure-onwards span for a lost link.
    if (severity_[static_cast<std::size_t>(node)] < n_failed_) {
      const double at = fail_time_[static_cast<std::size_t>(node)];
      if (at < t1) {
        sink.on_span({node, sim::SpanKind::Fault, std::max(t0, at), t1});
      }
    }
    // One span per slowdown window intersecting [t0, t1].
    if (node_jittery(node) && window > 0.0) {
      const double phase = jitter_phase_[static_cast<std::size_t>(node)];
      double start =
          phase + std::floor((t0 - phase) / period) * period;
      for (; start < t1; start += period) {
        const double lo = std::max(t0, start);
        const double hi = std::min(t1, start + window);
        if (hi > lo) sink.on_span({node, sim::SpanKind::Fault, lo, hi});
      }
    }
  }
}

std::shared_ptr<FaultSink> arm_faults(sim::RunContext& ctx,
                                      const FaultSpec& spec) {
  auto sink = std::make_shared<FaultSink>();
  if (spec.enabled()) {
    ctx.world_faults = [spec, sink](simmpi::World& world)
        -> std::shared_ptr<machine::FaultModel> {
      auto model = std::make_shared<ScheduledFaultModel>(
          spec, world.network().cluster());
      model->publish_to(sink);
      return model;
    };
  }
  return sink;
}

}  // namespace columbia::simfault
