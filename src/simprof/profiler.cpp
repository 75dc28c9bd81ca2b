#include "simprof/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <utility>

#include "simomp/omp_model.hpp"

namespace columbia::simprof {

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Round-trippable precision for JSON (the critical-path identity is
/// checked to 1e-9 by consumers; %g's six digits would break it).
std::string fmt_full(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string pct(double frac) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * frac);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// WorldProfile
// ---------------------------------------------------------------------------

double WorldProfile::load_imbalance() const {
  if (ranks.empty()) return 1.0;
  double max_c = 0.0, sum_c = 0.0;
  for (const auto& r : ranks) {
    max_c = std::max(max_c, r.compute_s);
    sum_c += r.compute_s;
  }
  const double mean = sum_c / static_cast<double>(ranks.size());
  return mean > 0.0 ? max_c / mean : 1.0;
}

double WorldProfile::mean_utilization() const {
  if (ranks.empty() || makespan <= 0.0) return 0.0;
  double sum = 0.0;
  for (const auto& r : ranks) {
    sum += (r.compute_s + r.comm_s + r.io_s) / makespan;
  }
  return sum / static_cast<double>(ranks.size());
}

double WorldProfile::comm_fraction() const {
  double busy = 0.0, comm = 0.0;
  for (const auto& r : ranks) {
    busy += r.compute_s + r.comm_s + r.io_s;
    comm += r.comm_s;
  }
  return busy > 0.0 ? comm / busy : 0.0;
}

// ---------------------------------------------------------------------------
// ProfileReport
// ---------------------------------------------------------------------------

void ProfileReport::merge(const ProfileReport& other, std::size_t max_worlds) {
  for (const auto& w : other.worlds) {
    if (worlds.size() < max_worlds) {
      worlds.push_back(w);
    } else {
      ++stats.worlds_dropped;
    }
  }
  stats.worlds += other.stats.worlds;
  stats.p2p_ops += other.stats.p2p_ops;
  stats.collectives += other.stats.collectives;
  stats.regions += other.stats.regions;
  stats.spans_dropped += other.stats.spans_dropped;
  stats.ops_dropped += other.stats.ops_dropped;
  stats.worlds_dropped += other.stats.worlds_dropped;
}

std::string ProfileReport::render() const {
  std::ostringstream os;
  os << "simprof: " << stats.worlds << " worlds, " << stats.p2p_ops
     << " p2p ops, " << stats.collectives << " collective calls, "
     << stats.regions << " omp regions profiled";
  if (stats.spans_dropped || stats.ops_dropped || stats.worlds_dropped) {
    os << " (dropped: " << stats.spans_dropped << " spans, "
       << stats.ops_dropped << " ops, " << stats.worlds_dropped << " worlds)";
  }
  os << "\n";
  constexpr std::size_t kMaxShown = 16;
  const std::size_t shown = std::min(worlds.size(), kMaxShown);
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& w = worlds[i];
    os << "  world " << i << ": " << w.nranks << " ranks, makespan "
       << fmt(w.makespan) << " s, comm " << pct(w.comm_fraction())
       << ", imbalance " << fmt(w.load_imbalance()) << ", utilization "
       << fmt(w.mean_utilization()) << "\n";
    const auto& cp = w.critical_path;
    const double m = cp.makespan > 0 ? cp.makespan : 1.0;
    os << "    critical path (rank " << cp.end_rank << "): compute "
       << pct(cp.compute / m) << ", serialization "
       << pct(cp.serialization / m) << ", wire " << pct(cp.wire / m)
       << ", blocked " << pct(cp.blocked_wait / m) << ", io "
       << pct(cp.io / m) << (cp.truncated ? " [truncated]" : "") << "\n";
  }
  if (shown < worlds.size()) {
    os << "  ... (" << worlds.size() - shown << " more worlds)\n";
  }
  return os.str();
}

std::string ProfileReport::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::ostringstream os;
  os << pad << "{\n";
  os << pad << "  \"worlds\": " << stats.worlds << ",\n";
  os << pad << "  \"p2p_ops\": " << stats.p2p_ops << ",\n";
  os << pad << "  \"collectives\": " << stats.collectives << ",\n";
  os << pad << "  \"regions\": " << stats.regions << ",\n";
  os << pad << "  \"spans_dropped\": " << stats.spans_dropped << ",\n";
  os << pad << "  \"ops_dropped\": " << stats.ops_dropped << ",\n";
  os << pad << "  \"worlds_dropped\": " << stats.worlds_dropped << ",\n";
  os << pad << "  \"profiles\": [";
  constexpr std::size_t kMaxRanksInJson = 64;
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    const auto& w = worlds[i];
    const auto& cp = w.critical_path;
    os << (i ? "," : "") << "\n" << pad << "    {";
    os << "\"nranks\": " << w.nranks << ", \"makespan\": " << fmt_full(w.makespan)
       << ", \"comm_fraction\": " << fmt_full(w.comm_fraction())
       << ", \"load_imbalance\": " << fmt_full(w.load_imbalance())
       << ", \"mean_utilization\": " << fmt_full(w.mean_utilization())
       << ", \"total_bytes\": " << fmt_full(w.total_bytes)
       << ", \"total_messages\": " << w.total_messages << ",\n";
    os << pad << "     \"critical_path\": {\"compute\": " << fmt_full(cp.compute)
       << ", \"serialization\": " << fmt_full(cp.serialization)
       << ", \"wire\": " << fmt_full(cp.wire)
       << ", \"blocked_wait\": " << fmt_full(cp.blocked_wait)
       << ", \"io\": " << fmt_full(cp.io) << ", \"end_rank\": " << cp.end_rank
       << ", \"truncated\": " << (cp.truncated ? "true" : "false") << "},\n";
    os << pad << "     \"ranks\": [";
    const std::size_t rshown = std::min(w.ranks.size(), kMaxRanksInJson);
    for (std::size_t r = 0; r < rshown; ++r) {
      const auto& rb = w.ranks[r];
      os << (r ? "," : "") << "\n"
         << pad << "      {\"rank\": " << rb.rank << ", \"compute_s\": "
         << fmt_full(rb.compute_s) << ", \"comm_s\": " << fmt_full(rb.comm_s)
         << ", \"io_s\": " << fmt_full(rb.io_s) << ", \"comm_fraction\": "
         << fmt_full(rb.comm_fraction()) << "}";
    }
    if (rshown < w.ranks.size()) {
      os << ",\n" << pad << "      {\"elided_ranks\": "
         << w.ranks.size() - rshown << "}";
    }
    os << (rshown ? "\n" + pad + "     " : "") << "]}";
  }
  os << (worlds.empty() ? "" : "\n" + pad + "  ") << "]\n";
  os << pad << "}";
  return os.str();
}

std::string TraceArtifacts::gantt_csv() const {
  std::ostringstream os;
  os << "actor,kind,begin,end,duration\n";
  for (const auto& s : spans) {
    os << s.actor << ',' << sim::to_string(s.kind) << ',' << fmt(s.begin)
       << ',' << fmt(s.end) << ',' << fmt(s.duration()) << '\n';
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Profiler: event intake
// ---------------------------------------------------------------------------

Profiler::Profiler(ProfileOptions opts)
    : opts_(opts), recorder_(opts.max_spans) {}

Profiler::~Profiler() {
  // Sever the engine's span sink if it still points into us (the world may
  // already be gone; the engine usually outlives both).
  if (engine_ != nullptr && engine_->span_sink() == &recorder_) {
    engine_->set_span_sink(nullptr);
  }
}

void Profiler::attach(simmpi::World& world) {
  world_ = &world;
  engine_ = &world.engine();
  t_start_ = engine_->now();
  matrix_.resize(world.size());
  world.set_observer(this);
  engine_->set_span_sink(&recorder_);
}

double Profiler::now() const { return engine_ != nullptr ? engine_->now() : 0.0; }

OpSample* Profiler::find(std::uint64_t id) {
  const auto it = ops_.find(id);
  return it == ops_.end() ? nullptr : &it->second;
}

OpSample* Profiler::track(std::uint64_t id) {
  if (id == 0) return nullptr;
  if (ops_.size() >= opts_.max_ops && ops_.find(id) == ops_.end()) {
    ++ops_dropped_;
    return nullptr;
  }
  OpSample& s = ops_[id];
  s.id = id;
  return &s;
}

void Profiler::on_send_posted(std::uint64_t id, int rank, int dst, int tag,
                              double bytes, bool rendezvous) {
  ++p2p_ops_;
  matrix_.record(rank, dst, bytes);
  if (OpSample* s = track(id)) {
    s->rank = rank;
    s->peer = dst;
    s->tag = tag;
    s->is_send = true;
    s->rendezvous = rendezvous;
    s->bytes = bytes;
    s->posted = now();
  }
}

void Profiler::on_send_completed(std::uint64_t id) {
  if (OpSample* s = find(id)) s->completed = now();
}

void Profiler::on_recv_posted(std::uint64_t id, int rank, int src, int tag) {
  ++p2p_ops_;
  if (OpSample* s = track(id)) {
    s->rank = rank;
    s->peer = src;
    s->tag = tag;
    s->is_send = false;
    s->posted = now();
  }
}

void Profiler::on_recv_matched(std::uint64_t recv_id, std::uint64_t send_id,
                               const std::vector<simmpi::Candidate>&) {
  const double t = now();
  if (OpSample* r = find(recv_id)) {
    r->matched = t;
    r->match_id = send_id;
  }
  if (OpSample* s = find(send_id)) {
    s->matched = t;
    s->match_id = recv_id;
  }
}

void Profiler::on_recv_delivered(std::uint64_t id) {
  if (OpSample* s = find(id)) s->delivered = now();
}

void Profiler::on_recv_completed(std::uint64_t id) {
  if (OpSample* s = find(id)) s->completed = now();
}

void Profiler::on_collective(int rank, simmpi::CollOp op, int /*root*/,
                             double /*bytes*/) {
  ++collectives_;
  recorder_.mark(rank, simmpi::coll_op_name(op), now());
}

void Profiler::on_rank_finished(int rank) {
  recorder_.mark(rank, "finish", now());
}

std::vector<OpSample> Profiler::op_samples() const {
  std::vector<OpSample> out;
  out.reserve(ops_.size());
  for (const auto& [id, s] : ops_) out.push_back(s);
  return out;
}

// ---------------------------------------------------------------------------
// Profiler: finalize + per-run (--profile) mode
// ---------------------------------------------------------------------------

// simlint:seam(cross-rank-shared-mutable): mutex-ordered merge of this world's profile into its RunContext's ProfileSink at finalize; the merge is commutative, and profiling output is never read back into simulation state.
void Profiler::on_finalize() {
  if (finalized_) return;
  finalized_ = true;

  const double t_end = now();
  profile_.nranks = world_ != nullptr ? world_->size() : 0;
  profile_.t_start = t_start_;
  profile_.t_end = t_end;
  profile_.makespan = t_end > t_start_ ? t_end - t_start_ : 0.0;
  profile_.ranks.clear();
  for (int r = 0; r < profile_.nranks; ++r) {
    RankBreakdown rb;
    rb.rank = r;
    rb.compute_s = recorder_.total(sim::SpanKind::Compute, r);
    rb.comm_s = recorder_.total(sim::SpanKind::Communication, r);
    rb.io_s = recorder_.total(sim::SpanKind::Io, r);
    profile_.ranks.push_back(rb);
  }
  profile_.total_bytes = matrix_.total_bytes();
  profile_.total_messages = matrix_.total_messages();
  profile_.critical_path = analyze_critical_path(
      op_samples(), recorder_.spans(), profile_.nranks, t_start_, t_end);

  if (!sink_) return;

  ProfileReport local;
  local.worlds.push_back(profile_);
  local.stats.worlds = 1;
  local.stats.p2p_ops = p2p_ops_;
  local.stats.collectives = collectives_;
  local.stats.spans_dropped = recorder_.dropped();
  local.stats.ops_dropped = ops_dropped_;
  sink_->publish(local, *this);
}

void ProfileSink::publish(const ProfileReport& local,
                          const Profiler& profiler) {
  const WorldProfile& profile = profiler.profile();
  std::lock_guard<std::mutex> lock(mu_);
  report_.merge(local, opts_.max_worlds);
  if (opts_.retain_timeline) {
    // Keep the largest world (by rank count, then makespan) as the
    // representative exported timeline.
    const bool better =
        !trace_.valid || profile.nranks > trace_.nranks ||
        (profile.nranks == trace_.nranks && profile.makespan > trace_.makespan);
    if (better) {
      trace_.valid = true;
      trace_.nranks = profile.nranks;
      trace_.makespan = profile.makespan;
      trace_.spans = profiler.recorder().spans();
      trace_.marks = profiler.recorder().marks();
      trace_.matrix = profiler.comm_matrix();
      trace_.spans_dropped = profiler.recorder().dropped();
    }
  }
}

ProfileReport ProfileSink::take_report() {
  ProfileReport out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = std::exchange(report_, ProfileReport{});
  }
  out.stats.regions += regions_.exchange(0, std::memory_order_relaxed);
  return out;
}

TraceArtifacts ProfileSink::take_trace() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(trace_, TraceArtifacts{});
}

std::shared_ptr<ProfileSink> arm_profile(sim::RunContext& ctx,
                                         ProfileOptions opts) {
  auto sink = std::make_shared<ProfileSink>(opts);
  ctx.world_observers.push_back(
      [sink](simmpi::World& world) -> std::shared_ptr<simmpi::CommObserver> {
        auto profiler = std::make_shared<Profiler>(sink->options());
        profiler->publish_to(sink);
        profiler->attach(world);
        return profiler;
      });
  ctx.region_observers.push_back(
      [sink](const simomp::RegionSpec&, int) { sink->count_region(); });
  return sink;
}

}  // namespace columbia::simprof
