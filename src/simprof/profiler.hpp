#pragma once
/// \file profiler.hpp
/// simprof: opt-in run profiler for the simulated MPI/OpenMP layers.
///
/// A `Profiler` attaches to one `simmpi::World` through the CommObserver
/// hooks and the engine's span sink, and at finalize distills:
///   1. per-rank timelines — compute / communication / io spans plus phase
///      markers (collective entries, rank exits), exportable as a Gantt
///      CSV or a chrome://tracing JSON document;
///   2. the P×P communication matrix (bytes, message counts, size
///      histogram) of everything the ranks injected;
///   3. a critical-path analysis attributing the makespan to compute,
///      serialization, wire time, and blocked waiting (critical_path.hpp);
///   4. a `WorldProfile` roll-up: per-rank comm fractions, load imbalance,
///      utilization.
///
/// Like simcheck's Checker, the profiler is a pure listener — it reads
/// `engine().now()` and stores samples, never schedules — so a profiled
/// run's timing and output are byte-identical to an unprofiled one.
///
/// Two ways to use it:
///   * standalone (tests): `Profiler p; p.attach(world); world.run(...);`
///     then inspect `p.profile()`;
///   * per run (`--profile` on run_experiment / simserve):
///     `arm_profile(ctx)` adds an observer factory to the sim::RunContext
///     (composing with simcheck's `--check` via the World's fan-out), every
///     World constructed under it owns a profiler, and the returned
///     ProfileSink collects the merged report and the retained
///     representative timeline.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/run_context.hpp"
#include "simmpi/observer.hpp"
#include "simmpi/world.hpp"
#include "simprof/comm_matrix.hpp"
#include "simprof/critical_path.hpp"
#include "simprof/recorder.hpp"

namespace columbia::simprof {

struct ProfileOptions {
  /// Keep a representative world's full span timeline + comm matrix for
  /// export (run_experiment --profile --out). core::Evaluator turns this
  /// off unless asked: simserve only ships the roll-up report.
  bool retain_timeline = true;
  std::size_t max_spans = TraceRecorder::kDefaultMaxSpans;
  std::size_t max_ops = std::size_t{1} << 20;
  /// Per-world profiles kept in a run's merged report; beyond it only the
  /// aggregate stats accumulate (worlds_dropped counts them).
  std::size_t max_worlds = 512;
};

struct RankBreakdown {
  int rank = 0;
  double compute_s = 0.0;
  double comm_s = 0.0;
  double io_s = 0.0;

  /// Share of this rank's busy time spent communicating (paper's
  /// comm-vs-execution-time breakdown); 0 when the rank did nothing.
  double comm_fraction() const {
    const double busy = compute_s + comm_s + io_s;
    return busy > 0.0 ? comm_s / busy : 0.0;
  }
};

/// One world's roll-up, built at finalize.
struct WorldProfile {
  int nranks = 0;
  double t_start = 0.0;
  double t_end = 0.0;
  double makespan = 0.0;
  std::vector<RankBreakdown> ranks;
  CriticalPathResult critical_path;
  double total_bytes = 0.0;
  std::uint64_t total_messages = 0;

  /// max/mean of per-rank compute time (1 = perfectly balanced).
  double load_imbalance() const;
  /// Mean over ranks of busy-time / makespan. Overlapping nonblocking
  /// comm spans (e.g. sendrecv's concurrent halves) double-count, so
  /// this can exceed 1.
  double mean_utilization() const;
  /// Aggregate comm fraction over all ranks' busy time.
  double comm_fraction() const;
};

struct ProfileStats {
  std::uint64_t worlds = 0;
  std::uint64_t p2p_ops = 0;
  std::uint64_t collectives = 0;
  std::uint64_t regions = 0;      ///< OpenMP region evaluations observed
  std::uint64_t spans_dropped = 0;  ///< timeline cap overflows (totals exact)
  std::uint64_t ops_dropped = 0;    ///< op samples beyond the cap
  std::uint64_t worlds_dropped = 0; ///< profiles beyond max_worlds
};

struct ProfileReport {
  std::vector<WorldProfile> worlds;
  ProfileStats stats;

  void merge(const ProfileReport& other, std::size_t max_worlds);
  /// Human-readable summary: one line of stats, then one block per world.
  std::string render() const;
  /// JSON object (the <id>.profile.json run_experiment writes).
  std::string to_json(int indent = 0) const;
};

/// The retained representative timeline of a profiled run (the largest
/// world by (nranks, makespan)).
struct TraceArtifacts {
  bool valid = false;
  int nranks = 0;
  double makespan = 0.0;
  std::vector<sim::Span> spans;
  std::vector<Mark> marks;
  CommMatrix matrix;
  std::uint64_t spans_dropped = 0;

  std::string chrome_json() const { return chrome_trace_json(spans, marks); }
  std::string gantt_csv() const;
  std::string comm_csv() const { return matrix.csv(); }
};

class ProfileSink;

class Profiler final : public simmpi::CommObserver {
 public:
  explicit Profiler(ProfileOptions opts = {});
  ~Profiler() override;

  /// Hooks `world` (sets its observer and the engine's span sink). The
  /// profiler must outlive the world's runs.
  void attach(simmpi::World& world);

  TraceRecorder& recorder() { return recorder_; }
  const TraceRecorder& recorder() const { return recorder_; }
  const CommMatrix& comm_matrix() const { return matrix_; }
  /// Collected op samples (arbitrary order; test/analysis input).
  std::vector<OpSample> op_samples() const;

  bool finalized() const { return finalized_; }
  /// The roll-up; valid once the attached world's run drained normally.
  const WorldProfile& profile() const { return profile_; }

  /// When set, the profile is merged into `sink` at finalize (used by
  /// arm_profile's factory).
  void publish_to(std::shared_ptr<ProfileSink> sink) {
    sink_ = std::move(sink);
  }

  // --- CommObserver ------------------------------------------------------
  void on_send_posted(std::uint64_t id, int rank, int dst, int tag,
                      double bytes, bool rendezvous) override;
  void on_send_completed(std::uint64_t id) override;
  void on_recv_posted(std::uint64_t id, int rank, int src, int tag) override;
  void on_recv_matched(std::uint64_t recv_id, std::uint64_t send_id,
                       const std::vector<simmpi::Candidate>& eligible) override;
  void on_recv_delivered(std::uint64_t id) override;
  void on_recv_completed(std::uint64_t id) override;
  void on_collective(int rank, simmpi::CollOp op, int root,
                     double bytes) override;
  void on_rank_finished(int rank) override;
  void on_finalize() override;

 private:
  double now() const;
  OpSample* find(std::uint64_t id);
  OpSample* track(std::uint64_t id);

  ProfileOptions opts_;
  simmpi::World* world_ = nullptr;
  sim::Engine* engine_ = nullptr;
  double t_start_ = 0.0;
  bool finalized_ = false;
  std::shared_ptr<ProfileSink> sink_;
  TraceRecorder recorder_;
  CommMatrix matrix_;
  std::unordered_map<std::uint64_t, OpSample> ops_;
  std::uint64_t ops_dropped_ = 0;
  std::uint64_t p2p_ops_ = 0;
  std::uint64_t collectives_ = 0;
  WorldProfile profile_;
};

// --- Per-run arming (`--profile`) ------------------------------------------

/// Where the profilers of one RunContext publish. Merges are mutex-ordered
/// and commutative, so a parallel sweep publishes the same report as a
/// sequential one.
class ProfileSink {
 public:
  explicit ProfileSink(ProfileOptions opts) : opts_(opts) {}
  const ProfileOptions& options() const { return opts_; }

  /// Merges one finalized profiler's report (its world plus stats) and,
  /// when timelines are retained and it is the largest world so far,
  /// keeps its timeline.
  void publish(const ProfileReport& local, const Profiler& profiler);
  /// One OpenMP region evaluation observed (ProfileStats::regions).
  void count_region() { regions_.fetch_add(1, std::memory_order_relaxed); }

  /// Moves the merged report out and resets it.
  ProfileReport take_report();
  /// Moves the retained timeline out and resets it. `valid` is false when
  /// no world finished since the last take or retain_timeline is off.
  TraceArtifacts take_trace();

 private:
  const ProfileOptions opts_;
  std::mutex mu_;
  ProfileReport report_;
  TraceArtifacts trace_;
  std::atomic<std::uint64_t> regions_{0};
};

/// Arms `ctx` for `--profile`: every World constructed under it owns a
/// Profiler, every OpenMP region evaluated under it is counted, and all
/// results merge into the returned sink.
std::shared_ptr<ProfileSink> arm_profile(sim::RunContext& ctx,
                                         ProfileOptions opts = {});

}  // namespace columbia::simprof
