#pragma once
/// \file checker.hpp
/// simcheck: opt-in communication-correctness analyzer for the simulated
/// MPI/OpenMP layers.
///
/// A `Checker` attaches to one `simmpi::World` through the CommObserver
/// hooks (plus the engine's deadlock hook) and reports, with per-rank
/// provenance:
///   1. deadlock — engine quiescence while ranks still block, reported as
///      the wait-for cycle among the blocked operations;
///   2. unmatched operations at finalize — sends never received, requests
///      never retired with wait/wait_all (leak check);
///   3. collective consistency — ranks whose collective call sequences
///      diverge (different op, root, or byte count);
///   4. wildcard races — a recv(kAny, ...) completion while more than one
///      eligible message was pending (a nondeterminism hazard: the match
///      is arrival order here, but a real machine may order differently).
///
/// The checker is a pure listener: it never touches the engine, so an
/// attached checker cannot change matching or timing — checked runs
/// produce byte-identical reports.
///
/// Two ways to use it:
///   * standalone (tests): `Checker c; c.attach(world); world.run(...);`
///     then inspect `c.report()`;
///   * per run (`--check` on run_experiment / simserve):
///     `arm_check(ctx)` makes every World constructed under the
///     sim::RunContext own a checker and also validates every OpenMP
///     region evaluation; the returned CheckSink collects the merged
///     result.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/run_context.hpp"
#include "simmpi/observer.hpp"
#include "simmpi/world.hpp"
#include "simomp/omp_model.hpp"

namespace columbia::simcheck {

enum class DiagKind {
  Deadlock,
  UnmatchedSend,
  UnwaitedRequest,
  CollectiveDivergence,
  WildcardRace,
  InvalidRegion,
};

const char* diag_kind_name(DiagKind kind);

struct Diagnostic {
  DiagKind kind;
  int rank = -1;  ///< primary offending rank; -1 = not rank-specific
  std::string detail;
};

/// What was checked (for the `--check` summary line).
struct CheckStats {
  std::uint64_t worlds = 0;
  std::uint64_t p2p_ops = 0;      ///< sends + receives observed
  std::uint64_t collectives = 0;  ///< collective calls observed
  std::uint64_t regions = 0;      ///< OpenMP region evaluations validated
};

/// One wildcard-receive match the program did not force: more than one
/// sender was admissible, so a real machine could have taken a different
/// one. Exported for src/simrace, which re-runs the scenario forcing each
/// alternative through the simmpi::MatchPolicy seam. `k` is the receiver's
/// 0-based wildcard-receive index in posting order — the same key
/// MatchPolicy::forced_source uses — so (world, rank, k) names this
/// decision stably across replays. Admissible alternatives are the sources
/// of every matching send that was posted while the receive was open
/// (posted but not yet completed): by simmpi's synchronous-deposit
/// property that covers the whole eligible set at match time, plus
/// senders that posted between the match and the completion — messages a
/// real machine could have delivered first. Alternatives from the latter
/// window may be causally infeasible to force; the explorer counts the
/// resulting deadlock as an infeasible schedule rather than a race.
struct RaceDecision {
  int world = 0;  ///< World construction serial (see set_world_serial)
  int rank = 0;   ///< receiving rank
  int k = 0;      ///< per-rank wildcard-receive index, posting order
  int chosen_source = -1;                ///< source actually matched
  std::vector<int> alternative_sources;  ///< other admissible sources, sorted
};

struct CheckReport {
  std::vector<Diagnostic> diagnostics;
  CheckStats stats;
  /// Diagnostics dropped by the per-kind cap (a buggy loop would otherwise
  /// emit one per iteration).
  std::uint64_t suppressed = 0;

  bool clean() const { return diagnostics.empty() && suppressed == 0; }
  std::size_t count(DiagKind kind) const;
  void merge(const CheckReport& other);
  /// Human-readable text: one summary line, then one line per diagnostic.
  std::string render() const;
  /// JSON object (same shape the bench summary embeds under "check").
  std::string to_json(int indent = 0) const;
};

class CheckSink;

class Checker final : public simmpi::CommObserver {
 public:
  /// Most diagnostics kept per kind; the rest are counted as suppressed.
  static constexpr std::size_t kMaxPerKind = 8;

  /// Hooks `world` (sets its observer and the engine's deadlock hook).
  /// The checker must outlive the world's runs.
  void attach(simmpi::World& world);

  /// Runs the finalize-time detectors (leaks, collective consistency).
  /// Idempotent; invoked automatically when the attached world's run
  /// drains normally.
  void finalize();

  const CheckReport& report() const { return report_; }

  /// Wildcard-receive decisions with more than one admissible sender, in
  /// receive-completion order (populated by finalize/on_deadlock intake;
  /// records still open at a deadlock are dropped — the run is broken).
  const std::vector<RaceDecision>& race_decisions() const {
    return decisions_;
  }

  /// Tags this checker's decisions with a World construction serial so
  /// (world, rank, k) is unique across the Worlds of one exploration run.
  /// arm_check assigns serials in construction order — deterministic only
  /// under sequential execution, which the explorer requires anyway.
  void set_world_serial(int serial) { world_serial_ = serial; }

  /// When set, the report and race decisions are merged into `sink` at
  /// finalize/deadlock (used by arm_check's factory).
  void publish_to(std::shared_ptr<CheckSink> sink) { sink_ = std::move(sink); }

  /// Validates one OpenMP region spec (non-finite or negative demand that
  /// the model's contracts cannot catch); appends to `out`.
  static void check_region(const simomp::RegionSpec& region, int nthreads,
                           CheckReport& out);

  /// Engine quiescence with live tasks: snapshots the blocked operations,
  /// reports the wait-for cycle, and runs the collective-consistency
  /// detector (a divergent collective is a common deadlock cause).
  void on_deadlock();

  // --- CommObserver ------------------------------------------------------
  void on_send_posted(std::uint64_t id, int rank, int dst, int tag,
                      double bytes, bool rendezvous) override;
  void on_send_completed(std::uint64_t id) override;
  void on_recv_posted(std::uint64_t id, int rank, int src, int tag) override;
  void on_recv_matched(std::uint64_t recv_id, std::uint64_t send_id,
                       const std::vector<simmpi::Candidate>& eligible) override;
  void on_recv_completed(std::uint64_t id) override;
  void on_request_posted(int rank, std::uint64_t serial, bool is_send,
                         int peer, int tag) override;
  void on_request_waited(int rank, std::uint64_t serial) override;
  void on_collective(int rank, simmpi::CollOp op, int root,
                     double bytes) override;
  void on_rank_finished(int rank) override;
  void on_finalize() override;

 private:
  struct OpRecord {
    std::uint64_t id = 0;
    int rank = 0;
    bool is_send = false;
    int peer = 0;  ///< dst for sends, src pattern for receives (may be kAny)
    int tag = 0;
    double bytes = 0.0;
    bool rendezvous = false;
    bool wildcard = false;  ///< recv with kAny source and/or tag
    bool matched = false;
    bool completed = false;
  };
  struct RequestRecord {
    int rank = 0;
    bool is_send = false;
    int peer = 0;
    int tag = 0;
  };
  struct CollRecord {
    simmpi::CollOp op;
    int root = -1;
    double bytes = 0.0;  ///< -1 = per-rank sizes may legitimately differ
  };
  /// A posted-but-not-completed receive with a wildcard source, gathering
  /// its admissible sender set as matching sends post.
  struct OpenWildcard {
    std::uint64_t recv_id = 0;
    int rank = 0;
    int k = 0;
    int tag_pattern = 0;  ///< may be kAny
    int chosen = -1;
    std::set<int> candidates;
  };

  void add_diag(DiagKind kind, int rank, std::string detail);
  /// First content divergence among the per-rank collective sequences;
  /// `require_equal_lengths` additionally flags count mismatches (finalize
  /// only — at deadlock, ranks are legitimately cut off mid-sequence).
  void check_collectives(bool require_equal_lengths);
  /// Open (posted, uncompleted) ops in id order — the blocked calls.
  std::vector<const OpRecord*> open_ops() const;
  void publish();

  simmpi::World* world_ = nullptr;
  int nranks_ = 0;
  int world_serial_ = 0;
  std::shared_ptr<CheckSink> sink_;
  bool finalized_ = false;
  bool published_ = false;
  std::unordered_map<std::uint64_t, OpRecord> ops_;
  std::unordered_map<std::uint64_t, RequestRecord> requests_;
  std::vector<std::vector<CollRecord>> colls_;  ///< per-rank call sequences
  std::vector<bool> finished_;                  ///< rank program returned
  std::vector<int> wildcard_counts_;   ///< per-rank posted wildcard receives
  std::vector<OpenWildcard> open_wildcards_;
  std::vector<RaceDecision> decisions_;  ///< completion order
  CheckReport report_;
};

// --- Per-run arming (`--check`) --------------------------------------------

/// Where the checkers of one RunContext publish. Merges are mutex-ordered
/// and commutative, so a parallel sweep publishes the same totals as a
/// sequential one.
class CheckSink {
 public:
  void publish(const CheckReport& report,
               const std::vector<RaceDecision>& decisions);
  /// One OpenMP region evaluation validated (CheckStats::regions).
  void count_region() { regions_.fetch_add(1, std::memory_order_relaxed); }
  /// Next World construction serial under this sink.
  int next_world_serial() {
    return world_serial_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Moves the merged report out and resets it.
  CheckReport take_report();
  /// Moves the wildcard race decisions out, sorted by (world, rank, k), and
  /// resets them. World serials count construction order under the
  /// context — run the scenario sequentially (core::Exec::sequential) for
  /// stable serials. src/simrace's candidate-discovery path.
  std::vector<RaceDecision> take_race_decisions();

 private:
  std::mutex mu_;
  CheckReport report_;
  std::vector<RaceDecision> decisions_;
  std::atomic<std::uint64_t> regions_{0};
  std::atomic<int> world_serial_{0};
};

/// Arms `ctx` for `--check`: every World constructed under it owns a
/// Checker, every OpenMP region evaluated under it is validated, and all
/// results merge into the returned sink.
std::shared_ptr<CheckSink> arm_check(sim::RunContext& ctx);

}  // namespace columbia::simcheck
