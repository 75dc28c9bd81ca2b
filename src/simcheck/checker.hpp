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

  /// When set, the report is merged into `sink` at finalize/deadlock (used
  /// by arm_check's factory).
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
  std::shared_ptr<CheckSink> sink_;
  bool finalized_ = false;
  bool published_ = false;
  std::unordered_map<std::uint64_t, OpRecord> ops_;
  std::unordered_map<std::uint64_t, RequestRecord> requests_;
  std::vector<std::vector<CollRecord>> colls_;  ///< per-rank call sequences
  std::vector<bool> finished_;                  ///< rank program returned
  CheckReport report_;
};

// --- Per-run arming (`--check`) --------------------------------------------

/// Where the checkers of one RunContext publish. Merges are mutex-ordered
/// and commutative, so a parallel sweep publishes the same totals as a
/// sequential one.
class CheckSink {
 public:
  void publish(const CheckReport& report);
  /// One OpenMP region evaluation validated (CheckStats::regions).
  void count_region() { regions_.fetch_add(1, std::memory_order_relaxed); }

  /// Moves the merged report out and resets it.
  CheckReport take_report();

 private:
  std::mutex mu_;
  CheckReport report_;
  std::atomic<std::uint64_t> regions_{0};
};

/// Arms `ctx` for `--check`: every World constructed under it owns a
/// Checker, every OpenMP region evaluated under it is validated, and all
/// results merge into the returned sink.
std::shared_ptr<CheckSink> arm_check(sim::RunContext& ctx);

}  // namespace columbia::simcheck
