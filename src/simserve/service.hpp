#pragma once
/// \file service.hpp
/// simserve: the scenario-evaluation service core.
///
/// A `Service` turns the embeddable library API (core::ScenarioSpec →
/// result bytes) into a persistent evaluation endpoint: requests are
/// jobs on the shared host thread pool, completed results are cached by
/// the spec's canonical hash, and duplicate in-flight specs *coalesce* —
/// the second submission of a spec that is already evaluating attaches
/// its callback to the running job instead of spawning another run. The
/// determinism contract makes both optimizations sound: a spec is a pure
/// function of its canonical bytes, so one evaluation's result is every
/// requester's result, byte for byte.
///
/// The cache is bounded: it holds at most kCacheBudgetBytes of outcomes
/// (outcome_bytes) and evicts the least recently hit entries first, so a
/// long-running daemon that sees a stream of distinct specs keeps a fixed
/// footprint. The entry just inserted is never evicted, even when it alone
/// exceeds the budget.
///
/// The evaluation function itself is injected (`EvalFn`), for two
/// reasons. Layering: the registry-backed evaluator (core::Evaluator)
/// lives in eval.cpp so this file stays registry-free. Testing: the sanitizer variants compile
/// the queue/cache/coalescing machinery with a stub evaluator and hammer
/// it from many threads without paying for registry runs.
///
/// Thread safety: every public member is safe to call from any thread;
/// callbacks run on pool workers (or inline on the submitting thread for
/// cache hits) and must not call back into the Service while holding the
/// caller's own locks on which a callback could also block.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/spec.hpp"

namespace columbia::simserve {

/// What evaluating one spec produced. A deliberately flat mirror of
/// core::EvalResult so this header does not pull in the registry stack.
struct EvalOutcome {
  bool ok = false;
  std::string error;        ///< set when !ok
  std::string report;       ///< result bytes; run_experiment's stdout contract
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  bool check_clean = true;  ///< meaningful when the spec armed simcheck
  std::string check_json;   ///< "" unless spec.check
  std::string profile_json; ///< "" unless spec.profile
};

/// What one cached outcome counts against the cache budget: the struct
/// plus the bytes of its strings.
std::size_t outcome_bytes(const EvalOutcome& outcome);

/// The injected evaluator: spec in, outcome out. Must be pure in the
/// spec (same spec → same outcome bytes) for caching and coalescing to
/// be sound, and safe to invoke from multiple pool threads at once
/// (core::Evaluator is: each evaluation arms its own RunContext).
using EvalFn = std::function<EvalOutcome(const core::ScenarioSpec&)>;

/// One completed request: the outcome plus how the service satisfied it.
struct Response {
  std::uint64_t spec_hash = 0;
  bool cached = false;     ///< served from the completed-result cache
  bool coalesced = false;  ///< attached to an evaluation already in flight
  /// Shared, immutable once published — coalesced requesters see the
  /// same object the evaluating job produced.
  std::shared_ptr<const EvalOutcome> outcome;
};

/// Monotonic service counters (drained never; `stats` snapshots).
struct ServiceStats {
  std::uint64_t requests = 0;     ///< submit() calls
  std::uint64_t evaluations = 0;  ///< EvalFn invocations (true cache misses)
  std::uint64_t cache_hits = 0;   ///< served from the result cache
  std::uint64_t coalesced = 0;    ///< attached to an in-flight evaluation
  std::uint64_t cache_entries = 0;   ///< current cache size (snapshot)
  std::uint64_t cache_bytes = 0;     ///< outcome_bytes summed over the cache (snapshot)
  std::uint64_t in_flight = 0;       ///< submitted, not yet completed (snapshot)
  std::uint64_t peak_in_flight = 0;  ///< high-water mark of in_flight
};

class Service {
 public:
  /// Result-cache budget in outcome_bytes. A plain registry outcome is a
  /// few KB and a profiled one a few hundred KB, so this keeps well over a
  /// thousand plain outcomes.
  static constexpr std::size_t kCacheBudgetBytes = std::size_t{8} << 20;

  struct Options {
    /// Evaluation parallelism: grows the shared pool to at least this
    /// many workers (0 = leave the pool at its default size).
    int jobs = 0;
  };

  explicit Service(EvalFn eval) : Service(std::move(eval), Options()) {}
  Service(EvalFn eval, Options opts);
  /// Drains: blocks until every submitted job has completed.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  using Callback = std::function<void(const Response&)>;

  /// Asynchronous evaluation. `done` is invoked exactly once — inline
  /// (before submit returns) on a cache hit, on a pool worker otherwise.
  void submit(const core::ScenarioSpec& spec, Callback done);

  /// Synchronous wrapper: submit + wait for this one response. Must not
  /// be called from a pool worker (the job it waits on needs a worker).
  Response evaluate(const core::ScenarioSpec& spec);

  /// Blocks until there are no in-flight jobs.
  void drain();

  ServiceStats stats() const;

 private:
  /// One evaluation in flight; duplicate submissions append to waiters.
  struct InFlight {
    core::ScenarioSpec spec;
    std::vector<Callback> waiters;          ///< parallel to coalesced flags
    std::vector<bool> waiter_coalesced;
  };

  /// One completed outcome; the LRU list runs most recently hit first.
  struct CacheEntry {
    std::uint64_t hash = 0;
    std::shared_ptr<const EvalOutcome> outcome;
    std::size_t bytes = 0;
  };
  using Lru = std::list<CacheEntry>;

  void run_job(std::uint64_t hash);
  /// Inserts as most recent, then evicts from the least recent end until
  /// the cache fits kCacheBudgetBytes or only the new entry is left.
  void cache_insert(std::uint64_t hash,
                    std::shared_ptr<const EvalOutcome> outcome);

  EvalFn eval_;
  mutable std::mutex mutex_;
  std::condition_variable drained_cv_;
  Lru lru_;
  std::unordered_map<std::uint64_t, Lru::iterator> cache_;
  std::size_t cache_bytes_ = 0;
  std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> inflight_;
  std::uint64_t in_flight_requests_ = 0;  ///< submitted, callback not yet run
  ServiceStats stats_;
};

}  // namespace columbia::simserve
