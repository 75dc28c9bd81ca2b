#include "simserve/service.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace columbia::simserve {

std::size_t outcome_bytes(const EvalOutcome& outcome) {
  return sizeof(EvalOutcome) + outcome.error.size() + outcome.report.size() +
         outcome.check_json.size() + outcome.profile_json.size();
}

Service::Service(EvalFn eval, Options opts) : eval_(std::move(eval)) {
  COL_REQUIRE(static_cast<bool>(eval_), "Service requires an EvalFn");
  if (opts.jobs > 0) common::ThreadPool::shared().ensure_workers(opts.jobs);
}

Service::~Service() { drain(); }

void Service::submit(const core::ScenarioSpec& spec, Callback done) {
  const std::uint64_t hash = spec.hash();
  bool spawn = false;
  {
    std::unique_lock lock(mutex_);
    ++stats_.requests;
    ++in_flight_requests_;
    stats_.peak_in_flight =
        std::max(stats_.peak_in_flight, in_flight_requests_);

    if (auto it = cache_.find(hash); it != cache_.end()) {
      ++stats_.cache_hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      Response r;
      r.spec_hash = hash;
      r.cached = true;
      r.outcome = it->second->outcome;
      --in_flight_requests_;
      lock.unlock();
      // Inline on the submitting thread: a cache hit needs no job, and
      // inline delivery is what lets hot-spec throughput scale past the
      // pool size.
      done(r);
      return;
    }
    if (auto it = inflight_.find(hash); it != inflight_.end()) {
      ++stats_.coalesced;
      it->second->waiters.push_back(std::move(done));
      it->second->waiter_coalesced.push_back(true);
      return;
    }
    auto job = std::make_shared<InFlight>();
    job->spec = spec;
    job->waiters.push_back(std::move(done));
    job->waiter_coalesced.push_back(false);
    inflight_.emplace(hash, std::move(job));
    spawn = true;
  }
  if (spawn) {
    common::ThreadPool::shared().submit([this, hash] { run_job(hash); });
  }
}

void Service::run_job(std::uint64_t hash) {
  core::ScenarioSpec spec;
  {
    std::lock_guard lock(mutex_);
    auto it = inflight_.find(hash);
    COL_REQUIRE(it != inflight_.end(), "simserve job lost its in-flight entry");
    spec = it->second->spec;
  }

  auto outcome = std::make_shared<const EvalOutcome>(eval_(spec));

  std::shared_ptr<InFlight> job;
  {
    std::lock_guard lock(mutex_);
    ++stats_.evaluations;
    auto it = inflight_.find(hash);
    COL_REQUIRE(it != inflight_.end(), "simserve job lost its in-flight entry");
    job = std::move(it->second);
    inflight_.erase(it);
    // Failed evaluations are not cached: an unknown id stays unknown, but
    // transient failures (e.g. an eval fn that touches the filesystem)
    // deserve a retry rather than a poisoned entry.
    if (outcome->ok) cache_insert(hash, outcome);
  }

  // Deliver outside the lock — callbacks may submit follow-up specs.
  for (std::size_t i = 0; i < job->waiters.size(); ++i) {
    Response r;
    r.spec_hash = hash;
    r.coalesced = job->waiter_coalesced[i];
    r.outcome = outcome;
    job->waiters[i](r);
  }
  {
    std::lock_guard lock(mutex_);
    in_flight_requests_ -= job->waiters.size();
    if (in_flight_requests_ == 0) drained_cv_.notify_all();
  }
}

void Service::cache_insert(std::uint64_t hash,
                           std::shared_ptr<const EvalOutcome> outcome) {
  const std::size_t bytes = outcome_bytes(*outcome);
  lru_.push_front(CacheEntry{hash, std::move(outcome), bytes});
  cache_.emplace(hash, lru_.begin());
  cache_bytes_ += bytes;
  while (cache_bytes_ > kCacheBudgetBytes && lru_.size() > 1) {
    const CacheEntry& victim = lru_.back();
    cache_bytes_ -= victim.bytes;
    cache_.erase(victim.hash);
    lru_.pop_back();
  }
}

Response Service::evaluate(const core::ScenarioSpec& spec) {
  // Blocks the calling thread until the job completes, so this must not
  // be called from a pool worker (the job it waits on needs a worker) —
  // EvalFn implementations and submit() callbacks use submit() instead.
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Response response;
  };
  auto latch = std::make_shared<Latch>();
  submit(spec, [latch](const Response& r) {
    std::lock_guard lock(latch->mu);
    latch->response = r;
    latch->done = true;
    latch->cv.notify_one();
  });
  std::unique_lock lock(latch->mu);
  latch->cv.wait(lock, [&] { return latch->done; });
  return latch->response;
}

void Service::drain() {
  std::unique_lock lock(mutex_);
  drained_cv_.wait(lock, [&] { return in_flight_requests_ == 0; });
}

ServiceStats Service::stats() const {
  std::lock_guard lock(mutex_);
  ServiceStats s = stats_;
  s.cache_entries = cache_.size();
  s.cache_bytes = cache_bytes_;
  s.in_flight = in_flight_requests_;
  return s;
}

}  // namespace columbia::simserve
