#include "sim/engine.hpp"

#include <atomic>
#include <chrono>
#include <utility>

#include "common/check.hpp"
#include "sim/run_context.hpp"

namespace columbia::sim {

namespace {
// The engine currently executing a resume step; used by Task's promise to
// find its engine during final_suspend / unhandled_exception without
// threading a pointer through every coroutine. thread_local so that
// independent engines may run on different host threads concurrently.
thread_local Engine* g_current_engine = nullptr;

// Cross-engine, cross-thread event total for the bench harness.
std::atomic<std::uint64_t> g_total_events{0};
}  // namespace

std::uint64_t total_events_processed() {
  return g_total_events.load(std::memory_order_relaxed);
}

std::suspend_always Task::promise_type::final_suspend() noexcept {
  Engine* e = engine ? engine : g_current_engine;
  if (e) {
    e->on_task_finished(
        std::coroutine_handle<promise_type>::from_promise(*this));
  }
  return {};
}

void Task::promise_type::unhandled_exception() noexcept {
  Engine* e = engine ? engine : g_current_engine;
  if (e) e->on_task_exception(std::current_exception());
}

Engine::Engine() {
  // A typical scenario schedules hundreds of concurrent ranks; start with
  // room for them so the first run() does not grow the queue step by step.
  heap_.reserve(1024);
  lane_.reserve(1024);
}

Engine::~Engine() {
  // Destroy any still-suspended top-level frames; their child CoTask frames
  // are destroyed transitively because the CoTask objects (and when_all's
  // unfinished children) live in the parent frames.
  for (auto h : owned_) {
    if (h) h.destroy();
  }
  for (auto h : finished_frames_) h.destroy();
}

void Engine::spawn(Task task) {
  auto h = task.release();
  h.promise().engine = this;
  h.promise().slot = owned_.size();
  owned_.push_back(h);
  ++live_tasks_;
  schedule_at(now_, h);
}

void Engine::heap_push(Event ev) {
  // Inline sift-up on the reusable vector: one comparison per level, no
  // comparator object, no container adaptor indirection.
  std::size_t i = heap_.size();
  heap_.push_back(ev);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_[i].before(heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

Engine::Event Engine::heap_pop() {
  Event top = heap_.front();
  Event last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    // Sift the former last element down from the root.
    std::size_t i = 0;
    for (;;) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      const std::size_t right = left + 1;
      std::size_t best = left;
      if (right < n && heap_[right].before(heap_[left])) best = right;
      if (!heap_[best].before(last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

Engine::Event Engine::lane_pop() {
  const Event ev = lane_[lane_head_++];
  // Time cannot advance past a non-empty lane, so it drains at least once
  // per instant; that bounds its length by one instant's events.
  if (lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  }
  return ev;
}

void Engine::schedule_at(Time t, Callback cb) {
  COL_REQUIRE(t >= now_, "cannot schedule an event in the past");
  COL_REQUIRE(static_cast<bool>(cb), "cannot schedule a null callback");
  // Same-time events carry a larger seq than anything queued so far, so
  // appending keeps the lane sorted; run() interleaves it with the heap.
  if (t == now_) {
    lane_.push_back(Event{t, next_seq_++, cb});
  } else {
    heap_push(Event{t, next_seq_++, cb});
  }
}

std::uint64_t Engine::schedule_cancellable_at(Time t, Callback cb) {
  COL_REQUIRE(t >= now_, "cannot schedule an event in the past");
  COL_REQUIRE(static_cast<bool>(cb), "cannot schedule a null callback");
  const std::uint64_t token = next_cancel_token_++;
  heap_push(Event{t, next_seq_++, cb, token});
  return token;
}

void Engine::cancel_scheduled(std::uint64_t token) {
  COL_REQUIRE(token != 0, "cannot cancel the null token");
  cancelled_.insert(token);
}

void Engine::on_task_finished(std::coroutine_handle<Task::promise_type> h) {
  finished_.push_back(h);
  COL_CHECK(live_tasks_ > 0, "task finished with zero live tasks");
  --live_tasks_;
}

void Engine::on_task_exception(std::exception_ptr e) {
  if (!pending_exception_) pending_exception_ = e;
}

void Engine::reap_finished() {
  // O(1) per finished task: swap-remove its slot, then tell the task that
  // moved into the vacated slot where it now lives.
  for (auto h : finished_) {
    const std::size_t slot = h.promise().slot;
    COL_CHECK(slot < owned_.size() && owned_[slot] == h,
              "finished task not owned by engine");
    const std::size_t last = owned_.size() - 1;
    if (slot != last) {
      owned_[slot] = owned_[last];
      owned_[slot].promise().slot = slot;
    }
    owned_.pop_back();
    h.destroy();
  }
  finished_.clear();
  for (auto h : finished_frames_) h.destroy();
  finished_frames_.clear();
}

// simlint:seam(cross-rank-shared-mutable,nondet-interprocedural): the current-engine pointer is thread_local (one engine per host thread — exactly the PDES partition boundary), the event totals (process-wide and per RunContext) are atomic diagnostics counters, and the wall clock feeds only the events/sec perf counter; none of it is simulation state.
void Engine::run() {
  Engine* prev = g_current_engine;
  g_current_engine = this;
  const std::uint64_t events_at_entry = events_processed_;
  // simlint:allow(nondet-source) — wall-seconds perf counter; feeds the
  // events/sec diagnostic, never a simulated clock or a report value.
  const auto wall_start = std::chrono::steady_clock::now();
  // RAII restore so nested/sequential engines behave, and so the perf
  // counters stay correct even when a simulated process throws.
  struct Restore {
    Engine* prev;
    Engine* self;
    std::uint64_t events_at_entry;
    std::chrono::steady_clock::time_point wall_start;
    ~Restore() {
      g_current_engine = prev;
      self->run_wall_seconds_ +=
          // simlint:allow(nondet-source) — wall-seconds perf counter
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
      const std::uint64_t events = self->events_processed_ - events_at_entry;
      g_total_events.fetch_add(events, std::memory_order_relaxed);
      if (RunContext* ctx = current_run_context()) {
        ctx->events.fetch_add(events, std::memory_order_relaxed);
      }
    }
  } restore{prev, this, events_at_entry, wall_start};

  while (lane_head_ < lane_.size() || !heap_.empty()) {
    const Event ev = lane_first() ? lane_pop() : heap_pop();
    COL_CHECK(ev.time >= now_, "event queue went backwards in time");
    if (ev.token != 0 && cancelled_.erase(ev.token) > 0) {
      // Revoked before firing: drop it without touching now_ or the event
      // counters, so a retargeted timer cannot stretch the simulation.
      continue;
    }
    now_ = ev.time;
    ++events_processed_;
    ev.cb();
    if (!finished_.empty() || !finished_frames_.empty()) reap_finished();
    if (pending_exception_) {
      auto e = pending_exception_;
      pending_exception_ = nullptr;
      std::rethrow_exception(e);
    }
  }
  if (live_tasks_ > 0) {
    if (deadlock_hook_) deadlock_hook_();
    throw DeadlockError("simulation deadlock: event queue empty with " +
                        std::to_string(live_tasks_) +
                        " process(es) still suspended");
  }
}

}  // namespace columbia::sim
