#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
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

// The queue's sort key: for t >= 0 the bits order like the values, and
// adding +0.0 folds -0.0 into +0.0.
std::uint64_t time_key(Time t) { return std::bit_cast<std::uint64_t>(t + 0.0); }
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
  slots_.reserve(1024);
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

std::uint32_t Engine::push(Time t, Callback cb) {
  COL_REQUIRE(t >= now_, "cannot schedule an event in the past");
  COL_REQUIRE(static_cast<bool>(cb), "cannot schedule a null callback");
  std::uint32_t i = free_;
  if (i != kNoSlot) {
    free_ = slots_[i].next;
  } else {
    COL_CHECK(slots_.size() < kNoSlot, "event queue out of slots");
    i = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{0, {}, kNoSlot, 1});
  }
  slots_[i].key = time_key(t);
  slots_[i].cb = cb;
  COL_CHECK(slots_[i].key >= floor_, "event queued below the queue's floor");
  append(i);
  return i;
}

void Engine::append(std::uint32_t i) {
  Slot& s = slots_[i];
  // 0 for key == floor_, else one more than the highest differing bit.
  const int b = 64 - std::countl_zero(s.key ^ floor_);
  if (b != 0) nonempty_ |= std::uint64_t{1} << (b - 1);
  s.next = kNoSlot;
  Bucket& q = buckets_[b];
  if (q.head == kNoSlot) {
    q.head = i;
  } else {
    slots_[q.tail].next = i;
  }
  q.tail = i;
}

void Engine::refill() {
  const int b = std::countr_zero(nonempty_) + 1;
  nonempty_ &= nonempty_ - 1;
  std::uint32_t i = buckets_[b].head;
  buckets_[b] = Bucket{};
  std::uint64_t least = slots_[i].key;
  for (std::uint32_t j = slots_[i].next; j != kNoSlot; j = slots_[j].next) {
    least = std::min(least, slots_[j].key);
  }
  // Every key in bucket b agrees with the new floor above bit b-1, so each
  // moves to a lower bucket (the least to bucket 0); the buckets above b
  // keep their meaning. Relinking in list order keeps equal times FIFO.
  floor_ = least;
  while (i != kNoSlot) {
    const std::uint32_t next = slots_[i].next;
    append(i);
    i = next;
  }
}

void Engine::schedule_at(Time t, Callback cb) { push(t, cb); }

std::uint64_t Engine::schedule_cancellable_at(Time t, Callback cb) {
  const std::uint32_t i = push(t, cb);
  return std::uint64_t{slots_[i].gen} << 32 | i;
}

void Engine::cancel_scheduled(std::uint64_t token) {
  COL_REQUIRE(token != 0, "cannot cancel the null token");
  const auto i = static_cast<std::uint32_t>(token);
  // A slot's gen moves on when it is freed, so only the pending event the
  // token was issued for matches.
  if (i < slots_.size() && slots_[i].gen == token >> 32) slots_[i].cb = {};
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

  for (;;) {
    if (buckets_[0].head == kNoSlot) {
      if (nonempty_ == 0) break;
      refill();
    }
    // Copy the event out and free its slot first: the callback may
    // schedule into the slot, or throw.
    const std::uint32_t i = buckets_[0].head;
    Slot& s = slots_[i];
    buckets_[0].head = s.next;
    const auto t = std::bit_cast<Time>(s.key);
    const Callback cb = s.cb;
    s.next = free_;
    ++s.gen;
    free_ = i;
    COL_CHECK(t >= now_, "event queue went backwards in time");
    if (!cb) {
      // Revoked before firing: drop it without touching now_ or the event
      // counters, so a retargeted timer cannot stretch the simulation.
      continue;
    }
    now_ = t;
    ++events_processed_;
    cb();
    if (!finished_.empty() || !finished_frames_.empty()) reap_finished();
    if (pending_exception_) {
      auto e = pending_exception_;
      pending_exception_ = nullptr;
      std::rethrow_exception(e);
    }
  }
  // A dropped cancelled event can leave the floor above now_; later
  // schedules (a second spawn and run) may start at now_ again.
  floor_ = time_key(now_);
  if (live_tasks_ > 0) {
    if (deadlock_hook_) deadlock_hook_();
    throw DeadlockError("simulation deadlock: event queue empty with " +
                        std::to_string(live_tasks_) +
                        " process(es) still suspended");
  }
}

}  // namespace columbia::sim
