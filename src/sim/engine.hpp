#pragma once
/// \file engine.hpp
/// Deterministic single-threaded discrete-event engine.
///
/// Simulated processes are C++20 coroutines (`Task`). The engine owns a
/// (time, sequence)-ordered event heap; each event runs one `Callback`:
/// resuming a suspended coroutine, or one step of a protocol state machine
/// (a network transfer, a message delivery, the flow solver's wake) that
/// needs no coroutine frame of its own. Determinism: ties in time are
/// broken by insertion sequence, and all randomness comes from seeded
/// `columbia::Rng` streams.
///
/// Concurrency model: one engine is single-threaded by construction (the
/// current engine is tracked in a thread_local), so independent engines on
/// different host threads are safe — the scenario runner in core/ relies
/// on exactly that (one engine per sweep point, no shared mutable state).
///
/// Hot path: `run()` is one queue pop + one callback call per event.
/// Events scheduled for the current time (trigger wakes, resource grants,
/// spawns) go to a same-time FIFO lane; only future and cancellable events
/// enter the heap, an inline binary heap over a reusable vector (no
/// per-event allocation, no std::priority_queue indirection). `run()` takes
/// the lane's front whenever it precedes the heap top by (time, seq), so
/// the lane changes no event's order, only its cost. Finished-task reaping
/// is O(1) swap-remove through the owned-list slot each Task's promise
/// carries; a finished when_all child's frame is freed after its event.

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "sim/task.hpp"
#include "sim/time.hpp"

namespace columbia::sim {

class SpanSink;

/// Thrown by Engine::run when the event queue drains while simulated
/// processes are still suspended (e.g. a recv with no matching send).
class DeadlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Process-wide count of events processed by all engines on all threads
/// (monotonic; used by the bench harness for events/sec reporting). The
/// exact count of one run is its RunContext's `events` (run_context.hpp).
std::uint64_t total_events_processed();

/// What one engine event runs: `fn(ctx)`, or with no `fn`, a resume of
/// the coroutine frame `ctx` (`resume`; no extra indirect call on the
/// engine's commonest event). A protocol state machine schedules its next
/// step as a method call (`method`), so the step costs an event but no
/// frame.
struct Callback {
  void (*fn)(void*) = nullptr;
  void* ctx = nullptr;

  explicit operator bool() const { return ctx != nullptr; }
  void operator()() const {
    if (fn != nullptr) {
      fn(ctx);
    } else {
      std::coroutine_handle<>::from_address(ctx).resume();
    }
  }

  /// Resumes `h`.
  static Callback resume(std::coroutine_handle<> h) {
    return {nullptr, h.address()};
  }
  /// Calls `(obj->*Method)()`.
  template <auto Method, typename T>
  static Callback method(T* obj) {
    return {[](void* self) { (static_cast<T*>(self)->*Method)(); }, obj};
  }
};

class Engine {
 public:
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated time in seconds.
  Time now() const { return now_; }

  /// Registers a top-level process and schedules its first step at `now()`.
  void spawn(Task task);

  /// Runs until no events remain. Throws DeadlockError if live processes
  /// remain suspended with an empty queue, or rethrows the first exception
  /// that escaped a simulated process.
  void run();

  /// Schedules `cb` to run at absolute time `t` (>= now). Events at
  /// t == now() skip the heap; they still run in (time, seq) order.
  void schedule_at(Time t, Callback cb);
  /// Schedules `h` to resume at `t`.
  void schedule_at(Time t, std::coroutine_handle<> h) {
    schedule_at(t, Callback::resume(h));
  }
  /// Schedules `cb` to run after `dt` seconds of simulated time.
  void schedule_after(Time dt, Callback cb) { schedule_at(now_ + dt, cb); }
  /// Schedules `h` to resume after `dt` seconds of simulated time.
  void schedule_after(Time dt, std::coroutine_handle<> h) {
    schedule_at(now_ + dt, Callback::resume(h));
  }

  /// Schedules `cb` at `t` like schedule_at, but returns a token that
  /// cancel_scheduled can later revoke. A cancelled event is discarded
  /// when it reaches the front of the queue: it runs nothing, does not
  /// advance now(), and does not count as a processed event — so a
  /// retargeted timer leaves no trace in simulated time. Used by the flow
  /// transport's solver, whose single wake-up moves whenever the active
  /// flow set changes.
  std::uint64_t schedule_cancellable_at(Time t, Callback cb);
  /// Revokes a pending cancellable event. Must not be called after the
  /// event has already fired (callers track their own pending state);
  /// tokens are never reused, so a stale cancel can only leak a set entry.
  void cancel_scheduled(std::uint64_t token);

  /// Awaitable: `co_await engine.delay(dt)` advances this process by dt.
  auto delay(Time dt) {
    struct Awaiter {
      Engine& engine;
      Time dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        engine.schedule_after(dt, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dt};
  }

  /// Pre-sizes the event queue (e.g. before spawning a large rank count).
  void reserve_events(std::size_t n) {
    heap_.reserve(n);
    lane_.reserve(n);
  }

  /// Hook invoked when run() drains the queue while live processes remain
  /// suspended, immediately before DeadlockError is thrown. simcheck's
  /// analyzer uses it to snapshot the wait-for graph while the blocked
  /// state is still observable. Pass nullptr to clear.
  void set_deadlock_hook(std::function<void()> hook) {
    deadlock_hook_ = std::move(hook);
  }

  /// Optional span sink (see trace.hpp): layers that know what an actor
  /// was doing (simmpi's World, machine's Network) emit activity spans
  /// into it. Sinks are pure listeners, so attaching one cannot change
  /// simulated timing. Pass nullptr to clear; the sink must outlive every
  /// run that emits into it.
  void set_span_sink(SpanSink* sink) { span_sink_ = sink; }
  SpanSink* span_sink() const { return span_sink_; }

  /// Number of spawned processes that have not yet finished.
  std::size_t live_tasks() const { return live_tasks_; }
  /// Total events processed so far (observability / perf accounting).
  std::uint64_t events_processed() const { return events_processed_; }
  /// Wall-clock seconds spent inside run() so far.
  double run_wall_seconds() const { return run_wall_seconds_; }
  /// Events per wall-clock second over all run() calls (0 before any run).
  double events_per_second() const {
    return run_wall_seconds_ > 0.0
               ? static_cast<double>(events_processed_) / run_wall_seconds_
               : 0.0;
  }

  // --- internal hooks used by Task's promise and when_all ----------------
  void on_task_finished(std::coroutine_handle<Task::promise_type> h);
  void on_task_exception(std::exception_ptr e);
  /// Destroys `frame`, a finished coroutine, right after the current
  /// event (it may still be on the call stack until then).
  void destroy_after_event(std::coroutine_handle<> frame) {
    finished_frames_.push_back(frame);
  }

 private:
  struct Event {
    Time time;
    std::uint64_t seq;
    Callback cb;
    std::uint64_t token = 0;  ///< nonzero: revocable via cancel_scheduled
    // Min-heap priority: earlier time first, then insertion order.
    bool before(const Event& other) const {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  void heap_push(Event ev);
  Event heap_pop();
  /// True when the lane's front is the next event in (time, seq) order.
  bool lane_first() const {
    return lane_head_ < lane_.size() &&
           (heap_.empty() || lane_[lane_head_].before(heap_.front()));
  }
  Event lane_pop();
  void reap_finished();

  Time now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_cancel_token_ = 1;
  std::unordered_set<std::uint64_t> cancelled_;  ///< revoked, not yet popped
  std::uint64_t events_processed_ = 0;
  double run_wall_seconds_ = 0.0;
  std::size_t live_tasks_ = 0;
  std::vector<Event> heap_;  ///< inline binary min-heap, reused across runs
  /// Same-time FIFO lane: non-cancellable events scheduled at t == now_,
  /// in seq order from lane_head_. Time only advances once it is empty.
  std::vector<Event> lane_;
  std::size_t lane_head_ = 0;
  std::vector<std::coroutine_handle<Task::promise_type>> finished_;
  std::vector<std::coroutine_handle<>> finished_frames_;  ///< when_all children
  /// Spawned, not yet reaped; task i's promise holds slot == i.
  std::vector<std::coroutine_handle<Task::promise_type>> owned_;
  std::exception_ptr pending_exception_;
  std::function<void()> deadlock_hook_;
  SpanSink* span_sink_ = nullptr;
};

}  // namespace columbia::sim
