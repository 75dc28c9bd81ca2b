#pragma once
/// \file engine.hpp
/// Deterministic single-threaded discrete-event engine.
///
/// Simulated processes are C++20 coroutines (`Task`). The engine owns a
/// time-ordered event queue; each event runs one `Callback`:
/// resuming a suspended coroutine, or one step of a protocol state machine
/// (a network transfer, a message delivery, the flow solver's wake) that
/// needs no coroutine frame of its own. Determinism: events at equal
/// times run in scheduling order, and all randomness comes from seeded
/// `columbia::Rng` streams.
///
/// Concurrency model: one engine is single-threaded by construction (the
/// current engine is tracked in a thread_local), so independent engines on
/// different host threads are safe — the scenario runner in core/ relies
/// on exactly that (one engine per sweep point, no shared mutable state).
///
/// Hot path: `run()` is one queue pop + one callback call per event. The
/// queue is a monotone radix queue (time never goes backwards): bucket 0
/// holds the current instant, and a later event goes to the bucket of the
/// highest bit in which its time's IEEE-754 pattern differs from the
/// current one. Buckets are FIFO lists over one reusable slot vector with
/// a free list, so equal times run in scheduling order with no sequence
/// numbers, comparisons or per-event allocation. Finished-task reaping is
/// O(1) swap-remove through the owned-list slot each Task's promise
/// carries; a finished when_all child's frame is freed after its event.

#include <array>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
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

  /// Schedules `cb` to run at absolute time `t` (>= now). Events at equal
  /// times run in the order they were scheduled.
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
  /// Revokes the event `token` names if it is still pending. A token
  /// names one scheduling only: cancelling an event that already ran or
  /// was already cancelled does nothing, and never revokes a later event
  /// that reuses its queue slot.
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
  void reserve_events(std::size_t n) { slots_.reserve(n); }

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
  /// A pending event or a free slot: `key` is the time's bit pattern,
  /// `next` links the bucket or free list, and `gen` counts frees, so a
  /// cancel token `gen << 32 | index` names one scheduling. An empty `cb`
  /// marks a cancelled event.
  struct Slot {
    std::uint64_t key;
    Callback cb;
    std::uint32_t next;
    std::uint32_t gen;
  };
  /// A FIFO list of slots.
  struct Bucket {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Stores an event in a free slot and queues it; returns the slot.
  std::uint32_t push(Time t, Callback cb);
  /// Queues slot `i` at the tail of its bucket relative to floor_.
  void append(std::uint32_t i);
  /// Bucket 0 is empty: moves floor_ to the earliest pending time and
  /// relinks that time's bucket, in list order, into lower buckets.
  void refill();
  void reap_finished();

  Time now_ = kTimeZero;
  std::uint64_t events_processed_ = 0;
  double run_wall_seconds_ = 0.0;
  std::size_t live_tasks_ = 0;
  /// Event storage, reused across runs; free slots chain from free_.
  std::vector<Slot> slots_;
  std::uint32_t free_ = kNoSlot;
  /// Bit pattern of the current instant. Bucket 0 holds events at floor_;
  /// bucket b >= 1 those whose highest bit differing from it is bit b-1.
  std::uint64_t floor_ = 0;
  std::uint64_t nonempty_ = 0;  ///< bit b-1 set: bucket b is not empty
  std::array<Bucket, 65> buckets_;
  std::vector<std::coroutine_handle<Task::promise_type>> finished_;
  std::vector<std::coroutine_handle<>> finished_frames_;  ///< when_all children
  /// Spawned, not yet reaped; task i's promise holds slot == i.
  std::vector<std::coroutine_handle<Task::promise_type>> owned_;
  std::exception_ptr pending_exception_;
  std::function<void()> deadlock_hook_;
  SpanSink* span_sink_ = nullptr;
};

}  // namespace columbia::sim
