#pragma once
/// \file task.hpp
/// Coroutine task types for simulated processes.
///
/// Two coroutine shapes exist:
///  * `Task` — a detached, top-level simulated process (one per MPI rank /
///    MLP group). Spawned onto an `Engine`, which owns its lifetime.
///  * `CoTask<T>` — a lazy child coroutine awaited by another coroutine
///    (e.g. a collective implemented over point-to-point sends). Control
///    transfers symmetrically, and values/exceptions propagate to the
///    awaiter. when_all (join.hpp) instead starts children from engine
///    events and learns of their end through a finish hook.
///
/// The engine never runs more than one coroutine at a time (single-threaded
/// deterministic simulation), so no synchronization is needed (CppCoreGuide
/// CP.2 by construction).

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

namespace columbia::sim {

class Engine;

/// Detached top-level simulated process. Created suspended; `Engine::spawn`
/// schedules its first resume and assumes ownership.
class Task {
 public:
  struct promise_type {
    Engine* engine = nullptr;
    /// This task's index in its engine's owned list while spawned; the
    /// engine keeps it current as it swap-removes finished tasks.
    std::size_t slot = 0;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    // Final suspend keeps the frame alive so the engine can observe
    // completion and destroy it (see Engine::on_task_finished).
    std::suspend_always final_suspend() noexcept;
    void return_void() noexcept {}
    void unhandled_exception() noexcept;
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    // A Task not passed to spawn() cleans up after itself.
    if (handle_) handle_.destroy();
  }

  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, nullptr);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  std::coroutine_handle<promise_type> handle_;
};

namespace detail {

/// Called from a CoTask's final suspend in place of resuming an awaiter,
/// for a child that when_all started (join.hpp): `fn(ctx, error)`, with
/// the exception the body let escape (null when it returned).
struct FinishHook {
  void (*fn)(void* ctx, std::exception_ptr error) = nullptr;
  void* ctx = nullptr;
};

/// What CoTask<T> and CoTask<void> promises share.
struct CoPromiseBase {
  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> h) noexcept {
      auto& p = h.promise();
      if (p.continuation) return p.continuation;
      if (p.on_finish.fn) p.on_finish.fn(p.on_finish.ctx, p.exception);
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  FinishHook on_finish;

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

}  // namespace detail

/// Lazy child coroutine: starts when awaited, resumes the awaiter when done.
template <typename T = void>
class [[nodiscard]] CoTask {
 public:
  struct promise_type : detail::CoPromiseBase {
    // Storage only meaningful for non-void T; harmless otherwise.
    T value{};

    CoTask get_return_object() {
      return CoTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { value = std::move(v); }
  };

  CoTask(CoTask&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  CoTask(const CoTask&) = delete;
  CoTask& operator=(const CoTask&) = delete;
  CoTask& operator=(CoTask&&) = delete;
  ~CoTask() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;  // symmetric transfer into the child
  }
  T await_resume() {
    if (handle_.promise().exception)
      std::rethrow_exception(handle_.promise().exception);
    return std::move(handle_.promise().value);
  }

  /// Gives up the unstarted frame (when_all takes it over).
  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, nullptr);
  }

 private:
  explicit CoTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
  std::coroutine_handle<promise_type> handle_;
};

/// Void specialization of CoTask.
template <>
class [[nodiscard]] CoTask<void> {
 public:
  struct promise_type : detail::CoPromiseBase {
    CoTask get_return_object() {
      return CoTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() noexcept {}
  };

  CoTask(CoTask&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  CoTask(const CoTask&) = delete;
  CoTask& operator=(const CoTask&) = delete;
  CoTask& operator=(CoTask&&) = delete;
  ~CoTask() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  void await_resume() {
    if (handle_.promise().exception)
      std::rethrow_exception(handle_.promise().exception);
  }

  /// Gives up the unstarted frame (when_all takes it over).
  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, nullptr);
  }

 private:
  explicit CoTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace columbia::sim
