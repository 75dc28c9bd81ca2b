#pragma once
/// \file join.hpp
/// Structured fork/join for child coroutines: `when_all` runs a batch of
/// CoTasks concurrently and completes when every child has finished. Each
/// child starts from its own engine event at now(), and its frame is
/// freed right after the event it finishes in. Needed wherever MPI
/// semantics require genuine concurrency inside one rank, e.g. sendrecv
/// with rendezvous on both sides.

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/trigger.hpp"

namespace columbia::sim {

namespace detail {

struct JoinState {
  JoinState(Engine& e, int n) : engine(&e), remaining(n), done(e) {}
  Engine* engine;
  int remaining;
  Trigger done;
};

/// One child of a join. It owns the child's frame until the child
/// finishes; a child still suspended when the join's frame is destroyed
/// (engine teardown after a failed run) is destroyed with it.
class JoinChild {
 public:
  JoinChild() = default;
  JoinChild(const JoinChild&) = delete;
  JoinChild& operator=(const JoinChild&) = delete;
  ~JoinChild() {
    if (frame_) frame_.destroy();
  }

  /// Schedules `task` to start at now().
  template <typename T>
  void launch(JoinState& join, CoTask<T> task) {
    auto h = task.release();
    h.promise().on_finish = {&JoinChild::finished, this};
    join_ = &join;
    frame_ = h;
    join.engine->schedule_at(join.engine->now(), h);
  }

 private:
  /// The child's final suspend: its frame goes after this event, and an
  /// escaped exception surfaces from Engine::run, as a failed MPI
  /// operation would abort the job.
  static void finished(void* self, std::exception_ptr error) {
    auto& child = *static_cast<JoinChild*>(self);
    JoinState& join = *child.join_;
    join.engine->destroy_after_event(std::exchange(child.frame_, nullptr));
    if (error) {
      join.engine->on_task_exception(error);
      return;
    }
    if (--join.remaining == 0) join.done.fire();
  }

  JoinState* join_ = nullptr;
  std::coroutine_handle<> frame_;
};

}  // namespace detail

/// Runs all tasks concurrently; completes when the last one finishes.
/// Exceptions escaping a child surface from Engine::run (they abort the
/// simulation, as a failed MPI operation would abort the job).
inline CoTask<void> when_all(Engine& engine, std::vector<CoTask<void>> tasks) {
  if (tasks.empty()) co_return;
  detail::JoinState join(engine, static_cast<int>(tasks.size()));
  std::vector<detail::JoinChild> children(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    children[i].launch(join, std::move(tasks[i]));
  }
  co_await join.done.wait();
}

/// Two-task form (sendrecv's); a child's value is discarded.
template <typename A, typename B>
CoTask<void> when_all(Engine& engine, CoTask<A> a, CoTask<B> b) {
  detail::JoinState join(engine, 2);
  detail::JoinChild children[2];
  children[0].launch(join, std::move(a));
  children[1].launch(join, std::move(b));
  co_await join.done.wait();
}

}  // namespace columbia::sim
