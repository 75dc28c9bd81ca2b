#pragma once
/// \file trigger.hpp
/// One-shot broadcast event: any number of coroutines may `co_await
/// trigger.wait()`; a later `fire()` resumes them all at the current
/// simulated time. Used for message-arrival notification and rendezvous
/// handshakes in the simulated MPI layer.

#include <coroutine>
#include <vector>

#include "sim/engine.hpp"

namespace columbia::sim {

class Trigger {
 public:
  explicit Trigger(Engine& engine) : engine_(&engine) {}

  bool fired() const { return fired_; }

  /// Fires the trigger at the current simulated time; all present and
  /// future waiters resume immediately. Idempotent.
  void fire();

  /// Awaitable; no suspension if already fired.
  auto wait() {
    struct Awaiter {
      Trigger& trigger;
      bool await_ready() const noexcept { return trigger.fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        if (!trigger.first_) {
          trigger.first_ = h;
        } else {
          trigger.later_.push_back(h);
        }
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine* engine_;
  bool fired_ = false;
  // Waiters in wait order: almost every trigger has exactly one, so it
  // lives inline and the vector (which allocates) only holds the rest.
  std::coroutine_handle<> first_;
  std::vector<std::coroutine_handle<>> later_;
};

}  // namespace columbia::sim
