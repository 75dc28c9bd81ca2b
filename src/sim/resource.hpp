#pragma once
/// \file resource.hpp
/// Contended shared resource (counting semaphore with FIFO queueing).
///
/// This is how the machine model expresses *contention*: a memory bus, an
/// InfiniBand card, a NUMAlink spine pool are Resources; a transfer acquires
/// units for its duration, so concurrent users serialize exactly where the
/// hardware would. FIFO ordering with no overtaking keeps timelines
/// deterministic and prevents starvation of large requests.

#include <coroutine>
#include <cstdint>
#include <deque>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace columbia::sim {

class Resource {
 public:
  Resource(Engine& engine, std::int64_t capacity);

  std::int64_t capacity() const { return capacity_; }
  std::int64_t available() const { return available_; }
  std::size_t queue_length() const { return waiters_.size(); }

  /// Awaitable acquisition of `n` units (n <= capacity). Grants immediately
  /// (no suspension) when units are free and nobody is queued ahead.
  auto acquire(std::int64_t n = 1) {
    struct Awaiter {
      Resource& res;
      std::int64_t n;
      bool await_ready() noexcept { return res.try_take(n); }
      void await_suspend(std::coroutine_handle<> h) {
        res.waiters_.push_back(Waiter{n, Callback::resume(h)});
      }
      void await_resume() const noexcept {}
    };
    check_request(n);
    return Awaiter{*this, n};
  }

  /// Callback form of acquire(n): takes the units and returns true when
  /// they are free and nobody is queued ahead; otherwise queues `granted`
  /// behind every earlier waiter, coroutine or callback, and returns
  /// false. An event then runs `granted` once the units are taken for it.
  bool acquire(std::int64_t n, Callback granted) {
    check_request(n);
    if (try_take(n)) return true;
    waiters_.push_back(Waiter{n, granted});
    return false;
  }

  /// Returns `n` units and wakes eligible waiters (FIFO, no overtaking).
  void release(std::int64_t n = 1);

  /// Convenience: hold `n` units for `duration` simulated seconds.
  CoTask<void> use_for(Time duration, std::int64_t n = 1);

 private:
  struct Waiter {
    std::int64_t n;
    Callback granted;
  };

  void check_request(std::int64_t n) const;
  void take(std::int64_t n);
  /// Takes `n` units if they are free and nobody is queued ahead.
  bool try_take(std::int64_t n) {
    if (!waiters_.empty() || available_ < n) return false;
    take(n);
    return true;
  }
  void grant_waiters();

  Engine* engine_;
  std::int64_t capacity_;
  std::int64_t available_;
  std::deque<Waiter> waiters_;
};

}  // namespace columbia::sim
