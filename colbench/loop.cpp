#include "loop.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <stdexcept>

namespace colbench {

ClosedLoop::ClosedLoop(int window) {
  if (window < 1) throw std::invalid_argument("closed loop needs window >= 1");
  window_ = static_cast<std::size_t>(window);
}

ClosedLoop::Result ClosedLoop::run(
    const Send& send, const std::function<bool(std::size_t)>& more) const {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = 0;
  Result r;
  const auto t0 = Clock::now();
  Clock::time_point last_done = t0;
  while (more(r.sent)) {
    {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return outstanding < window_; });
      ++outstanding;
      r.max_outstanding = std::max(r.max_outstanding, outstanding);
    }
    send(r.sent++, [&] {
      std::lock_guard lock(mu);
      last_done = Clock::now();
      --outstanding;
      cv.notify_all();
    });
  }
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return outstanding == 0; });
  r.wall_s = std::chrono::duration<double>(last_done - t0).count();
  return r;
}

}  // namespace colbench
