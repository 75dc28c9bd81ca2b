#pragma once
/// \file loop.hpp
/// Closed-loop request generator. The calling thread sends requests and
/// keeps at most `window` of them outstanding: the next request goes out
/// only when one completes, as simserve's NDJSON clients behave (each
/// waits for its reply). A slow system therefore receives less load.

#include <chrono>
#include <cstddef>
#include <functional>

namespace colbench {

class ClosedLoop {
 public:
  using Clock = std::chrono::steady_clock;
  /// Completion signal of one request; call exactly once, from any thread,
  /// before or after Send returns.
  using Done = std::function<void()>;
  /// Starts request `index` (0, 1, 2, ... in sending order).
  using Send = std::function<void(std::size_t index, Done done)>;

  struct Result {
    std::size_t sent = 0;
    double wall_s = 0.0;  ///< first send to last completion
    std::size_t max_outstanding = 0;
  };

  explicit ClosedLoop(int window);

  /// Sends requests while `more(sent_so_far)` is true, then waits for
  /// every outstanding request.
  Result run(const Send& send,
             const std::function<bool(std::size_t)>& more) const;

 private:
  std::size_t window_;
};

}  // namespace colbench
