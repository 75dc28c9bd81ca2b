#pragma once
/// \file trace.hpp
/// In-memory spans recorded by the benchmark around each call it makes
/// into a layer (a regeneration pass and its run_exec, a simserve request
/// and its evaluation, a probe and its engine run). Nothing inside the
/// program is instrumented: spans start and end at the benchmark's own
/// call sites. Written out once, when the run ends.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace colbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;            ///< index of the enclosing span, -1 at top
    std::int64_t request = -1;  ///< serve-mix request id, -1 otherwise
  };

  /// Per span name: how many, their total length, and their self time
  /// (length minus the part of it that child spans cover).
  struct Summary {
    std::string name;
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span starting now; close it with end().
  int begin(std::string name, int parent = -1, std::int64_t request = -1);
  void end(int id);
  /// Records a finished span.
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent = -1, std::int64_t request = -1);

  std::vector<Summary> summarize() const;

  /// Spans and summary as one JSON document; times in seconds since the
  /// origin given at construction.
  std::string to_json() const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: begin() on construction, end() on destruction. A null
/// tracer makes it a no-op, which is how untraced runs call the same code.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, std::string name, int parent = -1,
            std::int64_t request = -1)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(std::move(name), parent, request) : -1) {}
  ~SpanGuard() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace colbench
