#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace colbench {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Tail tail(std::vector<double> xs) {
  Tail t;
  t.samples = xs.size();
  if (xs.empty()) return t;
  const std::size_t n = xs.size();
  if (n <= 2 * kMinBeyond) {
    t.percentile = 50.0;
    t.value = median(xs);
    t.beyond = n / 2;
    return t;
  }
  std::sort(xs.begin(), xs.end());
  // Nearest rank of p99: the ceil(0.99 n)-th smallest sample.
  const auto rank99 = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(n)));
  std::size_t rank = 0;  // 1-based rank of the reported sample
  if (n - rank99 >= kMinBeyond) {
    rank = rank99;
    t.percentile = 99.0;
  } else {
    rank = n - kMinBeyond;
    t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  }
  t.value = xs[rank - 1];
  t.beyond = n - rank;
  return t;
}

}  // namespace colbench
