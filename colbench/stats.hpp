#pragma once
/// \file stats.hpp
/// Order statistics as the benchmark reports them: a median, and the
/// highest percentile that still has enough samples beyond it to mean
/// something.

#include <cstddef>
#include <vector>

namespace colbench {

/// Samples that must lie beyond a tail percentile for it to be reported.
inline constexpr std::size_t kMinBeyond = 10;

/// A tail figure with its provenance: which percentile it is and how many
/// samples lie beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< 99 for p99; 50 when it is the median
  std::size_t beyond = 0;   ///< samples ranked above `value`
  std::size_t samples = 0;
};

/// Median (mean of the two middle samples for an even count); 0 when empty.
double median(std::vector<double> xs);

/// Nearest-rank p99 when at least kMinBeyond samples lie beyond it.
/// Otherwise the highest nearest-rank percentile that has kMinBeyond
/// samples beyond it. With 2 * kMinBeyond samples or fewer that percentile
/// is at or below the median, so the median is returned (percentile 50)
/// rather than the maximum, which a single disturbed sample would set.
Tail tail(std::vector<double> xs);

}  // namespace colbench
