#pragma once
/// \file time.hpp
/// Simulated time. Seconds as double; events at equal times run in the
/// order they were scheduled, so every run of a given seed produces an
/// identical timeline.

namespace columbia::sim {

using Time = double;

inline constexpr Time kTimeZero = 0.0;

}  // namespace columbia::sim
