#pragma once
/// \file passes.hpp
/// The effect-pass family: findings derived from the closed effect
/// summaries (effects.hpp).
///
///   cross-rank-shared-mutable  a function that touches a mutable
///                              static/global is reachable from an event
///                              handler (a Task/CoTask or an engine
///                              callback) with no simlint:seam on the path
///   nondet-interprocedural     a wall-clock/entropy source is reachable
///                              from a handler through the call graph
///
/// Findings flow through the same schema, suppressions, and baseline as
/// the token rules.

#include <string>
#include <vector>

#include "simlint/effects.hpp"
#include "simlint/rules.hpp"

namespace columbia::simlint {

/// Runs every effect pass over the finalized index. Findings come back
/// sorted; the driver applies suppressions and the baseline.
std::vector<Finding> run_effect_passes(const EffectIndex& index);

}  // namespace columbia::simlint
