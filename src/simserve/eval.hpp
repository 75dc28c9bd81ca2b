#pragma once
/// \file eval.hpp
/// The registry-backed EvalFn: core::Evaluator plus simrace exploration.
///
/// Split from service.{hpp,cpp} so the queue/cache/coalescing machinery
/// stays registry-free (the sanitizer test variants compile it with a
/// stub evaluator); only binaries that actually serve the registry link
/// this translation unit and its col_core/col_simrace dependencies.

#include <string>
#include <vector>

#include "simserve/service.hpp"

namespace columbia::simserve {

/// An EvalFn over the experiment registry. Every spec runs through
/// core::Evaluator; race_explore specs additionally run the simrace
/// wildcard-ordering exploration on the spec's transport. Neither takes a
/// lock: each run arms its own sim::RunContext, so any mix of specs
/// evaluates concurrently.
EvalFn registry_eval();

/// Registry experiment ids, for the protocol's "list" op.
std::vector<std::string> registry_ids();

}  // namespace columbia::simserve
