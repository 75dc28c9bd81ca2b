#pragma once
/// \file eval.hpp
/// The registry-backed EvalFn: core::Evaluator.
///
/// Split from service.{hpp,cpp} so the queue/cache/coalescing machinery
/// stays registry-free (the sanitizer test variants compile it with a
/// stub evaluator); only binaries that actually serve the registry link
/// this translation unit and its col_core dependency.

#include <string>
#include <vector>

#include "simserve/service.hpp"

namespace columbia::simserve {

/// An EvalFn over the experiment registry: every spec runs through
/// core::Evaluator. It takes no lock: each run arms its own
/// sim::RunContext, so any mix of specs evaluates concurrently.
EvalFn registry_eval();

/// Registry experiment ids, for the protocol's "list" op.
std::vector<std::string> registry_ids();

}  // namespace columbia::simserve
