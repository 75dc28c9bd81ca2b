#pragma once
/// \file transport.hpp
/// The Network's transport-model seam: `event` (the original
/// resource-queueing backend, every serialization hop simulated) or
/// `flow` (a fluid bulk-transfer backend where contention is resolved by
/// a max-min fair bandwidth-sharing solver and a transfer costs a single
/// start/finish event pair).
///
/// Selection is per run: the binaries parse `--transport <event|flow>`
/// through the shared RunOptionsParser into a core::ScenarioSpec, and the
/// run's sim::RunContext carries the model, so the ~30 Network
/// construction sites pick it up through the constructor's default
/// argument without signature churn. Code that *requires* one backend
/// (the full-Columbia experiment is only tractable under flow) passes the
/// model explicitly instead.

#include <string>

namespace columbia::machine {

enum class TransportModel {
  Event,  ///< per-hop resource queueing (exact serialization order)
  Flow,   ///< fluid max-min fair sharing (epoch-solved, event-minimal)
};
// RunContext value-initializes its transport; that must mean Event.
static_assert(TransportModel{} == TransportModel::Event);

const char* to_string(TransportModel model);

/// Parses "event"/"flow". Returns false (with a message in `error`) on
/// anything else — the binaries turn that into a hard usage error.
bool parse_transport(const std::string& name, TransportModel& model,
                     std::string& error);

/// The transport of the RunContext installed on this thread
/// (sim/run_context.hpp), or Event outside any context. Network's and
/// hpcc::Beff's constructors default to it.
TransportModel context_transport();

}  // namespace columbia::machine
