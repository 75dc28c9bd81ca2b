#pragma once
/// \file spec.hpp
/// `ScenarioSpec` — the one value type that names a scenario evaluation.
///
/// Everything that can change the *bytes* of an experiment's report (or
/// the analyzer artifacts riding along) lives here: the registry
/// experiment id, the network transport, the analyzer toggles
/// (check/profile), the fault spec, the race-exploration options, and a
/// free-form client label. Execution policy (sequential vs host-parallel,
/// job counts) is deliberately *not* part of the spec: reports are
/// byte-identical across Exec policies, so the spec is exactly a cache
/// key and the Exec is exactly a scheduling decision (see
/// core::Evaluator / simserve).
///
/// The spec is the single schema source for every front end:
///  * `RunOptionsParser` fills one from argv (the shared
///    --check/--profile/--faults/--transport/--race flags write straight
///    into `RunOptions::spec`), and
///  * `from_json` fills one from a simserve request,
/// so CLI flags and wire requests cannot drift. `from_json` hard-errors
/// on unknown keys, exactly as the parser hard-errors on unknown flags.
///
/// `canonical_json()` is the fully-elaborated fixed-order rendering
/// (every field present, defaults explicit, shortest-round-trip numbers);
/// `hash()` is common::fnv1a64 over those bytes. Same spec => same hash
/// across processes and platforms, which is what simserve's result cache
/// and the golden-hash tests key on.

#include <cstdint>
#include <string>

namespace columbia::core {

struct ScenarioSpec {
  /// Registry experiment id ("table2", "fig5", "ext-btio", ...). The one
  /// required field; resolution against the registry happens at
  /// evaluation time, not parse time.
  std::string experiment;

  /// Free-form client partition key. Evaluation ignores it, but it
  /// participates in the canonical form and hash, so clients can
  /// namespace otherwise-identical specs into distinct cache entries.
  std::string label;

  /// Network backend, "event" or "flow" (validated by from_json and the
  /// --transport flag; Evaluator re-validates before running).
  std::string transport = "event";

  bool check = false;    ///< simcheck communication-correctness analyzer
  bool profile = false;  ///< simprof critical-path profiler

  bool faults = false;  ///< seeded fault injection
  std::uint64_t fault_seed = 0;
  double fault_intensity = 0.0;  ///< in [0, 1]

  bool race_explore = false;  ///< simrace wildcard-ordering exploration
  int max_execs = 64;         ///< exploration budget (race_explore only)

  bool operator==(const ScenarioSpec& other) const = default;

  /// Fully-elaborated canonical rendering: fixed key order, every field
  /// present, compact (no whitespace), numbers via
  /// common::json::number_to_string. This is the hash input.
  std::string canonical_json() const;

  /// FNV-1a 64 over canonical_json(); hash_hex() is its 16-digit lowercase
  /// hex form (the wire and log format).
  std::uint64_t hash() const;
  std::string hash_hex() const;

  /// Parses a spec from a JSON object. Strict: unknown keys, wrong types,
  /// a missing/empty "experiment", an unknown "transport", an out-of-range
  /// "fault_intensity", or a non-positive "max_execs" are hard errors,
  /// mirroring the CLI parser's unknown-flag policy. Absent optional keys
  /// keep their defaults.
  static bool from_json(const std::string& text, ScenarioSpec& out,
                        std::string& error);
};

}  // namespace columbia::core
