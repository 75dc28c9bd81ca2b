#pragma once
/// \file run_options.hpp
/// The shared command-line surface of the columbia binaries.
///
/// `RunOptionsParser` is the one argv parser behind run_experiment,
/// bench_all, simserve and simlint. One table in run_options.cpp
/// holds the shared flags; each binary names the ones it acts on, adds
/// its own (`add_flag`), and gets `--help` generated from the result.
/// A flag the binary did not name is unknown there, and unknown flags or
/// malformed values are hard errors, so no binary accepts a flag it
/// would ignore.
///
/// The parser is a thin adapter over ScenarioSpec: every scenario-
/// affecting shared flag (--check, --profile, --faults, --transport)
/// writes straight into `RunOptions::spec`, the same value type
/// `ScenarioSpec::from_json` fills from a simserve request, so the CLI
/// and the wire format cannot drift. Binary-level concerns that never
/// affect result bytes (--list/--filter/--jobs/--out, positionals) stay
/// on RunOptions itself.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "core/spec.hpp"

namespace columbia::core {

/// Parsed shared flags. Binary-specific flags land in the closures the
/// binary registered instead.
struct RunOptions {
  /// The shared scenario surface: check/profile/faults/transport land
  /// here (spec.experiment stays empty — the binary fills it per selected
  /// id via spec_for()).
  ScenarioSpec spec;

  Exec exec;                  ///< --jobs N selects a parallel sweep
  bool list = false;          ///< --list
  bool help = false;          ///< --help (help text already printed)
  std::string out;            ///< --out <path>
  std::vector<std::string> filters;  ///< --filter <substr>, repeatable
  std::vector<std::string> ids;      ///< positional arguments, argv order

  /// The parsed shared surface bound to one registry experiment: a copy
  /// of `spec` with `experiment = id`, ready for core::Evaluator.
  ScenarioSpec spec_for(const std::string& id) const {
    ScenarioSpec s = spec;
    s.experiment = id;
    return s;
  }

  /// True when `id` passes the --filter set (substring, any-of; an empty
  /// set passes everything).
  bool matches_filter(const std::string& id) const;
};

/// Parses "seed:intensity" (intensity in [0, 1]). Returns false with a
/// message in `error` on malformed input.
bool parse_fault_arg(const std::string& arg, std::uint64_t& seed,
                     double& intensity, std::string& error);

/// Parses the whole of `arg` as a positive int ("3x", "2.5" and "0" are
/// rejected). Returns false with "<flag> expects a positive integer, got
/// '<arg>'" in `error`.
bool parse_positive_int(const std::string& flag, const std::string& arg,
                        int& out, std::string& error);

class RunOptionsParser {
 public:
  /// `usage_tail` follows the program name in the usage line, e.g.
  /// "[options] [experiment-id...]". `shared` names the shared flags the
  /// binary acts on, from --list --filter --jobs --out --check --profile
  /// --faults --transport; naming any other is a contract error. --help
  /// is always accepted.
  RunOptionsParser(std::string program, std::string usage_tail,
                   std::initializer_list<std::string_view> shared = {});

  /// Registers a binary-specific flag after the shared ones. Empty
  /// `value_name` = boolean flag (handler receives ""). The handler
  /// returns false (after filling `error`) to reject the value.
  void add_flag(std::string name, std::string value_name, std::string help,
                std::function<bool(const std::string& value,
                                   std::string& error)> handler);

  /// Allows positional arguments (collected into RunOptions::ids);
  /// without this call a positional argument is a hard error.
  void allow_positional();

  /// Parses argv into `opts`. On --help, prints help() to stdout, sets
  /// opts.help and returns true. Unknown flags, missing values, malformed
  /// values, and unexpected positionals return false with a message on
  /// stderr.
  bool parse(int argc, const char* const* argv, RunOptions& opts) const;

  /// Generated usage text: the named shared flags, the binary's own, then
  /// --help.
  std::string help() const;

 private:
  struct Flag {
    std::string name;
    std::string value_name;  // empty = boolean
    std::string help;
    std::function<bool(const std::string& value, RunOptions& opts,
                       std::string& error)>
        apply;
  };

  std::string program_;
  std::string usage_tail_;
  std::vector<Flag> flags_;
  bool allow_positional_ = false;
};

}  // namespace columbia::core
