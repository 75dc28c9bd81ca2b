#pragma once
/// \file experiment.hpp
/// The experiment registry: every table and figure of the paper's
/// evaluation section, indexed by id, with the driver that regenerates it.
/// DESIGN.md's per-experiment index and run_experiment's --list are both
/// built from this list, so coverage cannot silently drift. Also the one
/// writer of the files a run leaves behind: report CSVs and, through
/// write_file, the analyzer artifacts and bench summaries.

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/figures.hpp"
#include "core/scenario.hpp"

namespace columbia::core {

struct Experiment {
  std::string id;         ///< e.g. "table2", "fig11", "ablation-grouping"
  std::string paper_ref;  ///< section/figure in the paper
  std::string title;
  /// The single entry point: the driver's scenarios execute under the
  /// given Exec (sequential or host-parallel), with identical output.
  /// Sequential regeneration is run_exec(Exec::sequential()).
  std::function<Report(const Exec&)> run_exec;
};

/// All experiments, in paper order (tables/figures first, ablations last).
const std::vector<Experiment>& experiment_registry();

/// Lookup by id; nullptr if unknown.
const Experiment* find_experiment(const std::string& id);

/// Number of paper artifacts (non-ablation experiments).
int paper_artifact_count();

/// Human-readable registry listing ("id  paper_ref  title" rows), shared
/// by every binary's --list output.
std::string registry_listing();

/// Writes `body` to `path`, replacing any previous file. Returns false
/// with a message naming `path` in `error` when the file cannot be
/// written, e.g. because its parent is missing or is a regular file.
bool write_file(const std::filesystem::path& path, const std::string& body,
                std::string& error);

/// Writes experiment `id`'s report under `dir`, one CSV per table and then
/// per figure, named `<id>_<n>_<slug>.csv`: n counts from 0 over tables
/// then figures, and slug is the title with every non-alphanumeric byte
/// replaced by '_', cut to 60 bytes. These are the names of the committed
/// bench_results/ files. Stops at the first failed write (see write_file).
bool write_report_csvs(const Report& report, const std::string& id,
                       const std::filesystem::path& dir, std::string& error);

}  // namespace columbia::core
