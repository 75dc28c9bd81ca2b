#pragma once
/// \file gate.hpp
/// Correctness gate for regenerated experiments: every table and figure
/// of a Report must equal, byte for byte, the CSV the repository commits
/// under bench_results/ (named as the per-experiment bench binaries name
/// them). The gate only reads that directory.

#include <cstddef>
#include <filesystem>
#include <map>
#include <string>

#include "core/figures.hpp"

namespace colbench {

/// `<id>_<index>_<title slug>.csv`: the file name the bench binaries give
/// the index-th artifact (tables first, then figures) of experiment `id`.
std::string artifact_file_name(const std::string& id, int index,
                               const std::string& title);

class CsvGate {
 public:
  /// Loads every committed CSV of experiment `id` from `dir`. Throws
  /// std::runtime_error when the directory holds none.
  CsvGate(const std::filesystem::path& dir, std::string id);

  /// Number of artifacts that differ from the committed files: a table or
  /// figure whose csv() differs or has no committed file, plus every
  /// committed file the report did not produce. `first_diff` (optional)
  /// receives the name of the first offending file.
  std::size_t mismatches(const columbia::core::Report& report,
                         std::string* first_diff = nullptr) const;

  std::size_t committed_files() const { return expected_.size(); }

 private:
  std::string id_;
  std::map<std::string, std::string> expected_;  ///< file name -> bytes
};

}  // namespace colbench
