#include "gate.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace colbench {

std::string artifact_file_name(const std::string& id, int index,
                               const std::string& title) {
  std::string slug = title;
  for (char& c : slug) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return id + "_" + std::to_string(index) + "_" + slug.substr(0, 60) + ".csv";
}

CsvGate::CsvGate(const std::filesystem::path& dir, std::string id)
    : id_(std::move(id)) {
  const std::string prefix = id_ + "_";
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    // "<id>_<digit>..." so that "ext-io" does not claim "ext-io-overlap_".
    if (name.size() <= prefix.size() + 4 || name.rfind(prefix, 0) != 0 ||
        !std::isdigit(static_cast<unsigned char>(name[prefix.size()])) ||
        entry.path().extension() != ".csv") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    expected_.emplace(name, bytes.str());
  }
  if (ec || expected_.empty()) {
    throw std::runtime_error("no committed CSV for " + id_ + " under " +
                             dir.string());
  }
}

std::size_t CsvGate::mismatches(const columbia::core::Report& report,
                                std::string* first_diff) const {
  std::vector<std::pair<std::string, std::string>> produced;
  int index = 0;
  for (const auto& t : report.tables) {
    produced.emplace_back(artifact_file_name(id_, index++, t.title()), t.csv());
  }
  for (const auto& f : report.figures) {
    produced.emplace_back(artifact_file_name(id_, index++, f.title()), f.csv());
  }
  std::size_t bad = 0;
  auto note = [&](const std::string& name) {
    if (bad++ == 0 && first_diff != nullptr) *first_diff = name;
  };
  std::size_t matched_names = 0;
  for (const auto& [name, csv] : produced) {
    const auto it = expected_.find(name);
    if (it == expected_.end()) {
      note(name);
      continue;
    }
    ++matched_names;
    if (it->second != csv) note(name);
  }
  for (std::size_t i = matched_names; i < expected_.size(); ++i) {
    note("(missing artifact of " + id_ + ")");
  }
  return bad;
}

}  // namespace colbench
