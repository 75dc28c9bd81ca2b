#include "core/run_options.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/check.hpp"

namespace columbia::core {

bool RunOptions::matches_filter(const std::string& id) const {
  if (filters.empty()) return true;
  for (const auto& f : filters) {
    if (id.find(f) != std::string::npos) return true;
  }
  return false;
}

bool parse_fault_arg(const std::string& arg, std::uint64_t& seed,
                     double& intensity, std::string& error) {
  const std::size_t colon = arg.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= arg.size()) {
    error = "--faults expects <seed:intensity>, got '" + arg + "'";
    return false;
  }
  const std::string seed_str = arg.substr(0, colon);
  const std::string intensity_str = arg.substr(colon + 1);
  errno = 0;
  char* end = nullptr;
  const unsigned long long s = std::strtoull(seed_str.c_str(), &end, 10);
  if (errno != 0 || end == seed_str.c_str() || *end != '\0') {
    error = "--faults seed '" + seed_str + "' is not an unsigned integer";
    return false;
  }
  errno = 0;
  end = nullptr;
  const double i = std::strtod(intensity_str.c_str(), &end);
  if (errno != 0 || end == intensity_str.c_str() || *end != '\0') {
    error = "--faults intensity '" + intensity_str + "' is not a number";
    return false;
  }
  if (!(i >= 0.0 && i <= 1.0)) {
    error = "--faults intensity must be in [0, 1], got '" + intensity_str +
            "'";
    return false;
  }
  seed = s;
  intensity = i;
  return true;
}

bool parse_positive_int(const std::string& flag, const std::string& arg,
                        int& out, std::string& error) {
  errno = 0;
  char* end = nullptr;
  const long n = std::strtol(arg.c_str(), &end, 10);
  if (errno != 0 || end == arg.c_str() || *end != '\0' || n <= 0 ||
      n > INT_MAX) {
    error = flag + " expects a positive integer, got '" + arg + "'";
    return false;
  }
  out = static_cast<int>(n);
  return true;
}

RunOptionsParser::RunOptionsParser(
    std::string program, std::string usage_tail,
    std::initializer_list<std::string_view> shared)
    : program_(std::move(program)), usage_tail_(std::move(usage_tail)) {
  // The shared flags. The scenario flags write into RunOptions::spec, the
  // same ScenarioSpec the simserve JSON schema fills.
  static const std::vector<Flag> kShared = {
      {"--list", "", "list registry experiments and exit",
       [](const std::string&, RunOptions& o, std::string&) {
         o.list = true;
         return true;
       }},
      {"--filter", "<substr>",
       "keep experiments whose id contains <substr> (repeatable, any-of)",
       [](const std::string& v, RunOptions& o, std::string&) {
         o.filters.push_back(v);
         return true;
       }},
      {"--jobs", "<n>", "run scenario sweeps on <n> host threads",
       [](const std::string& v, RunOptions& o, std::string& err) {
         int n = 0;
         if (!parse_positive_int("--jobs", v, n, err)) return false;
         o.exec = Exec::parallel(n);
         return true;
       }},
      {"--out", "<path>", "write outputs under <path>",
       [](const std::string& v, RunOptions& o, std::string&) {
         o.out = v;
         return true;
       }},
      {"--check", "", "run with the simcheck MPI correctness analyzer",
       [](const std::string&, RunOptions& o, std::string&) {
         o.spec.check = true;
         return true;
       }},
      {"--profile", "", "run with the simprof critical-path profiler",
       [](const std::string&, RunOptions& o, std::string&) {
         o.spec.profile = true;
         return true;
       }},
      {"--faults", "<seed:intensity>",
       "inject seeded faults (intensity in [0,1]; 0 = clean run)",
       [](const std::string& v, RunOptions& o, std::string& err) {
         if (!parse_fault_arg(v, o.spec.fault_seed, o.spec.fault_intensity,
                              err)) {
           return false;
         }
         o.spec.faults = true;
         return true;
       }},
      {"--transport", "<event|flow>",
       "network backend: per-hop event queueing or fluid flow solver",
       [](const std::string& v, RunOptions& o, std::string& err) {
         if (v != "event" && v != "flow") {
           err = "--transport expects 'event' or 'flow', got '" + v + "'";
           return false;
         }
         o.spec.transport = v;
         return true;
       }},
  };
  for (const std::string_view name : shared) {
    const auto it =
        std::find_if(kShared.begin(), kShared.end(),
                     [name](const Flag& f) { return f.name == name; });
    COL_REQUIRE(it != kShared.end(),
                "not a shared flag: " + std::string(name));
    flags_.push_back(*it);
  }
}

void RunOptionsParser::add_flag(
    std::string name, std::string value_name, std::string help,
    std::function<bool(const std::string&, std::string&)> handler) {
  flags_.push_back(
      {std::move(name), std::move(value_name), std::move(help),
       [handler = std::move(handler)](const std::string& v, RunOptions&,
                                      std::string& err) {
         return handler(v, err);
       }});
}

void RunOptionsParser::allow_positional() { allow_positional_ = true; }

bool RunOptionsParser::parse(int argc, const char* const* argv,
                             RunOptions& opts) const {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (!allow_positional_) {
        std::fprintf(stderr, "%s: unexpected argument '%s' (--help for usage)\n",
                     program_.c_str(), arg.c_str());
        return false;
      }
      opts.ids.push_back(arg);
      continue;
    }
    if (arg == "--help") {
      opts.help = true;
      continue;
    }
    const auto flag =
        std::find_if(flags_.begin(), flags_.end(),
                     [&arg](const Flag& f) { return f.name == arg; });
    if (flag == flags_.end()) {
      std::fprintf(stderr, "%s: unknown flag '%s' (--help for usage)\n",
                   program_.c_str(), arg.c_str());
      return false;
    }
    std::string value;
    if (!flag->value_name.empty()) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value %s\n", program_.c_str(),
                     flag->name.c_str(), flag->value_name.c_str());
        return false;
      }
      value = argv[++i];
    }
    std::string error;
    if (!flag->apply(value, opts, error)) {
      std::fprintf(stderr, "%s: %s\n", program_.c_str(), error.c_str());
      return false;
    }
  }
  if (opts.help) {
    std::fputs(help().c_str(), stdout);
  }
  return true;
}

std::string RunOptionsParser::help() const {
  std::vector<std::pair<std::string, std::string>> rows;
  for (const auto& f : flags_) {
    rows.emplace_back(
        f.value_name.empty() ? f.name : f.name + " " + f.value_name, f.help);
  }
  rows.emplace_back("--help", "print this message and exit");
  std::size_t width = 0;
  for (const auto& row : rows) width = std::max(width, row.first.size());
  std::ostringstream os;
  os << "usage: " << program_ << " " << usage_tail_ << "\n\noptions:\n";
  for (const auto& [head, text] : rows) {
    os << "  " << head << std::string(width - head.size() + 2, ' ') << text
       << "\n";
  }
  return os.str();
}

}  // namespace columbia::core
