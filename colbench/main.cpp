// colbench: one workload of the columbia performance benchmark.
//
//   colbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--setup-only] [--root <checkout>] [--trace-out <file>]
//
// Prints each metric on its own line, then one JSON object as the last
// line: correct/attempted/failed, the metrics with units, their sample
// counts and notes, the first failures, and provenance. colbench/run.py
// builds this binary and turns that line into the benchmark's result.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "common/json.hpp"
#include "workloads.hpp"

#ifndef COLBENCH_BUILD_TYPE
#define COLBENCH_BUILD_TYPE "unknown"
#endif
#ifndef COLBENCH_COMPILER
#define COLBENCH_COMPILER "unknown"
#endif

namespace {

namespace json = columbia::common::json;

int usage(const std::string& error) {
  std::cerr << "colbench: " << error
            << "\nusage: colbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--setup-only] [--root <dir>]"
               " [--trace-out <file>]\nworkloads:";
  for (const auto& w : colbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

/// CPUs this process may run on, as nproc(1) counts them.
int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return !s.empty() && s[0] != '-' && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_main = colbench::Clock::now();
  colbench::RunConfig cfg;
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      cfg.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(flag + " needs a value");
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, n)) {
      cfg.seed = n;
    } else if (flag == "--seconds" && parse_u64(value, n) && n > 0) {
      cfg.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      cfg.trace = value == "1";
    } else if (flag == "--root") {
      cfg.root = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage("bad flag or value: " + flag + " " + value);
    }
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const auto& w : colbench::workload_names()) known |= w == cfg.workload;
  if (!known) return usage("unknown workload " + cfg.workload);

  // Thread budget: the shared pool starts one worker per hardware thread;
  // refuse before starting any if that exceeds the CPUs we may use.
  cfg.nproc = affinity_cpus();
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = colbench::uses_thread_pool(cfg) ? std::max(hw, 1) : 0;
  if (threads > cfg.nproc) {
    std::cerr << "colbench: workload " << cfg.workload << " would start "
              << threads << " pool threads but nproc is " << cfg.nproc
              << "\n";
    return 3;
  }

  std::unique_ptr<colbench::Tracer> tracer;
  if (cfg.trace) tracer = std::make_unique<colbench::Tracer>(t_main);
  colbench::RunResult res;
  try {
    res = colbench::run_workload(cfg, t_main, tracer.get());
  } catch (const std::exception& e) {
    std::cerr << "colbench: " << e.what() << "\n";
    return 1;
  }

  for (const auto& m : res.metrics) {
    if (!std::isfinite(m.value)) res.fail(m.name + " is not finite");
  }

  for (const auto& line : res.log) std::printf("%s\n", line.c_str());
  std::ostringstream metrics, samples, notes;
  for (const auto& m : res.metrics) {
    const std::string sep = metrics.tellp() > 0 ? ", " : "";
    const std::string value =
        std::isfinite(m.value) ? json::number_to_string(m.value) : "null";
    std::printf("metric %-32s %16s %-6s n=%zu%s%s\n", m.name.c_str(),
                value.c_str(), m.unit.c_str(), m.samples,
                m.note.empty() ? "" : "  ", m.note.c_str());
    metrics << sep << json::quote(m.name) << ": {\"value\": " << value
            << ", \"unit\": " << json::quote(m.unit) << "}";
    samples << sep << json::quote(m.name) << ": " << m.samples;
    if (!m.note.empty()) {
      notes << (notes.tellp() > 0 ? ", " : "") << json::quote(m.name) << ": "
            << json::quote(m.note);
    }
  }
  for (const auto& f : res.failures) std::printf("FAILED %s\n", f.c_str());

  if (tracer) {
    for (const auto& s : tracer->summarize()) {
      std::printf("span %-36s n=%-7zu total=%.6f s self=%.6f s\n",
                  s.name.c_str(), s.count, s.total_s, s.self_s);
    }
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      out << tracer->to_json();
      if (!out) {
        std::cerr << "colbench: cannot write " << trace_out << "\n";
        return 1;
      }
    }
  }

  std::ostringstream failures;
  for (const auto& f : res.failures) {
    failures << (failures.tellp() > 0 ? ", " : "") << json::quote(f);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}, \"samples\": {%s}, \"notes\": {%s}, "
      "\"failures\": [%s], \"provenance\": {\"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %s, \"nproc\": %d, "
      "\"hardware_concurrency\": %d, \"compiler\": %s, \"build_type\": %s}}\n",
      res.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.failed), metrics.str().c_str(),
      samples.str().c_str(), notes.str().c_str(), failures.str().c_str(),
      json::quote(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed),
      json::number_to_string(cfg.seconds).c_str(),
      cfg.trace ? "true" : "false", cfg.nproc, hw,
      json::quote(COLBENCH_COMPILER).c_str(),
      json::quote(COLBENCH_BUILD_TYPE).c_str());
  return 0;
}
