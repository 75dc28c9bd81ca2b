#pragma once
/// \file workloads.hpp
/// The benchmark's workloads. Each runs in its own process:
///  * overflow-rotor  table3 regenerated sequentially, pass after pass;
///  * columbia-full   ext-columbia-full regenerated sequentially;
///  * serve-mix       a closed loop of nproc outstanding requests on an
///                    in-process simserve::Service.
/// An untraced run reports the end-to-end metrics; a traced run reports
/// the per-layer metrics (see METRICS.md for what each one targets).

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "trace.hpp"

namespace colbench {

using Clock = std::chrono::steady_clock;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< measurements behind the value
  std::string note;         ///< e.g. which percentile a tail figure is
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;            ///< stop after set-up, report setup_s
  std::filesystem::path root = ".";  ///< checkout holding bench_results/
  int nproc = 1;
};

struct RunResult {
  std::uint64_t attempted = 0;  ///< operations put through the gate
  std::uint64_t failed = 0;     ///< operations that failed it
  std::vector<std::string> failures;  ///< the first few reasons
  std::vector<Metric> metrics;
  std::vector<std::string> log;  ///< per-operation lines for the reader

  void fail(std::string why);
  void add(std::string name, double value, std::string unit,
           std::size_t samples, std::string note = {});
};

const std::vector<std::string>& workload_names();

/// True when the workload's run uses the shared host thread pool, which
/// starts std::thread::hardware_concurrency() workers.
bool uses_thread_pool(const RunConfig& cfg);

/// Runs one workload. `t_main` is when main() was entered: set-up is
/// measured from there to the first timed operation.
RunResult run_workload(const RunConfig& cfg, Clock::time_point t_main,
                       Tracer* tracer);

}  // namespace colbench
