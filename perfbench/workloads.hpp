// The benchmark's three workloads and the harness that times them.
//
//   kz-full       scenario::run_country_pipeline on the full KZ scenario
//   longit-churn  longit::run over all four small countries, 12 epochs
//   world-1m      campaign::run on the generated 1m-tier world
//
// An end-to-end run (trace = false) builds the inputs, runs one 1-worker
// reference pass, then repeats 2-worker passes for the configured seconds
// and checks each pass's output digest against the reference. A traced
// run does the same with half of its passes observed, counts heap
// allocations during the reference pass, and then sweeps each layer's
// public functions on the workload's own inputs. See perfbench/NOTES.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for cache files (created by the caller).
  std::string workdir;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Names accepted by run_workload().
const std::vector<std::string>& workload_names();

/// Run one workload. Throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunConfig& config);

}  // namespace perfbench
