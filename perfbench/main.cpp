// The perfbench binary: benchmark of the measurement system (see perfbench/NOTES.md).
//
//   perfbench --workload kz-full|longit-churn|world-1m --seed N --seconds S
//             --trace 0|1 --workdir DIR [--spans FILE]
//
// Prints a human summary on standard error and, as the last line of
// standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit 0 when a result was printed, 2 on bad arguments, 1 when the run
// itself could not complete.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload kz-full|longit-churn|world-1m "
               "--seed N --seconds S --trace 0|1 --workdir DIR [--spans FILE]\n",
               why);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  out = v;
  return true;
}

void print_result(const perfbench::RunResult& r) {
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : r.metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: %s is not finite; reported as 0\n", m.name.c_str());
      v = 0.0;
    }
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
    std::fprintf(stderr, "  %-34s %16.6f %s\n", m.name.c_str(), v, m.unit.c_str());
    first = false;
  }
  json += "}}";
  std::fprintf(stderr, "  attempted %llu, failed %llu, correct %s\n",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed), r.correct ? "yes" : "NO");
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, config.seed)) return usage("--seed needs a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n < 1 || n > 600) return usage("--seconds needs 1..600");
      config.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_u64(value, n) || n > 1) return usage("--trace needs 0 or 1");
      config.trace = n == 1;
      have_trace = true;
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace || config.workdir.empty()) {
    return usage("--workload, --seed, --seconds, --trace and --workdir are required");
  }
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) known = known || w == config.workload;
  if (!known) return usage(("unknown workload " + config.workload).c_str());

  try {
    std::fprintf(stderr, "perfbench: %s seed %llu, %.0f s, trace %d\n", config.workload.c_str(),
                 static_cast<unsigned long long>(config.seed), config.seconds,
                 config.trace ? 1 : 0);
    print_result(perfbench::run_workload(config));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
