// cencheck — the deterministic self-check harness: differential fuzzing
// and invariant checking of the codebase against itself.
//
//   cencheck [--all | --engine NAME[,NAME...]] [--iterations N] [--seed N]
//            [--threads N] [--budget N] [--no-minimize] [--json]
//            [--out FILE]
//
// Engines: roundtrip, invariant, cache-replay, ml-oracle (plus the hidden
// self-test engine used by the test suite). Every failure prints a
// one-line `cencheck --engine E --seed N` command that replays exactly
// that case; --threads changes wall time only, never output.
//
// Exit codes: 0 all checks passed, 1 failures found, 2 usage error.
#include "check/check.hpp"
#include "cli_common.hpp"
#include "core/strings.hpp"

using namespace cen;

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  if (args.has("help")) {
    std::printf(
        "usage: cencheck [--all | --engine NAME[,NAME...]] [--iterations N]\n"
        "                [--seed N] [--threads N] [--budget N] [--no-minimize]\n"
        "                [--json] [--out FILE]\n"
        "\n"
        "engines: roundtrip, invariant, cache-replay, ml-oracle\n"
        "  --all           run every engine (default when --engine is absent)\n"
        "  --iterations N  round-trip case count; other engines scale from it\n"
        "  --seed N        base case seed (failures replay from their own seed)\n"
        "  --threads N     workers: -1 hardware, 0 inline (default), N pool;\n"
        "                  output-invariant\n"
        "  --budget N      mutations per mutational sub-check\n"
        "  --no-minimize   skip shrinking failure budgets\n"
        "  --json          emit the JSON report instead of the summary\n"
        "  --out FILE      also write the JSON report to FILE\n");
    return cli::kExitOk;
  }

  check::CheckOptions options;
  if (args.has("engine")) {
    for (const std::string& name : split(args.get("engine"), ',')) {
      const auto engine = check::engine_from_name(name);
      if (!engine.has_value()) {
        std::fprintf(stderr, "unknown engine '%s'\n", name.c_str());
        return cli::kExitUsage;
      }
      options.engines.push_back(*engine);
    }
  }
  const long long iterations = args.get_int("iterations", 1000);
  const long long seed = args.get_int("seed", 1);
  const long long budget = args.get_int("budget", 8);
  options.threads = static_cast<int>(args.get_int("threads", 0));
  if (iterations < 1 || budget < 1 || options.threads < -1) {
    std::fprintf(stderr, "--iterations and --budget must be >= 1, --threads >= -1\n");
    return cli::kExitUsage;
  }
  options.iterations = static_cast<std::uint64_t>(iterations);
  options.seed = static_cast<std::uint64_t>(seed);
  options.mutation_budget = static_cast<int>(budget);
  options.minimize = !args.has("no-minimize");

  const check::CheckReport report = check::run_checks(options);

  if (args.has("out") && !cli::write_file(args.get("out"), report.to_json())) {
    std::fprintf(stderr, "cannot write %s\n", args.get("out").c_str());
    return cli::kExitRuntime;
  }
  if (args.has("json")) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::fputs(report.summary().c_str(), stdout);
  }
  return report.ok() ? cli::kExitOk : cli::kExitRuntime;
}
