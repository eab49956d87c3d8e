// cencampaign — run a declarative, paper-scale measurement campaign with
// the incremental result cache and crash-safe resume.
//
//   cencampaign [--spec FILE] [--countries AZ,KZ] [--seed N]
//               [--max-endpoints N] [--max-domains N] [--fuzz-cap N]
//               [--ambig] [--ambig-cap N] [--ambig-reps N]
//               [--reps N] [--tomography] [--vantages N]
//               [--batch N] [--max-batches N] [--cache FILE]
//               [--out records.jsonl] [--summary summary.json]
//               [common flags: --scale/--threads/--json/--fault-*/...]
//
// The spec file (schema: docs/CAMPAIGN.md) fully describes the campaign;
// every CLI flag below overrides the corresponding spec field. --cache
// names the JSONL result cache: re-running with the same cache executes
// only tasks whose inputs changed, and a run killed mid-campaign (or
// stopped by --max-batches) resumes from the last completed batch with
// byte-identical final output.
//
// Exit codes: 0 complete, 1 I/O failure, 2 usage error, 3 incomplete
// (batch budget exhausted — run again with the same --cache to continue).
#include "campaign/campaign.hpp"
#include "cli_common.hpp"
#include "core/strings.hpp"
#include "worldgen/spec.hpp"

using namespace cen;

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  const cli::CommonOptions common = cli::parse_common(args);
  if (args.has("help")) {
    std::printf(
        "usage: cencampaign [--spec FILE] [--countries AZ,BY,KZ,RU] [--seed N]\n"
        "                   [--world 1k|100k|1m|FILE]\n"
        "                   [--max-endpoints N] [--max-domains N] [--fuzz-cap N]\n"
        "                   [--ambig] [--ambig-cap N] [--ambig-reps N]\n"
        "                   [--reps N] [--tomography] [--vantages N]\n"
        "                   [--batch N] [--max-batches N]\n"
        "                   [--cache FILE] [--out FILE] [--summary FILE]\n"
        "                   [common flags]\n%s",
        cli::kCommonUsage);
    return cli::kExitOk;
  }

  campaign::CampaignSpec spec;
  if (args.has("spec")) {
    std::string error;
    auto loaded = campaign::load_spec_file(args.get("spec"), &error);
    if (!loaded) {
      std::fprintf(stderr, "bad spec %s: %s\n", args.get("spec").c_str(), error.c_str());
      return cli::kExitUsage;
    }
    spec = std::move(*loaded);
  }

  // CLI flags override the spec (or the defaults when no spec was given).
  if (args.has("world")) {
    // Synthetic-world campaign: a built-in tier name or a WorldSpec file.
    const std::string arg = args.get("world");
    std::optional<worldgen::WorldSpec> world = worldgen::WorldSpec::tier(arg);
    if (!world) {
      std::string error;
      world = worldgen::load_spec_file(arg, &error);
      if (!world) {
        std::fprintf(stderr, "bad --world '%s': not a built-in tier (1k, 100k, 1m) "
                     "and not a spec file: %s\n", arg.c_str(), error.c_str());
        return cli::kExitUsage;
      }
    }
    spec.world = std::move(*world);
  }
  if (args.has("countries")) {
    spec.countries.clear();
    for (const std::string& code : split(args.get("countries"), ',')) {
      spec.countries.push_back(cli::parse_country(code));
    }
  }
  if (args.has("scale")) spec.scale = common.scale;
  if (args.has("seed")) spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  spec.max_endpoints = args.get_int("max-endpoints", spec.max_endpoints);
  spec.max_domains = args.get_int("max-domains", spec.max_domains);
  spec.fuzz_max_endpoints = args.get_int("fuzz-cap", spec.fuzz_max_endpoints);
  if (args.has("ambig")) spec.stages.ambig = true;
  spec.ambig_max_endpoints = args.get_int("ambig-cap", spec.ambig_max_endpoints);
  spec.ambig.repetitions = args.get_int("ambig-reps", spec.ambig.repetitions);
  spec.batch_size = args.get_int("batch", spec.batch_size);
  if (spec.batch_size < 1) {
    std::fprintf(stderr, "--batch must be >= 1\n");
    return cli::kExitUsage;
  }
  spec.trace.repetitions = args.get_int("reps", spec.trace.repetitions);
  if (spec.trace.repetitions < 1) {
    std::fprintf(stderr, "--reps must be >= 1\n");
    return cli::kExitUsage;
  }
  if (args.has("tomography")) spec.trace_tomography = true;
  spec.trace_vantages = args.get_int("vantages", spec.trace_vantages);
  if (args.has("backoff")) spec.trace.retry_backoff = common.backoff;
  if (args.has("retries")) spec.trace.adaptive_max_retries = common.retries;
  if (cli::has_fault_flags(args)) spec.faults = common.faults;

  obs::Observer observer;
  campaign::RunControl control;
  control.threads = common.threads;
  control.cache_path = args.get("cache");
  control.max_batches = args.get_int("max-batches", -1);
  control.observer = cli::wants_observer(args) ? &observer : nullptr;

  campaign::CampaignResult result = campaign::run(spec, control);

  int rc = cli::kExitOk;
  if (args.has("out") && !cli::write_file(args.get("out"), result.to_jsonl())) {
    rc = cli::kExitRuntime;
  }
  if (args.has("summary") && !cli::write_file(args.get("summary"), result.summary_json())) {
    rc = cli::kExitRuntime;
  }
  if (control.observer != nullptr) {
    if (cli::write_observability(args, observer) != 0) rc = cli::kExitRuntime;
    if (cli::write_perf_report(args, observer) != 0) rc = cli::kExitRuntime;
  }

  if (common.json) {
    std::printf("%s", result.to_jsonl().c_str());
    std::printf("%s\n", result.summary_json().c_str());
  } else {
    std::printf("campaign '%s' (%s): %zu trace / %zu probe / %zu fuzz / %zu ambig tasks\n",
                result.name.c_str(), join(result.countries, ",").c_str(),
                result.trace.tasks, result.probe.tasks, result.fuzz.tasks,
                result.ambig.tasks);
    std::printf("  executed %zu, cache hits %zu; %zu blocked endpoints, "
                "%zu measurements, %d clusters (%zu noise)\n",
                result.tool_tasks_executed(), result.cache_hits(),
                result.blocked_endpoints, result.measurements.size(),
                result.n_clusters, result.noise_rows);
    if (!result.complete) {
      std::printf("  INCOMPLETE: batch budget exhausted — re-run with the same "
                  "--cache to resume\n");
    }
  }
  if (rc != cli::kExitOk) return rc;
  return result.complete ? cli::kExitOk : cli::kExitIncomplete;
}
