// cenlongit — longitudinal measurement service: re-run a campaign across
// N epochs with a seeded censor-evolution plan applied between epochs,
// and report the per-epoch differentials.
//
//   cenlongit [--spec FILE] [--countries AZ,KZ] [--seed N] [--epochs N]
//             [--evolve-seed N] [--evolve-start N] [--evolve-period N]
//             [--evolve-add P] [--evolve-remove P] [--evolve-upgrade P]
//             [--evolve-swap P] [--evolve-drift P] [--no-churn]
//             [--max-endpoints N] [--max-domains N] [--fuzz-cap N]
//             [--reps N] [--batch N] [--max-batches N] [--cache FILE]
//             [--out longit.json]
//             [common flags: --scale/--threads/--json/--metrics/...]
//
// The spec file is a campaign spec (docs/CAMPAIGN.md) whose optional
// "evolution" object describes the churn; the --evolve-* flags override
// it (and enable evolution when the spec has none). All epochs share the
// --cache JSONL file, so an unchurned epoch is pure cache hits and a run
// killed mid-epoch resumes from the last completed batch. --max-batches
// is a per-epoch budget.
//
// Exit codes: 0 complete, 1 I/O failure, 2 usage error, 3 incomplete
// (batch budget exhausted — run again with the same --cache to continue).
#include "campaign/campaign.hpp"
#include "cli_common.hpp"
#include "core/strings.hpp"
#include "longit/longit.hpp"

using namespace cen;

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  const cli::CommonOptions common = cli::parse_common(args);
  if (args.has("help")) {
    std::printf(
        "usage: cenlongit [--spec FILE] [--countries AZ,BY,KZ,RU] [--seed N]\n"
        "                 [--epochs N]\n"
        "                 [--evolve-seed N] [--evolve-start N] [--evolve-period N]\n"
        "                 [--evolve-add P] [--evolve-remove P] [--evolve-upgrade P]\n"
        "                 [--evolve-swap P] [--evolve-drift P] [--no-churn]\n"
        "                 [--max-endpoints N] [--max-domains N] [--fuzz-cap N]\n"
        "                 [--reps N] [--batch N] [--max-batches N] [--cache FILE]\n"
        "                 [--out FILE]\n"
        "                 [common flags]\n%s",
        cli::kCommonUsage);
    return cli::kExitOk;
  }

  longit::LongitSpec spec;
  if (args.has("spec")) {
    std::string error;
    auto loaded = campaign::load_spec_file(args.get("spec"), &error);
    if (!loaded) {
      std::fprintf(stderr, "bad spec %s: %s\n", args.get("spec").c_str(), error.c_str());
      return cli::kExitUsage;
    }
    spec.base = std::move(*loaded);
  }

  if (args.has("countries")) {
    spec.base.countries.clear();
    for (const std::string& code : split(args.get("countries"), ',')) {
      spec.base.countries.push_back(cli::parse_country(code));
    }
  }
  if (args.has("scale")) spec.base.scale = common.scale;
  if (args.has("seed")) {
    spec.base.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  }
  spec.base.max_endpoints = args.get_int("max-endpoints", spec.base.max_endpoints);
  spec.base.max_domains = args.get_int("max-domains", spec.base.max_domains);
  spec.base.fuzz_max_endpoints = args.get_int("fuzz-cap", spec.base.fuzz_max_endpoints);
  spec.base.trace.repetitions = args.get_int("reps", spec.base.trace.repetitions);
  if (spec.base.trace.repetitions < 1) {
    std::fprintf(stderr, "--reps must be >= 1\n");
    return cli::kExitUsage;
  }
  spec.base.batch_size = args.get_int("batch", spec.base.batch_size);
  if (spec.base.batch_size < 1) {
    std::fprintf(stderr, "--batch must be >= 1\n");
    return cli::kExitUsage;
  }
  if (cli::has_fault_flags(args)) spec.base.faults = common.faults;

  spec.epochs = args.get_int("epochs", spec.epochs);
  if (spec.epochs < 1) {
    std::fprintf(stderr, "--epochs must be >= 1\n");
    return cli::kExitUsage;
  }
  if (args.has("no-churn")) spec.collect_churn = false;

  // Evolution overrides: start from the spec's plan (or a fresh one) and
  // apply any --evolve-* flags on top.
  const bool evolve_flags =
      args.has("evolve-seed") || args.has("evolve-start") ||
      args.has("evolve-period") || args.has("evolve-add") ||
      args.has("evolve-remove") || args.has("evolve-upgrade") ||
      args.has("evolve-swap") || args.has("evolve-drift");
  if (evolve_flags) {
    longit::EvolutionPlan plan =
        spec.base.evolution ? *spec.base.evolution : longit::EvolutionPlan{};
    plan.seed = static_cast<std::uint64_t>(
        args.get_int("evolve-seed", static_cast<int>(plan.seed)));
    plan.start_epoch = args.get_int("evolve-start", plan.start_epoch);
    plan.period = args.get_int("evolve-period", plan.period);
    plan.rule_add_prob = args.get_double("evolve-add", plan.rule_add_prob);
    plan.rule_remove_prob = args.get_double("evolve-remove", plan.rule_remove_prob);
    plan.vendor_upgrade_prob = args.get_double("evolve-upgrade", plan.vendor_upgrade_prob);
    plan.blockpage_swap_prob = args.get_double("evolve-swap", plan.blockpage_swap_prob);
    plan.coverage_drift_prob = args.get_double("evolve-drift", plan.coverage_drift_prob);
    for (double p : {plan.rule_add_prob, plan.rule_remove_prob,
                     plan.vendor_upgrade_prob, plan.blockpage_swap_prob,
                     plan.coverage_drift_prob}) {
      if (!(p >= 0.0 && p <= 1.0)) {
        std::fprintf(stderr, "--evolve-* probabilities must be in [0, 1]\n");
        return cli::kExitUsage;
      }
    }
    spec.base.evolution = std::move(plan);
  }

  obs::Observer observer;
  campaign::RunControl control;
  control.threads = common.threads;
  control.cache_path = args.get("cache");
  control.max_batches = args.get_int("max-batches", -1);
  control.observer = cli::wants_observer(args) ? &observer : nullptr;

  longit::LongitResult result = longit::run(spec, control);

  int rc = cli::kExitOk;
  if (args.has("out") && !cli::write_file(args.get("out"), result.to_json())) {
    rc = cli::kExitRuntime;
  }
  if (control.observer != nullptr) {
    if (cli::write_observability(args, observer) != 0) rc = cli::kExitRuntime;
    if (cli::write_perf_report(args, observer) != 0) rc = cli::kExitRuntime;
  }

  if (common.json) {
    std::printf("%s\n", result.to_json().c_str());
  } else {
    std::printf("longit '%s': %d/%d epochs\n", result.name.c_str(),
                result.epochs_completed, spec.epochs);
    for (const longit::EpochSummary& e : result.epochs) {
      std::printf("  epoch %d: %zu records (%zu blocked), executed %zu, "
                  "cache hits %zu; +%zu blocked, -%zu unblocked, "
                  "%zu vendor changes, %zu moves\n",
                  e.epoch, e.records, e.blocked, e.executed, e.cache_hits,
                  e.diff.newly_blocked.size(), e.diff.newly_unblocked.size(),
                  e.diff.vendor_changes.size(), e.diff.location_moves.size());
    }
    if (result.hop_ttl.count() > 0) {
      std::printf("  blocking-hop TTL p50/p90/p99: %llu/%llu/%llu (%llu samples)\n",
                  static_cast<unsigned long long>(result.hop_ttl.query(50)),
                  static_cast<unsigned long long>(result.hop_ttl.query(90)),
                  static_cast<unsigned long long>(result.hop_ttl.query(99)),
                  static_cast<unsigned long long>(result.hop_ttl.count()));
    }
    if (!result.complete) {
      std::printf("  INCOMPLETE: batch budget exhausted — re-run with the same "
                  "--cache to resume\n");
    }
  }
  if (rc != cli::kExitOk) return rc;
  return result.complete ? cli::kExitOk : cli::kExitIncomplete;
}
