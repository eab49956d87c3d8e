#include "check/check.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "check/engines.hpp"
#include "core/json.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"

namespace cen::check {

namespace {

constexpr Engine kAllEngines[] = {Engine::kRoundTrip, Engine::kInvariant,
                                  Engine::kCacheReplay, Engine::kMlOracle,
                                  Engine::kWorldGen, Engine::kAmbig,
                                  Engine::kLongit};

struct CaseResult {
  std::vector<CheckFailure> failures;
  std::uint64_t checks = 0;
};

CaseResult execute_case(Engine engine, std::uint64_t case_seed, int budget) {
  CaseResult out;
  CaseContext ctx;
  ctx.engine = engine;
  ctx.case_seed = case_seed;
  ctx.budget = budget;
  ctx.rng = Rng(mix64(case_seed ^ engine_salt(engine)));
  ctx.failures = &out.failures;
  switch (engine) {
    case Engine::kRoundTrip: run_roundtrip_case(ctx); break;
    case Engine::kInvariant: run_invariant_case(ctx); break;
    case Engine::kCacheReplay: run_cache_replay_case(ctx); break;
    case Engine::kMlOracle: run_ml_oracle_case(ctx); break;
    case Engine::kWorldGen: run_worldgen_case(ctx); break;
    case Engine::kAmbig: run_ambig_case(ctx); break;
    case Engine::kLongit: run_longit_case(ctx); break;
    case Engine::kSelfTest: run_selftest_case(ctx); break;
  }
  out.checks = ctx.checks;
  return out;
}

/// Smallest mutation budget in [1, failure.budget] at which the case
/// still produces a failure for the same target. Budgets are small (<=
/// ~16), so a linear scan from below finds the exact minimum.
int minimize_budget(const CheckFailure& failure) {
  for (int b = 1; b < failure.budget; ++b) {
    CaseResult r = execute_case(failure.engine, failure.seed, b);
    for (const CheckFailure& f : r.failures) {
      if (f.target == failure.target) return b;
    }
  }
  return failure.budget;
}

void append_format(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

std::string_view engine_name(Engine e) {
  switch (e) {
    case Engine::kRoundTrip: return "roundtrip";
    case Engine::kInvariant: return "invariant";
    case Engine::kCacheReplay: return "cache-replay";
    case Engine::kMlOracle: return "ml-oracle";
    case Engine::kWorldGen: return "worldgen";
    case Engine::kAmbig: return "ambig";
    case Engine::kLongit: return "longit";
    case Engine::kSelfTest: return "self-test";
  }
  return "unknown";
}

std::optional<Engine> engine_from_name(std::string_view name) {
  if (name == "roundtrip" || name == "round-trip") return Engine::kRoundTrip;
  if (name == "invariant") return Engine::kInvariant;
  if (name == "cache-replay" || name == "cache") return Engine::kCacheReplay;
  if (name == "ml-oracle" || name == "ml") return Engine::kMlOracle;
  if (name == "worldgen" || name == "world") return Engine::kWorldGen;
  if (name == "ambig" || name == "cenambig") return Engine::kAmbig;
  if (name == "longit" || name == "longitudinal") return Engine::kLongit;
  if (name == "self-test" || name == "selftest") return Engine::kSelfTest;
  return std::nullopt;
}

const std::vector<Engine>& all_engines() {
  static const std::vector<Engine> engines(std::begin(kAllEngines),
                                           std::end(kAllEngines));
  return engines;
}

std::string CheckFailure::repro() const {
  std::string out = "cencheck --engine ";
  out += engine_name(engine);
  append_format(out, " --seed %llu --budget %d --iterations 1",
                static_cast<unsigned long long>(seed), minimized_budget);
  return out;
}

std::uint64_t engine_case_count(Engine engine, std::uint64_t iterations) {
  auto at_least_one = [](std::uint64_t n) { return n == 0 ? 1 : n; };
  switch (engine) {
    case Engine::kRoundTrip: return at_least_one(iterations);
    // One invariant case is a faulted netsim TTL sweep; one ml-oracle
    // case includes a forest fit. Both cost orders of magnitude more
    // than a codec round-trip, so they scale down from `iterations`.
    case Engine::kInvariant: return at_least_one(iterations / 20);
    case Engine::kMlOracle: return at_least_one(iterations / 10);
    // A cache-replay case is a whole warm campaign run.
    case Engine::kCacheReplay: return std::clamp<std::uint64_t>(iterations / 500, 1, 24);
    // A worldgen case generates (and re-generates) a small synthetic world.
    case Engine::kWorldGen: return at_least_one(iterations / 50);
    // An ambig case replays three full cenambig measurements.
    case Engine::kAmbig: return std::clamp<std::uint64_t>(iterations / 250, 1, 12);
    // A longit case builds (and evolves) two scenario networks.
    case Engine::kLongit: return std::clamp<std::uint64_t>(iterations / 100, 1, 16);
    case Engine::kSelfTest: return at_least_one(iterations);
  }
  return at_least_one(iterations);
}

std::vector<CheckFailure> run_case(Engine engine, std::uint64_t case_seed, int budget,
                                   std::uint64_t* checks) {
  CaseResult r = execute_case(engine, case_seed, budget);
  if (checks != nullptr) *checks += r.checks;
  return std::move(r.failures);
}

bool CheckReport::ok() const {
  for (const EngineStats& s : stats) {
    if (s.failures != 0) return false;
  }
  return true;
}

CheckReport run_checks(const CheckOptions& options) {
  CheckReport report;
  report.seed = options.seed;
  report.iterations = options.iterations;
  report.mutation_budget = options.mutation_budget;

  const std::vector<Engine>& engines =
      options.engines.empty() ? all_engines() : options.engines;

  for (Engine engine : engines) {
    const std::uint64_t cases = engine_case_count(engine, options.iterations);
    std::vector<CaseResult> results(cases);
    auto one = [&](int, std::size_t index) {
      // Case seeds are offsets from the run seed, so `--seed N` replays
      // exactly the failing case regardless of how many cases ran.
      const std::uint64_t case_seed = options.seed + index;
      results[index] = execute_case(engine, case_seed, options.mutation_budget);
    };
    if (options.threads == 0) {
      for (std::size_t i = 0; i < cases; ++i) one(0, i);
    } else {
      ThreadPool pool(options.threads < 0 ? ThreadPool::hardware_threads()
                                          : options.threads);
      pool.parallel_for(cases, one);
    }

    EngineStats stats;
    stats.engine = engine;
    stats.cases = cases;
    // Merge in case order — identical for every thread count.
    for (CaseResult& r : results) {
      stats.checks += r.checks;
      stats.failures += r.failures.size();
      for (CheckFailure& f : r.failures) {
        if (report.failures.size() < options.max_failures) {
          report.failures.push_back(std::move(f));
        } else {
          ++report.dropped_failures;
        }
      }
    }
    report.stats.push_back(stats);
  }

  if (options.minimize) {
    for (CheckFailure& f : report.failures) {
      f.minimized_budget = minimize_budget(f);
    }
  }
  return report;
}

std::string CheckReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("tool").value("cencheck");
  w.key("seed").value(static_cast<std::uint64_t>(seed));
  w.key("iterations").value(static_cast<std::uint64_t>(iterations));
  w.key("mutation_budget").value(mutation_budget);
  w.key("ok").value(ok());
  w.key("engines").begin_array();
  for (const EngineStats& s : stats) {
    w.begin_object();
    w.key("engine").value(engine_name(s.engine));
    w.key("cases").value(static_cast<std::uint64_t>(s.cases));
    w.key("checks").value(static_cast<std::uint64_t>(s.checks));
    w.key("failures").value(static_cast<std::uint64_t>(s.failures));
    w.end_object();
  }
  w.end_array();
  w.key("failures").begin_array();
  for (const CheckFailure& f : failures) {
    w.begin_object();
    w.key("engine").value(engine_name(f.engine));
    w.key("seed").value(static_cast<std::uint64_t>(f.seed));
    w.key("target").value(f.target);
    w.key("detail").value(f.detail);
    w.key("budget").value(f.budget);
    w.key("minimized_budget").value(f.minimized_budget);
    w.key("repro").value(f.repro());
    w.end_object();
  }
  w.end_array();
  w.key("dropped_failures").value(static_cast<std::uint64_t>(dropped_failures));
  w.end_object();
  return w.str();
}

std::string CheckReport::summary() const {
  std::string out;
  for (const EngineStats& s : stats) {
    append_format(out, "%-12s  %8llu cases  %10llu checks  %6llu failures\n",
                  std::string(engine_name(s.engine)).c_str(),
                  static_cast<unsigned long long>(s.cases),
                  static_cast<unsigned long long>(s.checks),
                  static_cast<unsigned long long>(s.failures));
  }
  for (const CheckFailure& f : failures) {
    out += "FAIL ";
    out += f.target;
    out += ": ";
    out += f.detail;
    out += "\n  repro: ";
    out += f.repro();
    out += "\n";
  }
  if (dropped_failures > 0) {
    append_format(out, "(+%llu further failures not shown)\n",
                  static_cast<unsigned long long>(dropped_failures));
  }
  out += ok() ? "OK\n" : "FAILURES FOUND\n";
  return out;
}

std::uint64_t engine_salt(Engine e) {
  switch (e) {
    case Engine::kRoundTrip: return 0x726f756e64747269ull;   // "roundtri"
    case Engine::kInvariant: return 0x696e76617269616eull;   // "invarian"
    case Engine::kCacheReplay: return 0x6361636865727031ull; // "cacherp1"
    case Engine::kMlOracle: return 0x6d6c6f7261636c65ull;    // "mloracle"
    case Engine::kWorldGen: return 0x776f726c6467656eull;    // "worldgen"
    case Engine::kAmbig: return 0x616d626967666e67ull;       // "ambigfng"
    case Engine::kLongit: return 0x6c6f6e6769747564ull;      // "longitud"
    case Engine::kSelfTest: return 0x73656c6674657374ull;    // "selftest"
  }
  return 0;
}

void run_selftest_case(CaseContext& ctx) {
  // A deliberately planted bug: every case fails once the mutation budget
  // reaches 3. Tests use this to prove the harness catches a failure,
  // replays it from its printed seed, and minimizes the budget to 3.
  const std::uint64_t witness = ctx.rng.next();
  ctx.expect(ctx.budget < 3, "selftest/planted",
             "planted failure, witness=" + std::to_string(witness));
}

}  // namespace cen::check
