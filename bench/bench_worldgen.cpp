// Worldgen benchmark + memory guard: generation wall time per scale tier,
// bytes/endpoint of the compact world representation, and the CenTrace
// sweep and probe throughput on an instantiated world. Writes
// BENCH_world.json.
//
// Three guards gate the exit code (this bench is the `perf`-labelled
// ctest acceptance):
//   - memory: the 1M-endpoint tier must stay under kBytesPerEndpointCeiling
//     (the compact SoA backend is the whole point — a pointer-based world
//     would be ~10x this);
//   - determinism: regenerating the 1k tier from the same seed must
//     reproduce the same world fingerprint;
//   - path search: a short trace fan-out on the instantiated 1M tier must
//     run exactly one whole-graph BFS per source (the client), however
//     many destinations it routes to. A count, not a time floor.
//
//   ./bench_worldgen [output.json]      (default BENCH_world.json)
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "centrace/centrace.hpp"
#include "core/json.hpp"
#include "scenario/pipeline.hpp"
#include "worldgen/generate.hpp"
#include "worldgen/spec.hpp"

using namespace cen;

namespace {

/// World-side resident bytes per endpoint, 1M tier. Generous versus the
/// ~110 B/endpoint measured at introduction (most of it topology arrays
/// amortized across the population), tight versus any per-endpoint heap
/// allocation creeping in (a std::string + shared_ptr profile per host
/// would blow straight through it).
constexpr double kBytesPerEndpointCeiling = 256.0;

struct TierRun {
  std::string tier;
  std::string name;
  double generate_ms = 0.0;
  worldgen::World::Stats stats;
  std::uint64_t fingerprint = 0;
  double bytes_per_endpoint = 0.0;
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_world.json";
  constexpr std::uint64_t kSeed = 11;
  bool ok = true;

  // --- Generation time + bytes/endpoint per tier. ---
  std::vector<TierRun> runs;
  for (const std::string& tier : worldgen::WorldSpec::tier_names()) {
    const worldgen::WorldSpec spec = *worldgen::WorldSpec::tier(tier);
    const auto t0 = std::chrono::steady_clock::now();
    const worldgen::World world = worldgen::generate(spec, kSeed);
    TierRun run;
    run.tier = tier;
    run.name = spec.name;
    run.generate_ms = ms_since(t0);
    run.stats = world.stats();
    run.fingerprint = world.fingerprint();
    run.bytes_per_endpoint = run.stats.endpoints == 0
                                 ? 0.0
                                 : static_cast<double>(run.stats.bytes) /
                                       static_cast<double>(run.stats.endpoints);
    std::printf("%-5s %9zu nodes %9zu endpoints  %8.1f ms  %6.1f B/endpoint\n",
                tier.c_str(), run.stats.nodes, run.stats.endpoints, run.generate_ms,
                run.bytes_per_endpoint);
    runs.push_back(run);
  }

  const TierRun& top = runs.back();  // 1m
  if (top.bytes_per_endpoint > kBytesPerEndpointCeiling) {
    std::printf("FAIL: %s uses %.1f bytes/endpoint (ceiling %.1f)\n", top.name.c_str(),
                top.bytes_per_endpoint, kBytesPerEndpointCeiling);
    ok = false;
  }

  // --- Determinism guard: same (spec, seed) => same fingerprint. ---
  {
    const worldgen::WorldSpec spec = *worldgen::WorldSpec::tier("1k");
    const std::uint64_t again = worldgen::generate(spec, kSeed).fingerprint();
    if (again != runs.front().fingerprint) {
      std::printf("FAIL: 1k regeneration changed fingerprint %016" PRIx64
                  " -> %016" PRIx64 "\n",
                  runs.front().fingerprint, again);
      ok = false;
    }
  }

  // --- Throughput: CenTrace fan-out on the instantiated 1k world. A sweep
  // is one TTL ladder (control or test); a probe is one hop observation.
  double sweeps_per_sec = 0.0;
  double probes_per_sec = 0.0;
  std::size_t sweep_count = 0;
  std::size_t probe_count = 0;
  {
    const worldgen::World world =
        worldgen::generate(*worldgen::WorldSpec::tier("1k"), kSeed);
    worldgen::GeneratedScenario gen = worldgen::instantiate(world);
    trace::CenTraceOptions topts;
    topts.repetitions = 3;
    const std::size_t kTraces = 64;
    const std::size_t stride = gen.endpoints.size() / kTraces;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kTraces; ++i) {
      trace::TraceRunOptions opts;
      opts.client = gen.client;
      opts.endpoint = gen.endpoints[i * stride];
      opts.test_domain = gen.http_test_domains.front();
      opts.control_domain = gen.control_domain;
      opts.trace = topts;
      const trace::CenTraceReport rep = trace::run(*gen.network, opts);
      sweep_count += rep.control_traces.size() + rep.test_traces.size();
      for (const auto* sweeps : {&rep.control_traces, &rep.test_traces}) {
        for (const trace::SingleTrace& sweep : *sweeps) probe_count += sweep.hops.size();
      }
    }
    const double wall_s = ms_since(t0) / 1000.0;
    if (wall_s > 0.0) {
      sweeps_per_sec = static_cast<double>(sweep_count) / wall_s;
      probes_per_sec = static_cast<double>(probe_count) / wall_s;
    }
    std::printf("trace fan-out: %zu traces, %zu sweeps (%.0f sweeps/sec), "
                "%zu probes (%.0f probes/sec)\n",
                kTraces, sweep_count, sweeps_per_sec, probe_count, probes_per_sec);
  }

  // --- Path-search guard: one BFS per source on the 1M tier. ---
  std::uint64_t path_searches = 0;
  std::uint64_t path_misses = 0;
  {
    const worldgen::World world =
        worldgen::generate(*worldgen::WorldSpec::tier("1m"), kSeed);
    worldgen::GeneratedScenario gen = worldgen::instantiate(world);
    constexpr std::size_t kTargets = 8;
    std::vector<net::Ipv4Address> targets;
    for (std::size_t i = 0; i < kTargets; ++i) {
      targets.push_back(gen.endpoints[i * (gen.endpoints.size() / kTargets)]);
    }
    trace::CenTraceOptions topts;
    topts.repetitions = 1;
    const auto t0 = std::chrono::steady_clock::now();
    // threads = 0: every task runs on gen.network itself, so its topology
    // counters are the whole fan-out's.
    scenario::run_trace_fanout(*gen.network, gen.client, targets,
                               {gen.http_test_domains.front()}, gen.control_domain,
                               topts, /*threads=*/0);
    const double fanout_ms = ms_since(t0);
    const sim::Topology& topo = gen.network->topology();
    path_searches = topo.path_searches();
    path_misses = topo.path_cache_misses();
    std::printf("1m path search: %zu traces in %.1f ms, %" PRIu64 " path-cache misses, "
                "%" PRIu64 " BFS runs\n",
                kTargets, fanout_ms, path_misses, path_searches);
    if (path_searches != 1) {
      std::printf("FAIL: %" PRIu64 " whole-graph searches for one source (want 1)\n",
                  path_searches);
      ok = false;
    }
  }

  // --- BENCH_world.json. ---
  JsonWriter w;
  w.begin_object();
  w.key("bench").value("worldgen");
  w.key("seed").value(kSeed);
  w.key("bytes_per_endpoint_ceiling").value(kBytesPerEndpointCeiling);
  w.key("tiers").begin_array();
  for (const TierRun& r : runs) {
    w.begin_object();
    w.key("tier").value(r.tier);
    w.key("world").value(r.name);
    w.key("generate_ms").value(r.generate_ms);
    w.key("nodes").value(static_cast<std::uint64_t>(r.stats.nodes));
    w.key("links").value(static_cast<std::uint64_t>(r.stats.links));
    w.key("endpoints").value(static_cast<std::uint64_t>(r.stats.endpoints));
    w.key("ases").value(static_cast<std::uint64_t>(r.stats.ases));
    w.key("devices").value(static_cast<std::uint64_t>(r.stats.devices));
    w.key("bytes").value(static_cast<std::uint64_t>(r.stats.bytes));
    w.key("bytes_per_endpoint").value(r.bytes_per_endpoint);
    w.end_object();
  }
  w.end_array();
  w.key("sweeps").value(static_cast<std::uint64_t>(sweep_count));
  w.key("sweeps_per_sec").value(sweeps_per_sec);
  w.key("probes").value(static_cast<std::uint64_t>(probe_count));
  w.key("probes_per_sec").value(probes_per_sec);
  w.key("path_searches_1m").value(path_searches);
  w.key("path_cache_misses_1m").value(path_misses);
  w.key("ok").value(ok);
  w.end_object();
  std::ofstream out(out_path);
  out << w.str() << "\n";
  std::printf("%s: %s\n", out_path, ok ? "OK" : "GUARD VIOLATED");
  return ok ? 0 : 1;
}
