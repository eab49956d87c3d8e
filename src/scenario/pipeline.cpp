#include "scenario/pipeline.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <set>

#include "centrace/degrade.hpp"
#include "obs/observer.hpp"
#include "scenario/executor.hpp"

namespace cen::scenario {

std::size_t PipelineResult::blocked_remote() const {
  return static_cast<std::size_t>(std::count_if(
      remote_traces.begin(), remote_traces.end(),
      [](const trace::CenTraceReport& r) { return r.blocked; }));
}

double PipelineResult::mean_remote_confidence() const {
  if (remote_traces.empty()) return 1.0;
  double sum = 0.0;
  for (const trace::CenTraceReport& r : remote_traces) sum += r.confidence.overall;
  return sum / static_cast<double>(remote_traces.size());
}

std::vector<std::size_t> stride_sample_indices(std::size_t n, int cap) {
  std::vector<std::size_t> out;
  if (cap < 0 || static_cast<std::size_t>(cap) >= n) {
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = i;
    return out;
  }
  out.reserve(static_cast<std::size_t>(cap));
  const std::uint64_t n64 = n;
  const std::uint64_t cap64 = static_cast<std::uint64_t>(cap);
  for (std::uint64_t i = 0; i < cap64; ++i) {
    // (i*n)/cap is strictly increasing for cap < n, so no index repeats —
    // the float-stride version this replaces could truncate two i values
    // onto the same element and silently measure it twice.
    out.push_back(static_cast<std::size_t>(i * n64 / cap64));
  }
  return out;
}

namespace {

std::vector<net::Ipv4Address> sample(const std::vector<net::Ipv4Address>& v, int cap) {
  std::vector<net::Ipv4Address> out;
  for (std::size_t idx : stride_sample_indices(v.size(), cap)) out.push_back(v[idx]);
  return out;
}

std::vector<std::string> take(const std::vector<std::string>& v, int cap) {
  if (cap < 0 || static_cast<int>(v.size()) <= cap) return v;
  return std::vector<std::string>(v.begin(), v.begin() + cap);
}

struct PipelineInput {
  sim::Network* network = nullptr;
  sim::NodeId remote_client = sim::kInvalidNode;
  sim::NodeId incountry_client = sim::kInvalidNode;
  std::vector<net::Ipv4Address> remote_endpoints;
  std::vector<net::Ipv4Address> foreign_endpoints;  // parallel to all domains
  std::vector<std::string> http_domains;
  std::vector<std::string> https_domains;
  std::string control_domain;
  std::string country;
};

/// Runs hermetic stages on one executor and merges their per-task
/// observability shards into the caller's observer in task-identity
/// order. Each task records into a private Observer (attached to its
/// network for the task's duration), so no lock sits on any hot path; the
/// merge then lays the per-task timelines end to end on one synthetic
/// axis — task i's spans/journal entries are offset by the summed sim
/// durations of tasks 0..i-1 and stamped with tid i. Everything about the
/// merged state is a function of the task list alone, never of
/// scheduling, which is what makes the exported snapshots byte-identical
/// across worker counts.
class ShardMerger {
 public:
  ShardMerger(ParallelExecutor& exec, obs::Observer* sink) : exec_(exec), sink_(sink) {
    if (sink_ == nullptr) return;
    exec_.set_stats(&pool_stats_);
    exec_.set_perf_tracking(true);
  }
  ShardMerger(const ShardMerger&) = delete;
  ShardMerger& operator=(const ShardMerger&) = delete;
  ~ShardMerger() { exec_.set_stats(nullptr); }

  /// Run task i = fn(net, i) under seeds[i] with its shard attached, then
  /// merge the shards in index order and wrap them in one aggregate stage
  /// span named `stage_name`.
  void run(const std::vector<std::uint64_t>& seeds, const char* stage_name,
           const std::function<void(sim::Network&, std::size_t)>& fn) {
    if (sink_ == nullptr) {
      exec_.run(seeds, fn);
      return;
    }
    std::vector<std::unique_ptr<obs::Observer>> shards(seeds.size());
    for (auto& s : shards) s = std::make_unique<obs::Observer>();
    // Each task's sim clock at completion: its duration, since every
    // hermetic task starts at sim time 0.
    std::vector<SimTime> ends(seeds.size(), 0);
    exec_.run(seeds, [&](sim::Network& net, std::size_t i) {
      net.set_observer(shards[i].get());
      fn(net, i);
      ends[i] = net.now();
      net.set_observer(nullptr);
    });
    const SimTime stage_begin = offset_;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      sink_->merge_from(*shards[i], next_tid_, offset_, ends[i]);
      ++next_tid_;
      offset_ += ends[i];
    }
    if (!shards.empty()) {
      sink_->tracer().complete(stage_name, "pipeline", stage_begin, offset_);
    }
  }

  /// Export the executor's pool scheduling statistics, overhead
  /// accounting and aggregate ECMP path-cache statistics. The
  /// submission-side numbers (jobs, tasks, peak pending) depend only on
  /// the task lists and live in the sim domain — the inline path fills
  /// them exactly as the pool does; worker count, host-clock timings and
  /// cache statistics vary with the machine and thread count, so they are
  /// wall-domain gauges, excluded from deterministic snapshots and
  /// surfaced by `--perf-report`.
  void export_stats() {
    if (sink_ == nullptr) return;
    obs::Registry& m = sink_->metrics();
    auto wall = [&m](const char* name, std::uint64_t v) {
      m.gauge(name, obs::Domain::kWall).set_max(static_cast<std::int64_t>(v));
    };
    auto load = [](const std::atomic<std::uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    m.counter("pool.jobs").inc(load(pool_stats_.jobs));
    m.counter("pool.tasks").inc(load(pool_stats_.tasks));
    m.gauge("pool.peak_pending")
        .set_max(static_cast<std::int64_t>(load(pool_stats_.peak_pending)));
    wall("pool.workers", static_cast<std::uint64_t>(exec_.threads()));
    wall("pool.busy_ns", load(pool_stats_.busy_ns));
    wall("pool.wall_ns", load(pool_stats_.wall_ns));
    const ExecutorPerf& p = exec_.perf();
    wall("perf.clone_ns", load(p.clone_ns));
    wall("perf.reset_ns", load(p.reset_ns));
    wall("perf.tasks", load(p.tasks));
    wall("perf.batches", load(p.batches));
    wall("pathcache.hits", exec_.path_cache_hits());
    wall("pathcache.misses", exec_.path_cache_misses());
    wall("pathcache.searches", exec_.path_searches());
  }

 private:
  ParallelExecutor& exec_;
  obs::Observer* sink_;
  PoolStats pool_stats_;
  std::uint32_t next_tid_ = 0;
  SimTime offset_ = 0;
};

trace::CenTraceOptions trace_options(const PipelineOptions& options,
                                     trace::ProbeProtocol protocol) {
  trace::CenTraceOptions o;
  o.repetitions = options.centrace_repetitions;
  o.retry_backoff = options.centrace_retry_backoff;
  o.adaptive_max_retries = options.centrace_adaptive_retries;
  o.protocol = protocol;
  return o;
}

/// One CenTrace task of the pipeline's stage 1 or of a fan-out.
struct TraceTask {
  sim::NodeId client;
  net::Ipv4Address endpoint;
  const std::string* domain;
  std::uint64_t dhash;  // domain_hash(*domain), computed once per domain
  const trace::CenTraceOptions* opts;
  bool incountry;
};

/// Append one task per (endpoint, domain) pair, endpoint-major. Each
/// domain is hashed once up front: the fan-out is endpoints x domains, so
/// re-hashing the string per task would cost O(E x D) FNV passes for O(D)
/// distinct strings.
void add_trace_tasks(std::vector<TraceTask>& tasks, sim::NodeId client,
                     const std::vector<net::Ipv4Address>& endpoints,
                     const std::vector<const std::vector<std::string>*>& domain_lists,
                     const std::vector<const trace::CenTraceOptions*>& opts) {
  std::vector<std::vector<std::uint64_t>> hashes;
  for (const std::vector<std::string>* list : domain_lists) {
    hashes.emplace_back();
    hashes.back().reserve(list->size());
    for (const std::string& d : *list) hashes.back().push_back(domain_hash(d));
  }
  for (net::Ipv4Address endpoint : endpoints) {
    for (std::size_t l = 0; l < domain_lists.size(); ++l) {
      const std::vector<std::string>& list = *domain_lists[l];
      for (std::size_t d = 0; d < list.size(); ++d) {
        tasks.push_back({client, endpoint, &list[d], hashes[l][d], opts[l], false});
      }
    }
  }
}

/// Stage 1 of the pipeline and the whole of a fan-out: one hermetic
/// CenTrace measurement per task, seeded from its (endpoint, domain,
/// protocol, vantage) identity. `plan` (optional) escalates unlocalized
/// blocked verdicts to multi-vantage tomography.
std::vector<trace::CenTraceReport> run_trace_tasks(ShardMerger& merger,
                                                   std::uint64_t network_seed,
                                                   const std::vector<TraceTask>& tasks,
                                                   const std::string& control_domain,
                                                   const trace::DegradationPlan* plan) {
  std::vector<std::uint64_t> keys;
  keys.reserve(tasks.size());
  for (const TraceTask& t : tasks) {
    const std::uint64_t tag =
        static_cast<std::uint64_t>(t.opts->protocol) | (t.incountry ? 0x8u : 0x0u);
    keys.push_back(task_key_hashed(t.endpoint.value(), t.dhash, tag));
  }
  std::vector<trace::CenTraceReport> reports(tasks.size());
  merger.run(derive_task_seeds(network_seed, kTraceStageSalt, keys), "stage:centrace",
             [&](sim::Network& net, std::size_t i) {
               const TraceTask& t = tasks[i];
               reports[i] = trace::measure_with_degradation(
                   net, t.client, t.endpoint, *t.domain, control_domain, *t.opts, plan);
             });
  return reports;
}

/// Every measurement runs hermetically — on a worker-private replica, or
/// inline on the scenario network — reset to a task-derived epoch, so the
/// merged result is identical for every `threads` value.
PipelineResult run(const PipelineInput& in, const PipelineOptions& options) {
  PipelineResult result;
  result.country = in.country;
  sim::Network& net = *in.network;
  // Install the plan on the prototype BEFORE cloning so replicas carry it.
  net.set_fault_plan(options.faults);

  ParallelExecutor exec(net, options.threads);
  ShardMerger merger(exec, options.observer);

  const trace::CenTraceOptions http_opts =
      trace_options(options, trace::ProbeProtocol::kHttp);
  const trace::CenTraceOptions https_opts =
      trace_options(options, trace::ProbeProtocol::kHttps);

  const std::vector<std::string> http_domains = take(in.http_domains, options.max_domains);
  const std::vector<std::string> https_domains = take(in.https_domains, options.max_domains);

  // ---- Stage 1: remote + in-country CenTrace as one hermetic batch. ----
  std::vector<TraceTask> tasks;
  add_trace_tasks(tasks, in.remote_client, sample(in.remote_endpoints, options.max_endpoints),
                  {&http_domains, &https_domains}, {&http_opts, &https_opts});
  const std::size_t n_remote = tasks.size();
  if (in.incountry_client != sim::kInvalidNode && !in.foreign_endpoints.empty()) {
    std::size_t idx = 0;
    for (const std::string& domain : in.http_domains) {
      if (idx >= in.foreign_endpoints.size()) break;
      tasks.push_back({in.incountry_client, in.foreign_endpoints[idx++], &domain,
                       domain_hash(domain), &http_opts, true});
    }
    for (const std::string& domain : in.https_domains) {
      if (idx >= in.foreign_endpoints.size()) break;
      tasks.push_back({in.incountry_client, in.foreign_endpoints[idx++], &domain,
                       domain_hash(domain), &https_opts, true});
    }
  }
  std::vector<trace::CenTraceReport> reports =
      run_trace_tasks(merger, net.seed(), tasks, in.control_domain, nullptr);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    (i < n_remote ? result.remote_traces : result.incountry_traces)
        .push_back(std::move(reports[i]));
  }

  const std::map<std::uint32_t, const trace::CenTraceReport*> blocked =
      representative_blocked(result.remote_traces);

  // ---- Stage 2: CenProbe every distinct in-path blocking-hop IP. ----
  if (options.run_banner) {
    std::vector<net::Ipv4Address> probe_ips;
    std::set<std::uint32_t> seen;
    for (const trace::CenTraceReport& r : result.remote_traces) {
      // Only in-path devices have a probeable IP (§5.1); on-path taps are
      // invisible to the management plane.
      if (!r.blocked || !r.blocking_hop_ip ||
          r.placement == trace::DevicePlacement::kOnPath) {
        continue;
      }
      if (seen.insert(r.blocking_hop_ip->value()).second) {
        probe_ips.push_back(*r.blocking_hop_ip);
      }
    }
    std::vector<std::uint64_t> probe_keys;
    probe_keys.reserve(probe_ips.size());
    for (net::Ipv4Address ip : probe_ips) {
      probe_keys.push_back(task_key(ip.value(), {}, 0x10));
    }
    std::vector<probe::DeviceProbeReport> probes(probe_ips.size());
    merger.run(derive_task_seeds(net.seed(), kProbeStageSalt, probe_keys), "stage:cenprobe",
               [&](sim::Network& replica, std::size_t i) {
                 probes[i] = probe::run(replica, probe::ProbeRunOptions{probe_ips[i]});
               });
    for (std::size_t i = 0; i < probe_ips.size(); ++i) {
      result.device_probes.emplace(probe_ips[i].value(), std::move(probes[i]));
    }
  }

  // ---- Stage 3: CenFuzz blocked endpoints (sampled under the cap). ----
  std::map<std::uint32_t, fuzz::CenFuzzReport> fuzz_by_endpoint;
  if (options.run_fuzz) {
    std::vector<std::uint32_t> blocked_eps;
    for (const auto& [ip, report] : blocked) blocked_eps.push_back(ip);
    std::vector<std::uint32_t> fuzz_targets;
    for (std::size_t idx :
         stride_sample_indices(blocked_eps.size(), options.fuzz_max_endpoints)) {
      fuzz_targets.push_back(blocked_eps[idx]);
    }
    std::vector<std::uint64_t> fuzz_keys;
    fuzz_keys.reserve(fuzz_targets.size());
    for (std::uint32_t ep : fuzz_targets) {
      fuzz_keys.push_back(task_key(ep, blocked.at(ep)->test_domain, 0x20));
    }
    std::vector<fuzz::CenFuzzReport> fuzzes(fuzz_targets.size());
    merger.run(derive_task_seeds(net.seed(), kFuzzStageSalt, fuzz_keys), "stage:cenfuzz",
               [&](sim::Network& replica, std::size_t i) {
                 fuzz::CenFuzz fuzzer(replica, in.remote_client);
                 fuzzes[i] = fuzzer.run(net::Ipv4Address(fuzz_targets[i]),
                                        blocked.at(fuzz_targets[i])->test_domain,
                                        in.control_domain);
               });
    for (std::size_t i = 0; i < fuzz_targets.size(); ++i) {
      fuzz_by_endpoint.emplace(fuzz_targets[i], std::move(fuzzes[i]));
    }
  }

  bundle(result.measurements, in.country, blocked, result.device_probes, fuzz_by_endpoint);
  merger.export_stats();
  return result;
}

}  // namespace

std::map<std::uint32_t, const trace::CenTraceReport*> representative_blocked(
    const std::vector<trace::CenTraceReport>& traces) {
  std::map<std::uint32_t, const trace::CenTraceReport*> out;
  for (const trace::CenTraceReport& r : traces) {
    if (r.blocked) out.emplace(r.endpoint.value(), &r);
  }
  return out;
}

void bundle(std::vector<ml::EndpointMeasurement>& out, const std::string& country,
            const std::map<std::uint32_t, const trace::CenTraceReport*>& blocked,
            const std::map<std::uint32_t, probe::DeviceProbeReport>& device_probes,
            const std::map<std::uint32_t, fuzz::CenFuzzReport>& fuzz_by_endpoint,
            const std::map<std::uint32_t, ambig::AmbigReport>& ambig_by_endpoint) {
  for (const auto& [ep, rep] : blocked) {
    ml::EndpointMeasurement m;
    m.endpoint_id = net::Ipv4Address(ep).str();
    m.country = country;
    m.trace = *rep;
    auto fz = fuzz_by_endpoint.find(ep);
    if (fz != fuzz_by_endpoint.end()) m.fuzz = fz->second;
    auto am = ambig_by_endpoint.find(ep);
    if (am != ambig_by_endpoint.end()) m.ambig = am->second;
    if (rep->blocking_hop_ip) {
      auto pb = device_probes.find(rep->blocking_hop_ip->value());
      if (pb != device_probes.end()) m.banner = pb->second;
    }
    out.push_back(std::move(m));
  }
}

PipelineResult run_country_pipeline(CountryScenario& scenario,
                                    const PipelineOptions& options) {
  PipelineInput in;
  in.network = scenario.network.get();
  in.remote_client = scenario.remote_client;
  in.incountry_client = scenario.incountry_client;
  in.remote_endpoints = scenario.remote_endpoints;
  in.foreign_endpoints = scenario.foreign_endpoints;
  in.http_domains = scenario.http_test_domains;
  in.https_domains = scenario.https_test_domains;
  in.control_domain = scenario.control_domain;
  in.country = std::string(country_code(scenario.country));
  return run(in, options);
}

ConsistencyStats localisation_consistency(const PipelineResult& result) {
  ConsistencyStats stats;
  // endpoint -> (as -> count, hop_ip -> count, total blocked)
  struct PerEndpoint {
    std::map<std::uint32_t, int> by_as;
    std::map<std::uint32_t, int> by_hop;
    int blocked = 0;
  };
  std::map<std::uint32_t, PerEndpoint> endpoints;
  for (const trace::CenTraceReport& t : result.remote_traces) {
    if (!t.blocked) continue;
    PerEndpoint& pe = endpoints[t.endpoint.value()];
    ++pe.blocked;
    if (t.blocking_as) pe.by_as[t.blocking_as->asn]++;
    if (t.blocking_hop_ip) pe.by_hop[t.blocking_hop_ip->value()]++;
  }
  double as_sum = 0.0, hop_sum = 0.0;
  for (const auto& [ip, pe] : endpoints) {
    if (pe.blocked < 2) continue;
    ++stats.endpoints_with_multiple_blocked;
    int modal_as = 0, modal_hop = 0;
    for (const auto& [asn, n] : pe.by_as) modal_as = std::max(modal_as, n);
    for (const auto& [hop, n] : pe.by_hop) modal_hop = std::max(modal_hop, n);
    as_sum += static_cast<double>(modal_as) / pe.blocked;
    hop_sum += static_cast<double>(modal_hop) / pe.blocked;
  }
  if (stats.endpoints_with_multiple_blocked > 0) {
    stats.mean_modal_as_share =
        as_sum / static_cast<double>(stats.endpoints_with_multiple_blocked);
    stats.mean_modal_hop_share =
        hop_sum / static_cast<double>(stats.endpoints_with_multiple_blocked);
  }
  return stats;
}

std::vector<trace::CenTraceReport> run_trace_fanout(
    sim::Network& net, sim::NodeId client,
    const std::vector<net::Ipv4Address>& endpoints,
    const std::vector<std::string>& domains, const std::string& control_domain,
    const trace::CenTraceOptions& trace_opts, int threads, obs::Observer* observer,
    const trace::DegradationPlan* plan) {
  // Same task identities as the pipeline's remote stage 1, so a fan-out of
  // the same (endpoint, domain, protocol) set replays the same substreams.
  std::vector<TraceTask> tasks;
  tasks.reserve(endpoints.size() * domains.size());
  add_trace_tasks(tasks, client, endpoints, {&domains}, {&trace_opts});
  ParallelExecutor exec(net, threads);
  ShardMerger merger(exec, observer);
  std::vector<trace::CenTraceReport> reports =
      run_trace_tasks(merger, net.seed(), tasks, control_domain, plan);
  merger.export_stats();
  return reports;
}

PipelineResult run_world_pipeline(WorldScenario& scenario, const PipelineOptions& options) {
  PipelineInput in;
  in.network = scenario.network.get();
  in.remote_client = scenario.client;
  in.remote_endpoints = scenario.endpoints;
  in.http_domains = scenario.http_test_domains;
  in.https_domains = scenario.https_test_domains;
  in.control_domain = scenario.control_domain;
  in.country = "WORLD";
  return run(in, options);
}

}  // namespace cen::scenario
