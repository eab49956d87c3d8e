#include "campaign/campaign.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "campaign/cache.hpp"
#include "centrace/degrade.hpp"
#include "core/json.hpp"
#include "ml/dbscan.hpp"
#include "obs/observer.hpp"
#include "report/from_json.hpp"
#include "report/json_report.hpp"
#include "scenario/executor.hpp"
#include "scenario/pipeline.hpp"
#include "scenario/silent.hpp"
#include "scenario/world.hpp"

namespace cen::campaign {

namespace {

/// Campaign-wide executed-batch budget (RunControl::max_batches).
struct Budget {
  int max_batches = -1;
  int used = 0;
  bool exhausted() const { return max_batches >= 0 && used >= max_batches; }
};

/// One stage's compiled task list: parallel arrays over task index.
struct StageTasks {
  std::vector<std::string> ids;        // "<CC>:<stage>:<subject>..."
  std::vector<std::string> cache_keys; // 128-bit content-hash keys
  std::vector<std::uint64_t> identity; // task_key() for seed derivation
};

/// Execute one stage's uncached tasks in batches, filling `docs` (one
/// result document per task, cache hits included). Returns false when the
/// batch budget ran out with work still pending; `docs` is then only
/// partially filled and the campaign must stop.
bool run_stage(sim::Network& net, const CampaignSpec& spec, const RunControl& control,
               ResultCache& cache, Budget& budget, StageStats& stats,
               std::unique_ptr<scenario::ParallelExecutor>& exec, std::string_view stage,
               const StageTasks& tasks, std::uint64_t salt,
               const std::function<bool(std::string_view)>& validate,
               const std::function<std::string(sim::Network&, std::size_t)>& execute,
               std::vector<std::string>& docs) {
  const std::size_t n = tasks.ids.size();
  stats.tasks += n;
  docs.assign(n, std::string());
  if (n == 0) return true;

  // Seeds always derive over the FULL task list: the cache state must
  // never be able to change which substream a task runs under.
  const std::vector<std::uint64_t> seeds =
      scenario::derive_task_seeds(net.seed(), salt, tasks.identity);

  const auto batch = static_cast<std::size_t>(spec.batch_size);
  for (std::size_t start = 0; start < n; start += batch) {
    const std::size_t end = std::min(start + batch, n);
    std::vector<std::size_t> missing;
    for (std::size_t i = start; i < end; ++i) {
      const std::string* hit = cache.find(tasks.cache_keys[i]);
      // A cached record that no longer decodes (hand-edited file, torn
      // write that still parsed) is treated as absent and re-executed.
      if (hit != nullptr && validate(*hit)) {
        docs[i] = *hit;
        ++stats.cache_hits;
      } else {
        missing.push_back(i);
      }
    }
    if (missing.empty()) continue;
    if (budget.exhausted()) return false;

    if (exec == nullptr) {
      exec = std::make_unique<scenario::ParallelExecutor>(net, control.threads);
      if (control.observer != nullptr) exec->set_perf_tracking(true);
    }
    std::vector<std::uint64_t> sub_seeds;
    sub_seeds.reserve(missing.size());
    for (std::size_t i : missing) sub_seeds.push_back(seeds[i]);
    exec->run(sub_seeds, [&](sim::Network& worker, std::size_t j) {
      docs[missing[j]] = execute(worker, missing[j]);
    });
    for (std::size_t i : missing) {
      cache.put(tasks.cache_keys[i], stage, tasks.ids[i], docs[i]);
    }
    cache.flush();  // batch boundary == crash-checkpoint boundary
    ++budget.used;
    ++stats.batches;
    stats.executed += missing.size();
  }
  return true;
}

std::vector<std::string> sampled(const std::vector<std::string>& all, int cap) {
  std::vector<std::string> out;
  for (std::size_t idx : scenario::stride_sample_indices(all.size(), cap)) {
    out.push_back(all[idx]);
  }
  return out;
}

/// One measurement site: the per-network slice of campaign state the
/// stage loop runs against. Country campaigns build one site per country;
/// a world campaign (spec.world) builds a single worldgen-backed site.
/// Both reach the stage loop through this shape, so the task DAG, cache
/// keys and seed substreams are computed identically.
struct Site {
  std::string code;  ///< country code, or the world spec's name
  std::unique_ptr<sim::Network> network;
  sim::NodeId client = sim::kInvalidNode;
  std::vector<net::Ipv4Address> endpoints;
  std::vector<std::string> http_domains;
  std::vector<std::string> https_domains;
  std::string control_domain;
  /// Extra tomography vantages (world sites have none: the generated
  /// world hosts a single measurement client).
  std::vector<sim::NodeId> vantages;
};

Site build_country_site(scenario::Country c, const CampaignSpec& spec) {
  scenario::CountryScenario sc = scenario::make_country(c, spec.scale, spec.seed);
  Site site;
  site.code = std::string(scenario::country_code(c));
  site.client = sc.remote_client;
  site.endpoints = std::move(sc.remote_endpoints);
  site.http_domains = std::move(sc.http_test_domains);
  site.https_domains = std::move(sc.https_test_domains);
  site.control_domain = std::move(sc.control_domain);
  site.vantages = scenario::tomography_vantages(sc, spec.trace_vantages);
  site.network = std::move(sc.network);
  return site;
}

Site build_world_site(const CampaignSpec& spec) {
  scenario::WorldScenario ws = scenario::make_world(*spec.world, spec.seed);
  Site site;
  site.code = spec.world->name;
  site.client = ws.client;
  site.endpoints = std::move(ws.endpoints);
  site.http_domains = std::move(ws.http_test_domains);
  site.https_domains = std::move(ws.https_test_domains);
  site.control_domain = std::move(ws.control_domain);
  site.network = std::move(ws.network);
  return site;
}

void stage_span(obs::Observer* observer, const std::string& country,
                std::string_view stage, std::size_t task_count) {
  if (observer == nullptr) return;
  // Span boundaries must be run-invariant (span counts and contents show
  // up in deterministic snapshots), so the "duration" encodes the task
  // count rather than any execution timing.
  observer->tracer().complete("campaign:" + country + ":" + std::string(stage),
                              "campaign", 0, static_cast<SimTime>(task_count));
}

}  // namespace

CampaignResult run(const CampaignSpec& spec, const RunControl& control) {
  CampaignResult result;
  result.name = spec.name;
  const bool world_mode = spec.world.has_value();
  const std::vector<scenario::Country> countries =
      world_mode ? std::vector<scenario::Country>{} : spec.effective_countries();
  if (world_mode) {
    result.countries.push_back(spec.world->name);
  } else {
    for (scenario::Country c : countries) {
      result.countries.emplace_back(scenario::country_code(c));
    }
  }

  ResultCache cache(control.cache_path);
  const std::size_t preloaded = cache.load();
  Budget budget{control.max_batches, 0};
  obs::Observer* observer = control.observer;
  if (observer != nullptr) {
    // Cache/batch bookkeeping depends on the run history, not the spec —
    // wall domain, excluded from deterministic snapshots.
    observer->metrics()
        .counter("campaign.cache_preloaded", obs::Domain::kWall)
        .inc(preloaded);
  }

  const std::uint64_t fault_fp = spec.faults.fingerprint();

  const std::size_t site_count = world_mode ? 1 : countries.size();
  for (std::size_t site_index = 0; site_index < site_count; ++site_index) {
    // Sites are built one at a time, so at most one scenario network is
    // resident (matters for 1M-endpoint worlds).
    Site site = world_mode ? build_world_site(spec)
                           : build_country_site(countries[site_index], spec);
    sim::Network& net = *site.network;
    if (spec.evolution && spec.evolution_epoch > 0) {
      // Replay censor evolution up to the spec's epoch on the fresh
      // baseline. Device mutations land in the network fingerprint below,
      // so churned sites (and only churned sites) miss the result cache.
      // Rule adds draw from the *measured* domain lists (spec overrides
      // win, as in the trace stage) so churn is observable in the diffs.
      std::vector<std::string> pool =
          spec.http_domains.empty() ? site.http_domains : spec.http_domains;
      const std::vector<std::string>& https =
          spec.https_domains.empty() ? site.https_domains : spec.https_domains;
      pool.insert(pool.end(), https.begin(), https.end());
      longit::apply_evolution(net, site.code, *spec.evolution,
                              spec.evolution_epoch, pool);
    }
    net.set_fault_plan(spec.faults);
    const std::uint64_t net_fp = net.fingerprint();
    const std::string& code = site.code;
    std::unique_ptr<scenario::ParallelExecutor> exec;  // lazy, shared by stages

    // ---- Stage 1: CenTrace over (endpoint × domain × protocol). ----
    std::vector<net::Ipv4Address> endpoints;
    for (std::size_t idx : scenario::stride_sample_indices(site.endpoints.size(),
                                                           spec.max_endpoints)) {
      endpoints.push_back(site.endpoints[idx]);
    }
    const std::vector<std::string> http_domains = sampled(
        spec.http_domains.empty() ? site.http_domains : spec.http_domains,
        spec.max_domains);
    const std::vector<std::string> https_domains = sampled(
        spec.https_domains.empty() ? site.https_domains : spec.https_domains,
        spec.max_domains);

    trace::CenTraceOptions http_opts = spec.trace;
    http_opts.protocol = trace::ProbeProtocol::kHttp;
    trace::CenTraceOptions https_opts = spec.trace;
    https_opts.protocol = trace::ProbeProtocol::kHttps;

    // Degradation plan: escalate unlocalized blocked traces to tomography
    // from the scenario's other clients. The plan fingerprint joins the
    // cache key only when enabled so existing caches stay valid.
    trace::DegradationPlan degrade_plan;
    degrade_plan.tomography = spec.trace_tomography;
    degrade_plan.vantages = site.vantages;
    const trace::DegradationPlan* plan =
        spec.trace_tomography ? &degrade_plan : nullptr;
    const std::uint64_t plan_fp =
        spec.trace_tomography ? degrade_plan.fingerprint() : 0;

    struct TraceTask {
      net::Ipv4Address endpoint;
      const std::string* domain = nullptr;
      std::uint64_t dhash = 0;  // domain_hash(*domain), once per domain
      const trace::CenTraceOptions* opts = nullptr;
    };
    std::vector<TraceTask> trace_tasks;
    StageTasks trace_stage;
    if (spec.stages.trace) {
      // Hash each domain once: the stage is endpoints x domains, so the
      // per-task FNV pass would repeat per endpoint for the same string.
      std::vector<std::uint64_t> http_hashes, https_hashes;
      http_hashes.reserve(http_domains.size());
      for (const std::string& d : http_domains) {
        http_hashes.push_back(scenario::domain_hash(d));
      }
      https_hashes.reserve(https_domains.size());
      for (const std::string& d : https_domains) {
        https_hashes.push_back(scenario::domain_hash(d));
      }
      for (const net::Ipv4Address& ep : endpoints) {
        for (std::size_t d = 0; d < http_domains.size(); ++d) {
          trace_tasks.push_back({ep, &http_domains[d], http_hashes[d], &http_opts});
        }
        for (std::size_t d = 0; d < https_domains.size(); ++d) {
          trace_tasks.push_back({ep, &https_domains[d], https_hashes[d], &https_opts});
        }
      }
      for (const TraceTask& t : trace_tasks) {
        trace_stage.ids.push_back(code + ":trace:" + t.endpoint.str() + ":" + *t.domain +
                                  ":" + std::string(trace::probe_protocol_name(t.opts->protocol)));
        trace_stage.identity.push_back(scenario::task_key_hashed(
            t.endpoint.value(), t.dhash, static_cast<std::uint64_t>(t.opts->protocol)));
        trace_stage.cache_keys.push_back(task_cache_key(net_fp, spec.seed, fault_fp, "trace",
                                                        trace_stage.ids.back(),
                                                        t.opts->fingerprint() ^ plan_fp));
      }
    }
    std::vector<std::string> trace_docs;
    if (!run_stage(
            net, spec, control, cache, budget, result.trace, exec, "trace", trace_stage,
            scenario::kTraceStageSalt,
            [](std::string_view doc) { return report::trace_report_from_json(doc).has_value(); },
            [&](sim::Network& worker, std::size_t i) {
              const TraceTask& t = trace_tasks[i];
              trace::TraceRunOptions ropts;
              ropts.client = site.client;
              ropts.endpoint = t.endpoint;
              ropts.test_domain = *t.domain;
              ropts.control_domain = site.control_domain;
              ropts.trace = *t.opts;
              ropts.degradation = plan;
              trace::CenTraceReport rep = trace::run(worker, ropts);
              return report::to_json(rep);
            },
            trace_docs)) {
      return result;  // budget exhausted: incomplete, resume via the cache
    }

    // Every downstream decision runs off DECODED records — identical
    // whether the record was fresh or cached.
    std::vector<trace::CenTraceReport> traces;
    traces.reserve(trace_docs.size());
    for (std::size_t i = 0; i < trace_docs.size(); ++i) {
      traces.push_back(*report::trace_report_from_json(trace_docs[i]));
      result.records.push_back({"trace", trace_stage.ids[i], code, trace_docs[i]});
    }
    stage_span(observer, code, "trace", trace_stage.ids.size());

    // ---- Stage 2: CenProbe every distinct in-path blocking-hop IP. ----
    std::set<std::uint32_t> device_ips;
    for (const trace::CenTraceReport& r : traces) {
      if (r.blocked && r.blocking_hop_ip &&
          r.placement != trace::DevicePlacement::kOnPath) {
        device_ips.insert(r.blocking_hop_ip->value());
      }
    }
    StageTasks probe_stage;
    std::vector<std::uint32_t> probe_targets;
    if (spec.stages.probe) {
      for (std::uint32_t ip : device_ips) {
        probe_targets.push_back(ip);
        probe_stage.ids.push_back(code + ":probe:" + net::Ipv4Address(ip).str());
        probe_stage.identity.push_back(scenario::task_key(ip, "", 0x10));
        probe_stage.cache_keys.push_back(
            task_cache_key(net_fp, spec.seed, fault_fp, "probe", probe_stage.ids.back(), 0));
      }
    }
    std::vector<std::string> probe_docs;
    if (!run_stage(
            net, spec, control, cache, budget, result.probe, exec, "probe", probe_stage,
            scenario::kProbeStageSalt,
            [](std::string_view doc) { return report::probe_report_from_json(doc).has_value(); },
            [&](sim::Network& worker, std::size_t i) {
              probe::DeviceProbeReport rep =
                  probe::run(worker, probe::ProbeRunOptions{net::Ipv4Address(probe_targets[i])});
              return report::to_json(rep);
            },
            probe_docs)) {
      return result;
    }
    std::map<std::uint32_t, probe::DeviceProbeReport> device_probes;
    for (std::size_t i = 0; i < probe_docs.size(); ++i) {
      device_probes.emplace(probe_targets[i], *report::probe_report_from_json(probe_docs[i]));
      result.records.push_back({"probe", probe_stage.ids[i], code, probe_docs[i]});
    }
    stage_span(observer, code, "probe", probe_stage.ids.size());

    // ---- Stage 3: CenFuzz blocked endpoints (first blocked trace per
    // endpoint is the representative, as in the pipeline). ----
    const std::map<std::uint32_t, const trace::CenTraceReport*> blocked_by_endpoint =
        scenario::representative_blocked(traces);
    result.blocked_endpoints += blocked_by_endpoint.size();

    std::vector<std::uint32_t> blocked_eps;
    for (const auto& [ip, rep] : blocked_by_endpoint) blocked_eps.push_back(ip);
    StageTasks fuzz_stage;
    std::vector<std::uint32_t> fuzz_targets;
    if (spec.stages.fuzz) {
      for (std::size_t idx :
           scenario::stride_sample_indices(blocked_eps.size(), spec.fuzz_max_endpoints)) {
        fuzz_targets.push_back(blocked_eps[idx]);
      }
      for (std::uint32_t ep : fuzz_targets) {
        const std::string& domain = blocked_by_endpoint.at(ep)->test_domain;
        fuzz_stage.ids.push_back(code + ":fuzz:" + net::Ipv4Address(ep).str() + ":" + domain);
        fuzz_stage.identity.push_back(scenario::task_key(ep, domain, 0x20));
        fuzz_stage.cache_keys.push_back(task_cache_key(
            net_fp, spec.seed, fault_fp, "fuzz", fuzz_stage.ids.back(), spec.fuzz.fingerprint()));
      }
    }
    std::vector<std::string> fuzz_docs;
    if (!run_stage(
            net, spec, control, cache, budget, result.fuzz, exec, "fuzz", fuzz_stage,
            scenario::kFuzzStageSalt,
            [](std::string_view doc) { return report::fuzz_report_from_json(doc).has_value(); },
            [&](sim::Network& worker, std::size_t i) {
              const trace::CenTraceReport* rep = blocked_by_endpoint.at(fuzz_targets[i]);
              fuzz::FuzzRunOptions ropts;
              ropts.client = site.client;
              ropts.endpoint = net::Ipv4Address(fuzz_targets[i]);
              ropts.test_domain = rep->test_domain;
              ropts.control_domain = site.control_domain;
              ropts.fuzz = spec.fuzz;
              fuzz::CenFuzzReport fz = fuzz::run(worker, ropts);
              return report::to_json(fz);
            },
            fuzz_docs)) {
      return result;
    }
    std::map<std::uint32_t, fuzz::CenFuzzReport> fuzz_by_endpoint;
    for (std::size_t i = 0; i < fuzz_docs.size(); ++i) {
      fuzz_by_endpoint.emplace(fuzz_targets[i], *report::fuzz_report_from_json(fuzz_docs[i]));
      result.records.push_back({"fuzz", fuzz_stage.ids[i], code, fuzz_docs[i]});
    }
    stage_span(observer, code, "fuzz", fuzz_stage.ids.size());

    // ---- Stage 3b: CenAmbig the blocked endpoints — reassembly-ambiguity
    // fingerprinting for deployments whose banners are dark. ----
    StageTasks ambig_stage;
    std::vector<std::uint32_t> ambig_targets;
    if (spec.stages.ambig) {
      for (std::size_t idx :
           scenario::stride_sample_indices(blocked_eps.size(), spec.ambig_max_endpoints)) {
        ambig_targets.push_back(blocked_eps[idx]);
      }
      for (std::uint32_t ep : ambig_targets) {
        const std::string& domain = blocked_by_endpoint.at(ep)->test_domain;
        ambig_stage.ids.push_back(code + ":ambig:" + net::Ipv4Address(ep).str() + ":" + domain);
        ambig_stage.identity.push_back(scenario::task_key(ep, domain, 0x30));
        ambig_stage.cache_keys.push_back(task_cache_key(
            net_fp, spec.seed, fault_fp, "ambig", ambig_stage.ids.back(),
            spec.ambig.fingerprint()));
      }
    }
    std::vector<std::string> ambig_docs;
    if (!run_stage(
            net, spec, control, cache, budget, result.ambig, exec, "ambig", ambig_stage,
            scenario::kAmbigStageSalt,
            [](std::string_view doc) { return report::ambig_report_from_json(doc).has_value(); },
            [&](sim::Network& worker, std::size_t i) {
              ambig::AmbigRunOptions ropts;
              ropts.client = site.client;
              ropts.endpoint = net::Ipv4Address(ambig_targets[i]);
              ropts.test_domain = blocked_by_endpoint.at(ambig_targets[i])->test_domain;
              ropts.control_domain = site.control_domain;
              ropts.ambig = spec.ambig;
              ambig::AmbigReport rep = ambig::run(worker, ropts);
              return report::to_json(rep);
            },
            ambig_docs)) {
      return result;
    }
    std::map<std::uint32_t, ambig::AmbigReport> ambig_by_endpoint;
    for (std::size_t i = 0; i < ambig_docs.size(); ++i) {
      ambig_by_endpoint.emplace(ambig_targets[i], *report::ambig_report_from_json(ambig_docs[i]));
      result.records.push_back({"ambig", ambig_stage.ids[i], code, ambig_docs[i]});
    }
    stage_span(observer, code, "ambig", ambig_stage.ids.size());

    // ---- Stage 4: bundle one measurement per blocked endpoint. ----
    scenario::bundle(result.measurements, code, blocked_by_endpoint, device_probes,
                     fuzz_by_endpoint, ambig_by_endpoint);

    // Executor overhead + path-cache stats for this site's executor (if a
    // stage executed anything) — wall domain, --perf-report only.
    if (observer != nullptr && exec != nullptr) {
      obs::Registry& m = observer->metrics();
      const scenario::ExecutorPerf& p = exec->perf();
      m.counter("perf.clone_ns", obs::Domain::kWall)
          .inc(p.clone_ns.load(std::memory_order_relaxed));
      m.counter("perf.reset_ns", obs::Domain::kWall)
          .inc(p.reset_ns.load(std::memory_order_relaxed));
      m.counter("perf.tasks", obs::Domain::kWall)
          .inc(p.tasks.load(std::memory_order_relaxed));
      m.counter("perf.batches", obs::Domain::kWall)
          .inc(p.batches.load(std::memory_order_relaxed));
      m.counter("pathcache.hits", obs::Domain::kWall).inc(exec->path_cache_hits());
      m.counter("pathcache.misses", obs::Domain::kWall).inc(exec->path_cache_misses());
      m.counter("pathcache.searches", obs::Domain::kWall).inc(exec->path_searches());
    }
  }

  // ---- Stage 5: feature extraction + DBSCAN, exactly the cencluster
  // convention (impute → standardize → k-distance ε with k = 4). ----
  if (spec.stages.cluster && !result.measurements.empty()) {
    ml::FeatureMatrix fm = ml::extract_features(result.measurements);
    ml::impute_median(fm);
    ml::standardize(fm);
    result.row_ids = fm.row_ids;
    if (fm.n_rows() > 4) {
      const double eps = ml::estimate_epsilon(fm.rows, 4);
      ml::DbscanResult db = ml::dbscan(fm.rows, eps, 4);
      result.cluster_labels = std::move(db.labels);
      result.n_clusters = db.n_clusters;
    } else {
      // Too few rows for the k = 4 heuristic: everything is noise.
      result.cluster_labels.assign(fm.n_rows(), ml::kNoise);
    }
    for (int label : result.cluster_labels) {
      if (label == ml::kNoise) ++result.noise_rows;
    }
  }

  result.complete = true;

  if (observer != nullptr) {
    obs::Registry& m = observer->metrics();
    // Record-derived metrics are functions of the spec alone — sim
    // domain, identical across thread counts, cache states and resumes.
    m.counter("campaign.trace_tasks").inc(result.trace.tasks);
    m.counter("campaign.probe_tasks").inc(result.probe.tasks);
    m.counter("campaign.fuzz_tasks").inc(result.fuzz.tasks);
    m.counter("campaign.ambig_tasks").inc(result.ambig.tasks);
    m.counter("campaign.blocked_endpoints").inc(result.blocked_endpoints);
    m.counter("campaign.measurements").inc(result.measurements.size());
    m.gauge("campaign.clusters").set_max(result.n_clusters);
    // Execution bookkeeping varies with the cache and the batch budget —
    // wall domain.
    m.counter("campaign.tasks_executed", obs::Domain::kWall).inc(result.tool_tasks_executed());
    m.counter("campaign.cache_hits", obs::Domain::kWall).inc(result.cache_hits());
    m.counter("campaign.batches_executed", obs::Domain::kWall)
        .inc(result.trace.batches + result.probe.batches + result.fuzz.batches +
             result.ambig.batches);
  }
  return result;
}

std::string CampaignResult::to_jsonl() const {
  std::string out;
  for (const CampaignRecord& r : records) {
    JsonWriter w;
    w.begin_object();
    w.key("stage").value(r.stage);
    w.key("task").value(r.task_id);
    w.key("country").value(r.country);
    w.key("result").raw_value(r.json);
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

std::string CampaignResult::summary_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("campaign").value(name);
  w.key("complete").value(complete);
  w.key("countries").begin_array();
  for (const std::string& c : countries) w.value(c);
  w.end_array();
  w.key("trace_tasks").value(static_cast<std::uint64_t>(trace.tasks));
  w.key("probe_tasks").value(static_cast<std::uint64_t>(probe.tasks));
  w.key("fuzz_tasks").value(static_cast<std::uint64_t>(fuzz.tasks));
  w.key("ambig_tasks").value(static_cast<std::uint64_t>(ambig.tasks));
  w.key("blocked_endpoints").value(static_cast<std::uint64_t>(blocked_endpoints));
  w.key("measurements").value(static_cast<std::uint64_t>(measurements.size()));
  w.key("clusters").value(n_clusters);
  w.key("noise_rows").value(static_cast<std::uint64_t>(noise_rows));
  w.key("labels").begin_array();
  for (std::size_t i = 0; i < row_ids.size(); ++i) {
    w.begin_object();
    w.key("endpoint").value(row_ids[i]);
    w.key("cluster").value(i < cluster_labels.size() ? cluster_labels[i] : ml::kNoise);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace cen::campaign
