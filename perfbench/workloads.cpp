#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "alloc_counter.hpp"
#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "cenambig/cenambig.hpp"
#include "cenfuzz/cenfuzz.hpp"
#include "cenfuzz/strategies.hpp"
#include "cenprobe/fingerprints.hpp"
#include "censor/dpi.hpp"
#include "centrace/centrace.hpp"
#include "core/fingerprint.hpp"
#include "longit/longit.hpp"
#include "ml/dbscan.hpp"
#include "ml/features.hpp"
#include "obs/observer.hpp"
#include "report/epoch_diff.hpp"
#include "report/from_json.hpp"
#include "report/json_report.hpp"
#include "scenario/country.hpp"
#include "scenario/pipeline.hpp"
#include "spans.hpp"
#include "worldgen/generate.hpp"

namespace perfbench {
namespace {

using namespace cen;
using Clock = std::chrono::steady_clock;
using Scope = SpanRecorder::Scope;
namespace fs = std::filesystem;

constexpr int kPassThreads = 2;       // every timed pass
constexpr int kReferenceThreads = 1;  // digest reference + allocation count
// setup_s is the median of kMinSetups builds before the reference pass
// plus, in an end-to-end run, a slice of builds before every timed pass:
// at least one, then until kSetupSliceS has passed (at most
// kMaxSetupSlice builds). The host's speed drifts over seconds, so
// sampling set-up across the whole run gives a steadier median. The
// slice length is fixed, so a change in pass time cannot shift the
// share of cache-cold builds right after a pass.
constexpr int kMinSetups = 3;
constexpr double kSetupSliceS = 0.02;
constexpr int kMaxSetupSlice = 1000;
constexpr int kMinPasses = 3;         // per timed phase, even past --seconds
constexpr int kMinTracedPasses = 2;   // per phase of a traced run
constexpr double kMiB = 1024.0 * 1024.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t digest(std::string_view text) { return FingerprintBuilder().mix(text).digest(); }

std::uint64_t task_seed(std::uint64_t seed, std::uint64_t index) {
  return FingerprintBuilder().mix(seed).mix(index).digest();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Mean of the values added.
struct Mean {
  double sum = 0.0;
  std::size_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double value() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

// ---------------------------------------------------------------------------
// Per-layer metrics: every traced run reports all of them; a layer a
// workload never calls reads 0 (see NOTES.md for which apply where).

struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"scenario.clone_ms", "ms"},
    {"scenario.reset_us_per_task", "us"},
    {"scenario.tasks_per_batch", "tasks"},
    {"scenario.build_ms", "ms"},
    {"netsim.forward_walks", "walks/report"},
    {"netsim.hops", "hops/walk"},
    {"netsim.walk_us", "us"},
    {"netsim.path_search_ms", "ms"},
    {"netsim.path_cache_misses", "count"},
    {"censor.http_parse_ns", "ns"},
    {"censor.sni_parse_ns", "ns"},
    {"centrace.report_ms", "ms"},
    {"centrace.sweeps_per_report", "sweeps"},
    {"centrace.probes_per_report", "probes"},
    {"cenfuzz.report_ms", "ms"},
    {"cenfuzz.requests_per_report", "requests"},
    {"cenprobe.report_ms", "ms"},
    {"cenprobe.grabs_per_report", "grabs"},
    {"cenambig.report_ms", "ms"},
    {"cenambig.probes_per_report", "probes"},
    {"ml.features_ms", "ms"},
    {"ml.dbscan_ms", "ms"},
    {"report.encode_us_per_record", "us"},
    {"report.decode_us_per_record", "us"},
    {"report.diff_ms", "ms"},
    {"campaign.cache_load_ms", "ms"},
    {"campaign.cache_mb", "MiB"},
    {"campaign.hit_ratio", "ratio"},
    {"campaign.epoch_quiet_ms", "ms"},
    {"campaign.epoch_churned_ms", "ms"},
    {"longit.churn_replay_ms", "ms"},
    {"longit.states_ms", "ms"},
    {"worldgen.generate_ms", "ms"},
    {"worldgen.instantiate_ms", "ms"},
    {"worldgen.bytes_per_endpoint", "B"},
    {"alloc.per_probe", "allocs/probe"},
    {"alloc.calls_per_pass", "count"},
    {"alloc.mb_per_pass", "MiB"},
    {"trace.overhead_ms", "ms"},
};

/// Layers whose self time the traced run reports as self.<layer>_ms.
const char* const kSelfLayers[] = {"scenario", "worldgen", "netsim",  "censor",
                                   "centrace", "cenprobe", "cenfuzz", "cenambig",
                                   "ml",       "report",   "campaign", "longit"};

using Layers = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Ground-truth scoring.

struct Truth {
  std::map<std::pair<std::string, std::uint32_t>, std::string> vendor_by_ip;  // (site, mgmt ip)
  std::set<std::pair<std::string, std::uint32_t>> device_asns;                // (site, asn)

  void add(const std::string& site, const std::vector<scenario::DeviceTruth>& devices) {
    for (const scenario::DeviceTruth& d : devices) {
      vendor_by_ip[{site, d.mgmt_ip.value()}] = d.vendor;
      device_asns.insert({site, d.asn});
    }
  }
};

struct QualityTally {
  std::size_t labelled = 0;
  std::size_t label_matches = 0;
  std::size_t blocked = 0;
  std::size_t blocked_in_device_as = 0;

  void add_probe(const Truth& truth, const std::string& site,
                 const probe::DeviceProbeReport& r) {
    if (!r.vendor) return;
    ++labelled;
    auto it = truth.vendor_by_ip.find({site, r.ip.value()});
    if (it != truth.vendor_by_ip.end() && it->second == *r.vendor) ++label_matches;
  }
  void add_trace(const Truth& truth, const std::string& site,
                 const trace::CenTraceReport& r) {
    if (!r.blocked) return;
    ++blocked;
    if (r.blocking_as && truth.device_asns.count({site, r.blocking_as->asn}) != 0) {
      ++blocked_in_device_as;
    }
  }
  /// Campaign records: decode the trace and probe documents.
  void add_records(const Truth& truth, const std::vector<campaign::CampaignRecord>& records) {
    for (const campaign::CampaignRecord& rec : records) {
      if (rec.stage == "trace") {
        add_trace(truth, rec.country, report::trace_report_from_json(rec.json).value());
      } else if (rec.stage == "probe") {
        add_probe(truth, rec.country, report::probe_report_from_json(rec.json).value());
      }
    }
  }
  // A run with nothing to score has made no mistake: 1.0, not 0/0.
  double vendor_label_accuracy() const {
    return labelled == 0 ? 1.0 : static_cast<double>(label_matches) / labelled;
  }
  double blocking_as_precision() const {
    return blocked == 0 ? 1.0 : static_cast<double>(blocked_in_device_as) / blocked;
  }
};

// ---------------------------------------------------------------------------
// Layer sweep: calls into each layer's public functions on one site of
// the workload's own inputs, every call inside a span.

struct SweepSite {
  sim::Network* net = nullptr;  // fresh: no pass has touched its path cache
  sim::NodeId client = sim::kInvalidNode;
  const std::vector<net::Ipv4Address>* endpoints = nullptr;
  const std::vector<std::string>* http_domains = nullptr;
  const std::vector<std::string>* https_domains = nullptr;
  std::string control_domain;
};

struct SweepPlan {
  int endpoints = 0;    // per disjoint half: traced / path-searched
  int trace_tasks = 0;  // stride sample of (traced endpoint x domain)
  int repetitions = 11;
  int probe_tasks = 0;
  int fuzz_tasks = 0;
  int ambig_tasks = 0;
};

struct SweepTotals {
  Mean path_ms, walk_us, trace_ms, probe_ms, fuzz_ms, ambig_ms;
  double http_ns = 0.0, http_calls = 0.0, sni_ns = 0.0, sni_calls = 0.0;
  Mean sweeps, fuzz_requests, probe_grabs, ambig_probes;
  std::uint64_t walks = 0, hops = 0, trace_probes = 0, trace_measurements = 0;

  void into(Layers& layer) const {
    layer["netsim.path_search_ms"] = path_ms.value();
    layer["netsim.walk_us"] = walk_us.value();
    layer["netsim.forward_walks"] = ratio(static_cast<double>(walks),
                                          static_cast<double>(trace_measurements));
    layer["netsim.hops"] = ratio(static_cast<double>(hops), static_cast<double>(walks));
    layer["censor.http_parse_ns"] = ratio(http_ns, http_calls);
    layer["censor.sni_parse_ns"] = ratio(sni_ns, sni_calls);
    layer["centrace.report_ms"] = trace_ms.value();
    layer["centrace.sweeps_per_report"] = sweeps.value();
    layer["centrace.probes_per_report"] = ratio(static_cast<double>(trace_probes),
                                                static_cast<double>(trace_measurements));
    layer["cenprobe.report_ms"] = probe_ms.value();
    layer["cenprobe.grabs_per_report"] = probe_grabs.value();
    layer["cenfuzz.report_ms"] = fuzz_ms.value();
    layer["cenfuzz.requests_per_report"] = fuzz_requests.value();
    layer["cenambig.report_ms"] = ambig_ms.value();
    layer["cenambig.probes_per_report"] = ambig_probes.value();
  }
};

double ms_since(Clock::time_point t0) { return 1000.0 * seconds_since(t0); }

/// Time dpi_parse_* over every payload x quirk pair until at least
/// `min_ms` has passed; adds (nanoseconds, calls).
template <typename Payload, typename Quirks, typename Parse>
void time_parse(SpanRecorder& spans, const char* span, const std::vector<Payload>& payloads,
                const std::vector<Quirks>& quirks, Parse parse, double& ns, double& calls) {
  if (payloads.empty() || quirks.empty()) return;
  Scope s(spans, span);
  constexpr double kMinMs = 20.0;
  std::size_t engaged = 0;
  const auto t0 = Clock::now();
  do {
    for (const Payload& p : payloads) {
      for (const Quirks& q : quirks) {
        if (parse(p, q)) ++engaged;
        calls += 1.0;
      }
    }
  } while (ms_since(t0) < kMinMs);
  ns += 1e6 * ms_since(t0);
  if (engaged == 0) std::fprintf(stderr, "perfbench: %s never engaged\n", span);
}

void sweep_site(const SweepSite& site, const SweepPlan& plan, std::uint64_t seed,
                SpanRecorder& spans, SweepTotals& tot) {
  sim::Network& net = *site.net;
  // Two disjoint endpoint halves: one is traced (its path searches happen
  // inside CenTrace, as in a pass), the other measures cold path search
  // and then the packet walk on the warmed paths.
  std::vector<net::Ipv4Address> traced, searched;
  {
    const auto idx = scenario::stride_sample_indices(site.endpoints->size(), 2 * plan.endpoints);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      (k % 2 == 0 ? traced : searched).push_back((*site.endpoints)[idx[k]]);
    }
  }

  for (net::Ipv4Address ep : searched) {
    const std::optional<sim::NodeId> node = net.topology().find_by_ip(ep);
    if (!node) continue;
    Scope s(spans, "netsim.path_search");
    const auto t0 = Clock::now();
    const std::size_t paths = net.topology().equal_cost_paths(site.client, *node).size();
    tot.path_ms.add(ms_since(t0));
    if (paths == 0) std::fprintf(stderr, "perfbench: no path to %s\n", ep.str().c_str());
  }

  const Bytes control = trace::CenTrace::make_payload(trace::ProbeProtocol::kHttp,
                                                      site.control_domain);
  constexpr int kSendsPerConnection = 4;
  for (std::size_t i = 0; i < searched.size(); ++i) {
    net.reset_epoch(task_seed(seed, 0x1000 + i));
    sim::Connection conn = net.open_connection(site.client, searched[i], 80);
    if (conn.connect() != sim::ConnectResult::kEstablished) continue;
    Scope s(spans, "netsim.walk");
    for (int k = 0; k < kSendsPerConnection; ++k) {
      const auto t0 = Clock::now();
      const std::vector<sim::Event> events = conn.send(control, 64);
      tot.walk_us.add(1000.0 * ms_since(t0));
    }
  }

  // DPI parsing over the site's canonical and fuzzed payloads under every
  // deployed device's quirks.
  {
    std::vector<std::string> http_payloads;
    std::vector<Bytes> tls_payloads;
    for (const std::string& d : *site.http_domains) {
      const Bytes canon = trace::CenTrace::make_payload(trace::ProbeProtocol::kHttp, d);
      http_payloads.emplace_back(canon.begin(), canon.end());
      for (const fuzz::FuzzProbe& p : fuzz::http_probes(d)) {
        http_payloads.emplace_back(p.payload.begin(), p.payload.end());
      }
    }
    for (const std::string& d : *site.https_domains) {
      tls_payloads.push_back(trace::CenTrace::make_payload(trace::ProbeProtocol::kHttps, d));
      for (const fuzz::FuzzProbe& p : fuzz::tls_probes(d)) tls_payloads.push_back(p.payload);
    }
    std::vector<censor::HttpQuirks> http_quirks;
    std::vector<censor::TlsQuirks> tls_quirks;
    std::set<std::string> vendors;
    for (const auto& dev : net.devices()) {
      if (!vendors.insert(dev->config().vendor).second) continue;
      http_quirks.push_back(dev->config().http_quirks);
      tls_quirks.push_back(dev->config().tls_quirks);
    }
    time_parse(spans, "censor.http_parse", http_payloads, http_quirks,
               [](const std::string& p, const censor::HttpQuirks& q) {
                 return censor::dpi_parse_http(p, q).has_value();
               },
               tot.http_ns, tot.http_calls);
    time_parse(spans, "censor.sni_parse", tls_payloads, tls_quirks,
               [](const Bytes& p, const censor::TlsQuirks& q) {
                 return censor::dpi_parse_sni(p, q).has_value();
               },
               tot.sni_ns, tot.sni_calls);
  }

  // CenTrace over a stride sample of (traced endpoint x domain x protocol).
  std::vector<trace::TraceRunOptions> trace_tasks;
  {
    std::vector<trace::TraceRunOptions> all;
    for (net::Ipv4Address ep : traced) {
      for (auto [domains, protocol] :
           {std::pair{site.http_domains, trace::ProbeProtocol::kHttp},
            std::pair{site.https_domains, trace::ProbeProtocol::kHttps}}) {
        for (const std::string& d : *domains) {
          trace::TraceRunOptions o;
          o.client = site.client;
          o.endpoint = ep;
          o.test_domain = d;
          o.control_domain = site.control_domain;
          o.trace.repetitions = plan.repetitions;
          o.trace.protocol = protocol;
          all.push_back(std::move(o));
        }
      }
    }
    for (std::size_t i : scenario::stride_sample_indices(all.size(), plan.trace_tasks)) {
      trace_tasks.push_back(all[i]);
      trace_tasks.back().common.seed = task_seed(seed, 0x2000 + trace_tasks.size());
    }
  }
  std::vector<trace::CenTraceReport> reports;
  for (const trace::TraceRunOptions& o : trace_tasks) {
    Scope s(spans, "centrace.run");
    const auto t0 = Clock::now();
    reports.push_back(trace::run(net, o));
    tot.trace_ms.add(ms_since(t0));
    tot.sweeps.add(static_cast<double>(reports.back().control_traces.size() +
                                       reports.back().test_traces.size()));
  }
  {
    // The same tasks again under an observer, for the engine and probe
    // counters (kept out of the timed calls above).
    Scope s(spans, "harness.count");
    obs::Observer counting;
    for (const trace::TraceRunOptions& o : trace_tasks) trace::run(net, o, &counting);
    const obs::Registry& m = counting.metrics();
    tot.walks += m.counter_value("engine.forward_walks");
    tot.hops += m.counter_value("engine.hops_traversed");
    tot.trace_probes += m.counter_value("centrace.probes");
    tot.trace_measurements += m.counter_value("centrace.measurements");
  }

  // CenProbe on the distinct in-path devices the sample found; CenFuzz
  // and CenAmbig on its blocked endpoints.
  std::vector<net::Ipv4Address> device_ips;
  std::vector<const trace::CenTraceReport*> blocked;
  {
    std::set<std::uint32_t> seen_ip, seen_ep;
    for (const trace::CenTraceReport& r : reports) {
      if (!r.blocked) continue;
      if (seen_ep.insert(r.endpoint.value()).second) blocked.push_back(&r);
      if (r.blocking_hop_ip && r.placement != trace::DevicePlacement::kOnPath &&
          seen_ip.insert(r.blocking_hop_ip->value()).second) {
        device_ips.push_back(*r.blocking_hop_ip);
      }
    }
  }
  for (std::size_t i = 0; i < device_ips.size() && static_cast<int>(i) < plan.probe_tasks; ++i) {
    probe::ProbeRunOptions o;
    o.ip = device_ips[i];
    o.common.seed = task_seed(seed, 0x3000 + i);
    Scope s(spans, "cenprobe.run");
    const auto t0 = Clock::now();
    const probe::DeviceProbeReport r = probe::run(net, o);
    tot.probe_ms.add(ms_since(t0));
    tot.probe_grabs.add(static_cast<double>(r.banners.size()));
  }
  for (std::size_t i = 0; i < blocked.size() && static_cast<int>(i) < plan.fuzz_tasks; ++i) {
    fuzz::FuzzRunOptions o;
    o.client = site.client;
    o.endpoint = blocked[i]->endpoint;
    o.test_domain = blocked[i]->test_domain;
    o.control_domain = site.control_domain;
    o.common.seed = task_seed(seed, 0x4000 + i);
    Scope s(spans, "cenfuzz.run");
    const auto t0 = Clock::now();
    const fuzz::CenFuzzReport r = fuzz::run(net, o);
    tot.fuzz_ms.add(ms_since(t0));
    tot.fuzz_requests.add(static_cast<double>(r.total_requests));
  }
  for (std::size_t i = 0; i < blocked.size() && static_cast<int>(i) < plan.ambig_tasks; ++i) {
    ambig::AmbigRunOptions o;
    o.client = site.client;
    o.endpoint = blocked[i]->endpoint;
    o.test_domain = blocked[i]->test_domain;
    o.control_domain = site.control_domain;
    o.common.seed = task_seed(seed, 0x5000 + i);
    Scope s(spans, "cenambig.run");
    const auto t0 = Clock::now();
    const ambig::AmbigReport r = ambig::run(net, o);
    tot.ambig_ms.add(ms_since(t0));
    tot.ambig_probes.add(static_cast<double>(r.total_probes_sent));
  }
}

/// Feature extraction (+ impute, standardize) and DBSCAN (k-distance ε,
/// k = 4), the campaign's cluster stage, timed on `rows`.
void time_ml(const std::vector<ml::EndpointMeasurement>& rows, SpanRecorder& spans,
             Layers& layer) {
  if (rows.empty()) return;
  constexpr int kRepeats = 5;
  std::vector<double> features_ms, dbscan_ms;
  for (int r = 0; r < kRepeats; ++r) {
    ml::FeatureMatrix fm;
    {
      Scope s(spans, "ml.features");
      const auto t0 = Clock::now();
      fm = ml::extract_features(rows);
      ml::impute_median(fm);
      ml::standardize(fm);
      features_ms.push_back(ms_since(t0));
    }
    if (fm.n_rows() > 4) {
      Scope s(spans, "ml.dbscan");
      const auto t0 = Clock::now();
      const double eps = ml::estimate_epsilon(fm.rows, 4);
      const ml::DbscanResult db = ml::dbscan(fm.rows, eps, 4);
      dbscan_ms.push_back(ms_since(t0));
      if (db.labels.size() != fm.n_rows()) std::fprintf(stderr, "perfbench: dbscan rows\n");
    }
  }
  layer["ml.features_ms"] = median(features_ms);
  layer["ml.dbscan_ms"] = median(dbscan_ms);
}

/// Decode every record document (by stage) and re-encode the decoded
/// report; per-record medians over a few repeats.
void time_report(const std::vector<campaign::CampaignRecord>& records, SpanRecorder& spans,
                 Layers& layer) {
  if (records.empty()) return;
  constexpr int kRepeats = 3;
  std::vector<double> decode_us, encode_us;
  for (int r = 0; r < kRepeats; ++r) {
    std::vector<trace::CenTraceReport> traces;
    std::vector<probe::DeviceProbeReport> probes;
    std::vector<fuzz::CenFuzzReport> fuzzes;
    std::vector<ambig::AmbigReport> ambigs;
    {
      Scope s(spans, "report.decode");
      const auto t0 = Clock::now();
      for (const campaign::CampaignRecord& rec : records) {
        if (rec.stage == "trace") {
          traces.push_back(report::trace_report_from_json(rec.json).value());
        } else if (rec.stage == "probe") {
          probes.push_back(report::probe_report_from_json(rec.json).value());
        } else if (rec.stage == "fuzz") {
          fuzzes.push_back(report::fuzz_report_from_json(rec.json).value());
        } else if (rec.stage == "ambig") {
          ambigs.push_back(report::ambig_report_from_json(rec.json).value());
        }
      }
      decode_us.push_back(1000.0 * ms_since(t0) / static_cast<double>(records.size()));
    }
    Scope s(spans, "report.encode");
    const auto t0 = Clock::now();
    std::size_t bytes = 0;
    for (const auto& x : traces) bytes += report::to_json(x).size();
    for (const auto& x : probes) bytes += report::to_json(x).size();
    for (const auto& x : fuzzes) bytes += report::to_json(x).size();
    for (const auto& x : ambigs) bytes += report::to_json(x).size();
    encode_us.push_back(1000.0 * ms_since(t0) / static_cast<double>(records.size()));
    if (bytes == 0) std::fprintf(stderr, "perfbench: empty encodings\n");
  }
  layer["report.decode_us_per_record"] = median(decode_us);
  layer["report.encode_us_per_record"] = median(encode_us);
}

/// Executor and path-cache counters a traced pass leaves in its observer.
/// The pipeline exports them as wall-domain gauges, the campaign engine as
/// wall-domain counters summed over sites and epochs.
void perf_into(obs::Observer& o, bool as_gauges, Layers& layer) {
  obs::Registry& m = o.metrics();
  auto read = [&](const std::string& name) {
    return as_gauges ? static_cast<double>(m.gauge(name, obs::Domain::kWall).value())
                     : static_cast<double>(m.counter_value(name));
  };
  const double tasks = read("perf.tasks");
  layer["scenario.clone_ms"] = read("perf.clone_ns") / 1e6;
  layer["scenario.reset_us_per_task"] = ratio(read("perf.reset_ns") / 1e3, tasks);
  layer["scenario.tasks_per_batch"] = ratio(tasks, read("perf.batches"));
  layer["netsim.path_cache_misses"] = read("pathcache.misses");
  // The campaign engine runs its tool tasks without the observer, so
  // these stay 0 on campaign workloads (NOTES.md, finding 1).
  std::fprintf(stderr, "perfbench: observer engine.forward_walks %llu, centrace.probes %llu\n",
               static_cast<unsigned long long>(m.counter_value("engine.forward_walks")),
               static_cast<unsigned long long>(m.counter_value("centrace.probes")));
}

// ---------------------------------------------------------------------------
// Workloads.

struct PassOutput {
  double seconds = 0.0;      // the library call alone
  std::uint64_t digest = 0;  // 64-bit digest of the whole output
  std::size_t reports = 0;   // tool reports delivered (fresh or cached)
  bool ok = true;            // complete, and every guard held
};

class Workload {
 public:
  Workload(const RunConfig& config, SpanRecorder& spans) : config_(config), spans_(spans) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Build the scenario, world or spec once; returns its seconds.
  virtual double setup() = 0;
  /// Untimed preparation between set-up and the reference pass.
  virtual void prepare() {}
  /// One pass; the reference pass's output is kept for scoring.
  virtual PassOutput pass(int threads, obs::Observer* observer, bool reference) = 0;
  /// Ground-truth quality of the reference pass.
  virtual void quality(std::vector<Metric>& out) = 0;
  /// CenTrace probes of the reference pass (0 = unknown from outside).
  virtual std::uint64_t reference_probes() const { return 0; }
  /// Untimed 2-worker passes between the reference and the timed ones.
  virtual int warmup_passes() const { return 0; }
  virtual void perf(obs::Observer& observer, Layers& layer) = 0;
  virtual void sweep(Layers& layer) = 0;

 protected:
  const RunConfig& config_;
  SpanRecorder& spans_;
};

// kz-full -------------------------------------------------------------------

class KzFull final : public Workload {
 public:
  using Workload::Workload;

  double setup() override {
    const auto t0 = Clock::now();
    auto s = std::make_unique<scenario::CountryScenario>();
    {
      Scope span(spans_, "scenario.build");
      *s = scenario::make_country(scenario::Country::kKZ, scenario::Scale::kFull,
                                  config_.seed);
    }
    const double dt = seconds_since(t0);
    build_ms_.push_back(1000.0 * dt);
    if (!scenario_) {
      scenario_ = std::move(s);
    } else if (config_.trace && !fresh_) {
      fresh_ = std::move(s);  // untouched by passes: the sweep's cold network
    }
    return dt;
  }

  // After the 1-worker reference, the first two 2-worker passes run up
  // to twice as long as the later ones.
  int warmup_passes() const override { return 3; }

  PassOutput pass(int threads, obs::Observer* observer, bool reference) override {
    scenario::PipelineOptions o;
    o.centrace_repetitions = 11;
    o.fuzz_max_endpoints = 40;
    o.threads = threads;
    o.observer = observer;
    const auto t0 = Clock::now();
    scenario::PipelineResult r = scenario::run_country_pipeline(*scenario_, o);
    PassOutput out;
    out.seconds = seconds_since(t0);
    out.digest = digest(report::to_json(r));
    out.reports = r.remote_traces.size() + r.incountry_traces.size() + r.device_probes.size();
    for (const ml::EndpointMeasurement& m : r.measurements) out.reports += m.fuzz ? 1 : 0;
    if (reference) reference_ = std::move(r);
    return out;
  }

  void quality(std::vector<Metric>& out) override {
    Truth truth;
    truth.add("KZ", scenario_->devices);
    QualityTally q;
    for (const auto& [ip, p] : reference_.device_probes) q.add_probe(truth, "KZ", p);
    for (const trace::CenTraceReport& t : reference_.remote_traces) q.add_trace(truth, "KZ", t);
    out.push_back({"vendor_label_accuracy", q.vendor_label_accuracy(), "ratio"});
    out.push_back({"blocking_as_precision", q.blocking_as_precision(), "ratio"});
    out.push_back({"churn_recall", 1.0, "ratio"});  // no churn to miss
  }

  std::uint64_t reference_probes() const override {
    std::uint64_t n = 0;
    for (const auto* list : {&reference_.remote_traces, &reference_.incountry_traces}) {
      for (const trace::CenTraceReport& r : *list) {
        for (const auto* sweeps : {&r.control_traces, &r.test_traces}) {
          for (const trace::SingleTrace& s : *sweeps) n += s.hops.size();
        }
      }
    }
    return n;
  }

  void perf(obs::Observer& observer, Layers& layer) override { perf_into(observer, true, layer); }

  void sweep(Layers& layer) override {
    layer["scenario.build_ms"] = median(build_ms_);
    SweepSite site{fresh_->network.get(),
                   fresh_->remote_client,
                   &fresh_->remote_endpoints,
                   &fresh_->http_test_domains,
                   &fresh_->https_test_domains,
                   fresh_->control_domain};
    SweepTotals tot;
    const SweepPlan plan{.endpoints = 24, .trace_tasks = 96, .repetitions = 11,
                         .probe_tasks = 16, .fuzz_tasks = 12, .ambig_tasks = 8};
    sweep_site(site, plan, config_.seed, spans_, tot);
    tot.into(layer);
    time_ml(reference_.measurements, spans_, layer);
    std::vector<campaign::CampaignRecord> records;
    for (const trace::CenTraceReport& r : reference_.remote_traces) {
      records.push_back({"trace", "", "KZ", report::to_json(r)});
    }
    for (const auto& [ip, p] : reference_.device_probes) {
      records.push_back({"probe", "", "KZ", report::to_json(p)});
    }
    for (const ml::EndpointMeasurement& m : reference_.measurements) {
      if (m.fuzz) records.push_back({"fuzz", "", "KZ", report::to_json(*m.fuzz)});
    }
    time_report(records, spans_, layer);
  }

 private:
  std::unique_ptr<scenario::CountryScenario> scenario_;
  std::unique_ptr<scenario::CountryScenario> fresh_;
  std::vector<double> build_ms_;
  scenario::PipelineResult reference_;
};

// longit-churn --------------------------------------------------------------

class LongitChurn final : public Workload {
 public:
  LongitChurn(const RunConfig& config, SpanRecorder& spans)
      : Workload(config, spans),
        dir_(fs::path(config.workdir) /
             ("longit-" + std::to_string(config.seed) + "-" + std::to_string(getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~LongitChurn() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  double setup() override {
    const auto t0 = Clock::now();
    longit::LongitSpec spec;
    spec.base.name = "longit-churn";
    spec.base.countries = scenario::all_countries();
    spec.base.scale = scenario::Scale::kSmall;
    spec.base.seed = config_.seed;
    spec.base.trace.repetitions = 3;
    spec.epochs = 12;
    spec.collect_churn = false;  // ground truth is scored outside the pass
    longit::EvolutionPlan plan;
    plan.seed = 11;
    plan.period = 2;
    plan.rule_add_prob = 0.5;
    plan.rule_remove_prob = 0.25;
    plan.vendor_upgrade_prob = 0.25;
    plan.blockpage_swap_prob = 0.25;
    plan.coverage_drift_prob = 0.5;
    spec.base.evolution = plan;
    // The baseline sites: ground truth for scoring, cold networks for the
    // sweep.
    std::vector<scenario::CountryScenario> sites;
    for (scenario::Country c : spec.base.countries) {
      Scope span(spans_, "scenario.build");
      const auto tb = Clock::now();
      sites.push_back(scenario::make_country(c, spec.base.scale, spec.base.seed));
      build_ms_.push_back(ms_since(tb));
    }
    const double dt = seconds_since(t0);
    if (sites_.empty()) {
      spec_ = std::move(spec);
      sites_ = std::move(sites);
    }
    return dt;
  }

  void prepare() override {
    Scope span(spans_, "longit.churn_replay");
    const auto t0 = Clock::now();
    for (const longit::EpochChurn& ec : longit::ground_truth_churn(spec_.base, spec_.epochs - 1)) {
      if (ec.any()) churned_.insert(ec.epoch);
    }
    churn_replay_ms_ = ms_since(t0);
  }

  PassOutput pass(int threads, obs::Observer* observer, bool reference) override {
    const fs::path cache = fresh_cache();
    campaign::RunControl control;
    control.threads = threads;
    control.cache_path = cache.string();
    control.observer = observer;
    const auto t0 = Clock::now();
    longit::LongitResult r = longit::run(spec_, control);
    PassOutput out;
    out.seconds = seconds_since(t0);
    out.digest = digest(r.to_json());
    out.ok = r.complete && static_cast<int>(r.epochs.size()) == spec_.epochs;
    for (const longit::EpochSummary& e : r.epochs) {
      out.reports += e.records;
      // Zero-churn guard: a quiet epoch executes nothing and diffs empty.
      if (e.epoch > 0 && churned_.count(e.epoch) == 0 && (e.executed != 0 || e.diff.any())) {
        out.ok = false;
      }
    }
    if (reference) {
      reference_ = std::move(r);
      reference_cache_ = cache;
    } else {
      fs::remove_all(cache.parent_path());
    }
    return out;
  }

  void quality(std::vector<Metric>& out) override {
    std::size_t detected = 0;
    for (const longit::EpochSummary& e : reference_.epochs) {
      if (churned_.count(e.epoch) != 0 && e.diff.any()) ++detected;
    }
    // Verdict quality of the baseline epoch, replayed from the reference
    // pass's cache (every task is a cache hit).
    campaign::CampaignSpec base = spec_.base;
    base.evolution_epoch = 0;
    campaign::RunControl control;
    control.threads = kPassThreads;
    control.cache_path = reference_cache_.string();
    baseline_ = campaign::run(base, control);
    Truth truth;
    for (const scenario::CountryScenario& s : sites_) {
      truth.add(std::string(scenario::country_code(s.country)), s.devices);
    }
    QualityTally q;
    q.add_records(truth, baseline_.records);
    out.push_back({"vendor_label_accuracy", q.vendor_label_accuracy(), "ratio"});
    out.push_back({"blocking_as_precision", q.blocking_as_precision(), "ratio"});
    out.push_back({"churn_recall",
                   churned_.empty() ? 1.0 : static_cast<double>(detected) / churned_.size(),
                   "ratio"});
  }

  void perf(obs::Observer& observer, Layers& layer) override {
    perf_into(observer, false, layer);
  }

  void sweep(Layers& layer) override {
    layer["scenario.build_ms"] = median(build_ms_);
    layer["longit.churn_replay_ms"] = churn_replay_ms_;
    SweepTotals tot;
    for (scenario::CountryScenario& s : sites_) {
      SweepSite site{s.network.get(),
                     s.remote_client,
                     &s.remote_endpoints,
                     &s.http_test_domains,
                     &s.https_test_domains,
                     s.control_domain};
      const SweepPlan plan{.endpoints = 8, .trace_tasks = 16, .repetitions = 3,
                           .probe_tasks = 4, .fuzz_tasks = 4, .ambig_tasks = 2};
      sweep_site(site, plan, config_.seed, spans_, tot);
    }
    tot.into(layer);
    time_ml(baseline_.measurements, spans_, layer);
    time_report(baseline_.records, spans_, layer);

    // The result cache the reference pass left behind.
    std::size_t hits = 0, executed = 0;
    for (const longit::EpochSummary& e : reference_.epochs) {
      hits += e.cache_hits;
      executed += e.executed;
    }
    layer["campaign.hit_ratio"] = ratio(static_cast<double>(hits),
                                        static_cast<double>(hits + executed));
    layer["campaign.cache_mb"] = static_cast<double>(fs::file_size(reference_cache_)) / kMiB;
    std::vector<double> load_ms;
    for (int r = 0; r < 3; ++r) {
      campaign::ResultCache cache(reference_cache_.string());
      Scope span(spans_, "campaign.cache_load");
      const auto t0 = Clock::now();
      const std::size_t n = cache.load();
      load_ms.push_back(ms_since(t0));
      if (n == 0) std::fprintf(stderr, "perfbench: empty cache reload\n");
    }
    layer["campaign.cache_load_ms"] = median(load_ms);

    // The epoch loop, one campaign::run per epoch on a fresh cache, then
    // the state extraction and diff longit::run does after each.
    const fs::path cache = fresh_cache();
    campaign::RunControl control;
    control.threads = kPassThreads;
    control.cache_path = cache.string();
    Mean quiet_ms, churned_ms, states_ms, diff_ms;
    std::vector<report::EndpointEpochState> prev;
    for (int epoch = 0; epoch < spec_.epochs; ++epoch) {
      campaign::CampaignSpec s = spec_.base;
      s.evolution_epoch = epoch;
      campaign::CampaignResult cr;
      {
        Scope span(spans_, "campaign.epoch");
        const auto t0 = Clock::now();
        cr = campaign::run(s, control);
        (epoch == 0 || churned_.count(epoch) != 0 ? churned_ms : quiet_ms).add(ms_since(t0));
      }
      std::vector<report::EndpointEpochState> states;
      {
        Scope span(spans_, "longit.states");
        const auto t0 = Clock::now();
        states = longit::extract_epoch_states(cr);
        states_ms.add(ms_since(t0));
      }
      if (epoch > 0) {
        Scope span(spans_, "report.diff");
        const auto t0 = Clock::now();
        const report::EpochDiff d = report::diff_epochs(prev, states, epoch - 1, epoch);
        diff_ms.add(ms_since(t0));
        if (churned_.count(epoch) == 0 && d.any()) {
          std::fprintf(stderr, "perfbench: quiet epoch %d diffed non-empty\n", epoch);
        }
      }
      prev = std::move(states);
    }
    fs::remove_all(cache.parent_path());
    layer["campaign.epoch_quiet_ms"] = quiet_ms.value();
    layer["campaign.epoch_churned_ms"] = churned_ms.value();
    layer["longit.states_ms"] = states_ms.value();
    layer["report.diff_ms"] = diff_ms.value();
  }

 private:
  /// A new empty directory for one run's cache; returns the cache path.
  fs::path fresh_cache() {
    const fs::path d = dir_ / ("run-" + std::to_string(++runs_));
    fs::create_directories(d);
    return d / "cache.jsonl";
  }

  fs::path dir_;
  int runs_ = 0;
  longit::LongitSpec spec_;
  std::vector<scenario::CountryScenario> sites_;
  std::vector<double> build_ms_;
  std::set<int> churned_;
  double churn_replay_ms_ = 0.0;
  longit::LongitResult reference_;
  fs::path reference_cache_;
  campaign::CampaignResult baseline_;
};

// world-1m ------------------------------------------------------------------

class World1m final : public Workload {
 public:
  World1m(const RunConfig& config, SpanRecorder& spans) : Workload(config, spans) {
    spec_.name = "world-1m";
    spec_.world = worldgen::WorldSpec::tier("1m");
    spec_.seed = config.seed;
    spec_.max_endpoints = 500;
    spec_.trace.repetitions = 3;
    spec_.fuzz_max_endpoints = 40;
    spec_.stages.ambig = true;
    spec_.ambig_max_endpoints = 40;
  }

  double setup() override {
    Scope build(spans_, "scenario.build");
    const auto t0 = Clock::now();
    std::optional<worldgen::World> world;
    {
      Scope span(spans_, "worldgen.generate");
      world = worldgen::generate(*spec_.world, spec_.seed);
    }
    const double gen_s = seconds_since(t0);
    auto scenario = std::make_unique<worldgen::GeneratedScenario>();
    {
      Scope span(spans_, "worldgen.instantiate");
      *scenario = worldgen::instantiate(*world);
    }
    const double dt = seconds_since(t0);
    generate_ms_.push_back(1000.0 * gen_s);
    instantiate_ms_.push_back(1000.0 * (dt - gen_s));
    if (truth_.device_asns.empty()) {
      truth_.add(spec_.world->name, scenario->devices);
      bytes_per_endpoint_ = ratio(static_cast<double>(world->bytes()),
                                  static_cast<double>(world->endpoint_ips.size()));
    }
    // Only a traced run keeps a world resident (its sweep's cold network);
    // end-to-end runs release it before the passes measure memory.
    if (config_.trace) scenario_ = std::move(scenario);
    return dt;
  }

  PassOutput pass(int threads, obs::Observer* observer, bool reference) override {
    campaign::RunControl control;
    control.threads = threads;
    control.observer = observer;
    const auto t0 = Clock::now();
    campaign::CampaignResult r = campaign::run(spec_, control);
    PassOutput out;
    out.seconds = seconds_since(t0);
    out.digest = digest(r.to_jsonl());
    out.reports = r.records.size();
    out.ok = r.complete;
    if (reference) reference_ = std::move(r);
    return out;
  }

  void quality(std::vector<Metric>& out) override {
    QualityTally q;
    q.add_records(truth_, reference_.records);
    out.push_back({"vendor_label_accuracy", q.vendor_label_accuracy(), "ratio"});
    out.push_back({"blocking_as_precision", q.blocking_as_precision(), "ratio"});
    out.push_back({"churn_recall", 1.0, "ratio"});  // no churn to miss
  }

  void perf(obs::Observer& observer, Layers& layer) override {
    perf_into(observer, false, layer);
  }

  void sweep(Layers& layer) override {
    layer["worldgen.generate_ms"] = median(generate_ms_);
    layer["worldgen.instantiate_ms"] = median(instantiate_ms_);
    layer["worldgen.bytes_per_endpoint"] = bytes_per_endpoint_;
    std::vector<double> build_ms;
    for (std::size_t i = 0; i < generate_ms_.size(); ++i) {
      build_ms.push_back(generate_ms_[i] + instantiate_ms_[i]);
    }
    layer["scenario.build_ms"] = median(build_ms);
    layer["campaign.hit_ratio"] =
        ratio(static_cast<double>(reference_.cache_hits()),
              static_cast<double>(reference_.cache_hits() + reference_.tool_tasks_executed()));
    SweepSite site{scenario_->network.get(),
                   scenario_->client,
                   &scenario_->endpoints,
                   &scenario_->http_test_domains,
                   &scenario_->https_test_domains,
                   scenario_->control_domain};
    SweepTotals tot;
    const SweepPlan plan{.endpoints = 24, .trace_tasks = 48, .repetitions = 3,
                         .probe_tasks = 8, .fuzz_tasks = 8, .ambig_tasks = 8};
    sweep_site(site, plan, config_.seed, spans_, tot);
    tot.into(layer);
    time_ml(reference_.measurements, spans_, layer);
    time_report(reference_.records, spans_, layer);
  }

 private:
  campaign::CampaignSpec spec_;
  Truth truth_;
  double bytes_per_endpoint_ = 0.0;
  std::vector<double> generate_ms_, instantiate_ms_;
  std::unique_ptr<worldgen::GeneratedScenario> scenario_;
  campaign::CampaignResult reference_;
};

std::unique_ptr<Workload> make_workload(const RunConfig& config, SpanRecorder& spans) {
  if (config.workload == "kz-full") return std::make_unique<KzFull>(config, spans);
  if (config.workload == "longit-churn") return std::make_unique<LongitChurn>(config, spans);
  if (config.workload == "world-1m") return std::make_unique<World1m>(config, spans);
  throw std::invalid_argument("unknown workload: " + config.workload);
}

// ---------------------------------------------------------------------------
// Harness.

/// Repeat 2-worker passes for `budget` seconds (at least `min_passes`),
/// checking each output against the reference digest. A traced phase
/// gives every pass its own observer and keeps the last pass's counters.
/// Returns the seconds of each pass that matched the reference. When
/// `setup_s` is set, a slice of set-up builds precedes every pass.
std::vector<double> timed_passes(Workload& w, SpanRecorder& spans, const PassOutput& ref,
                                 double budget, int min_passes, bool traced, Layers& layer,
                                 RunResult& result, std::vector<double>* setup_s) {
  std::vector<double> seconds;
  const auto t0 = Clock::now();
  for (int n = 0; n < min_passes || seconds_since(t0) < budget; ++n) {
    if (setup_s != nullptr) {
      const auto slice = Clock::now();
      for (int k = 0; k == 0 || (k < kMaxSetupSlice && seconds_since(slice) < kSetupSliceS);
           ++k) {
        setup_s->push_back(w.setup());
      }
    }
    ++result.attempted;
    try {
      Scope span(spans, traced ? "pass.traced" : "pass.untraced");
      std::optional<obs::Observer> observer;
      if (traced) observer.emplace();
      const PassOutput p = w.pass(kPassThreads, observer ? &*observer : nullptr, false);
      if (!p.ok || p.digest != ref.digest) {
        ++result.failed;
        std::fprintf(stderr, "perfbench: pass %d %s\n", n,
                     p.ok ? "output digest differs from the 1-worker reference"
                          : "incomplete or failed a guard");
        continue;
      }
      seconds.push_back(p.seconds);
      if (observer) w.perf(*observer, layer);
    } catch (const std::exception& e) {
      ++result.failed;
      std::fprintf(stderr, "perfbench: pass %d threw: %s\n", n, e.what());
    }
  }
  return seconds;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"kz-full", "longit-churn", "world-1m"};
  return names;
}

RunResult run_workload(const RunConfig& config) {
  SpanRecorder spans(config.trace);
  std::unique_ptr<Workload> w = make_workload(config, spans);
  RunResult result;
  Layers layer;
  for (const LayerMetric& m : kLayerMetrics) layer[m.name] = 0.0;

  std::vector<double> setup_s;
  for (int i = 0; i < kMinSetups; ++i) setup_s.push_back(w->setup());
  w->prepare();

  // The 1-worker reference: its digest is what every pass must match.
  bool reference_ok = false;
  PassOutput ref;
  if (config.trace) alloc_counting_start();
  try {
    Scope span(spans, "pass.reference");
    ref = w->pass(kReferenceThreads, nullptr, true);
    reference_ok = ref.ok;
    if (!ref.ok) std::fprintf(stderr, "perfbench: reference pass incomplete or failed a guard\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: reference pass threw: %s\n", e.what());
  }
  const AllocTotals allocs = config.trace ? alloc_counting_stop() : AllocTotals{};
  // Warm-up: checked against the reference like any pass, but not timed.
  timed_passes(*w, spans, ref, 0.0, w->warmup_passes(), false, layer, result, nullptr);

  std::vector<Metric> quality;
  if (config.trace) {
    const double half = config.seconds / 2.0;
    const std::vector<double> plain =
        timed_passes(*w, spans, ref, half, kMinTracedPasses, false, layer, result, nullptr);
    const std::vector<double> traced =
        timed_passes(*w, spans, ref, half, kMinTracedPasses, true, layer, result, nullptr);
    layer["trace.overhead_ms"] = 1000.0 * (median(traced) - median(plain));
    if (reference_ok) {
      w->quality(quality);
      w->sweep(layer);
    }
    const std::uint64_t probes = w->reference_probes();
    layer["alloc.per_probe"] =
        ratio(static_cast<double>(allocs.calls), static_cast<double>(probes));
    layer["alloc.calls_per_pass"] = static_cast<double>(allocs.calls);
    layer["alloc.mb_per_pass"] = static_cast<double>(allocs.bytes) / kMiB;
    const std::map<std::string, double> self = spans.self_ms_by_layer();
    for (const LayerMetric& m : kLayerMetrics) {
      result.metrics.push_back({m.name, layer[m.name], m.unit});
    }
    for (const char* l : kSelfLayers) {
      auto it = self.find(l);
      result.metrics.push_back(
          {std::string("self.") + l + "_ms", it == self.end() ? 0.0 : it->second, "ms"});
    }
    if (!config.spans_path.empty() && !spans.write_jsonl(config.spans_path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", config.spans_path.c_str());
    }
  } else {
    const std::vector<double> passes = timed_passes(*w, spans, ref, config.seconds, kMinPasses,
                                                    false, layer, result, &setup_s);
    const double wall = median(passes);
    std::fprintf(stderr, "perfbench: %zu passes, seconds:", passes.size());
    for (double v : passes) std::fprintf(stderr, " %.4f", v);
    std::fprintf(stderr, "\n");
    // Quality is scored after the timed section, from the reference pass.
    if (reference_ok) w->quality(quality);
    result.metrics.push_back({"wall_s", wall, "s"});
    result.metrics.push_back(
        {"tasks_per_s", ratio(static_cast<double>(ref.reports), wall), "1/s"});
    result.metrics.push_back({"setup_s", median(setup_s), "s"});
    result.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
    if (quality.empty()) {
      // No scorable reference: keep the metric set whole; correct = false.
      for (const char* name : {"vendor_label_accuracy", "blocking_as_precision", "churn_recall"}) {
        quality.push_back({name, 0.0, "ratio"});
      }
      reference_ok = false;
    }
    for (const Metric& m : quality) result.metrics.push_back(m);
  }
  result.correct = reference_ok && result.failed == 0;
  return result;
}

}  // namespace perfbench
