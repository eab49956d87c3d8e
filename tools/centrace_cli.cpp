// centrace — run censorship traceroutes against a built-in scenario.
//
//   centrace --country KZ [--scale full|small] [--protocol http|https|dns]
//            [--endpoint N] [--domain D] [--reps 11] [--json] [--sweeps]
//            [--tomography] [--vantages N]
//            [--pcap out.pcap] [--threads N]
//            [--backoff MS] [--retries N]
//            [--loss P] [--fault-loss P] [--fault-dup P] [--fault-reorder P]
//            [--fault-icmp-rate R]
//            [--metrics FILE] [--trace FILE] [--journal FILE]
//            [--perf-report [FILE]]
//
// Measures every (endpoint, test domain) pair by default; --endpoint
// restricts to one endpoint index and --domain to one test domain. With
// --json, one JSON document per measurement is written to stdout (JSONL);
// --pcap stores the raw client-side capture of the whole run.
//
// With --threads the run uses the hermetic fan-out: every task is seeded
// from its (endpoint, domain, protocol) identity, so the reports AND the
// --metrics/--trace/--journal outputs are byte-identical for every
// --threads value (0 = inline, N = pool of N workers) — including under
// a non-inert fault plan. Without --threads the legacy shared-network
// serial path runs (byte-compatible with earlier releases).
//
// --tomography enables the degradation ladder: blocked measurements that
// cannot be hop-localized (e.g. every nearby router blackholes ICMP)
// escalate to multi-vantage boolean tomography, reporting a candidate
// blocking-link set instead of silently failing. When any measurement
// ends degraded (tomography or unlocalized) the exit code is 4.
#include "centrace/degrade.hpp"
#include "cli_common.hpp"
#include "net/pcap.hpp"
#include "scenario/silent.hpp"

using namespace cen;

namespace {

void print_text(const trace::CenTraceReport& r) {
  std::printf("%-28s %-5s %s", r.test_domain.c_str(),
              std::string(trace::probe_protocol_name(r.protocol)).c_str(),
              r.blocked ? "BLOCKED" : "ok");
  if (r.blocked) {
    std::printf(" [%s, %s, hop %d",
                std::string(trace::blocking_type_name(r.blocking_type)).c_str(),
                std::string(trace::device_placement_name(r.placement)).c_str(),
                r.blocking_hop_ttl);
    if (r.blocking_hop_ip) std::printf(" @ %s", r.blocking_hop_ip->str().c_str());
    if (r.blocking_as) {
      std::printf(" AS%u %s (%s)", r.blocking_as->asn, r.blocking_as->name.c_str(),
                  r.blocking_as->country.c_str());
    }
    std::printf("]");
    if (r.ttl_copy_detected) std::printf(" [ttl-copy]");
    if (r.degradation.mode != trace::DegradationMode::kFull) {
      std::printf(" <%s", std::string(trace::degradation_mode_name(r.degradation.mode)).c_str());
      if (!r.degradation.candidate_links.empty()) {
        const trace::BlamedLink& top = r.degradation.candidate_links.front();
        std::printf(" %s-%s p=%.2f", top.ip_a.str().c_str(), top.ip_b.str().c_str(),
                    top.confidence);
      }
      std::printf(">");
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  const cli::CommonOptions common = cli::parse_common(args);
  if (args.has("help") || !args.has("country")) {
    std::printf(
        "usage: centrace --country AZ|BY|KZ|RU [--protocol http|https|dns]\n"
        "                [--endpoint N] [--domain D] [--reps N] [--sweeps]\n"
        "                [--tomography] [--vantages N] [--pcap FILE]\n"
        "                [common flags]\n%s",
        cli::kCommonUsage);
    return args.has("help") ? cli::kExitOk : cli::kExitUsage;
  }

  scenario::CountryScenario s =
      scenario::make_country(cli::parse_country(args.get("country")), common.scale);
  s.network->set_fault_plan(common.faults);

  trace::CenTraceOptions opts;
  opts.repetitions = args.get_int("reps", 11);
  if (opts.repetitions < 1) {
    std::fprintf(stderr, "--reps must be >= 1\n");
    return cli::kExitUsage;
  }
  opts.protocol = cli::parse_protocol(args.get("protocol"));
  opts.apply(common.run);

  net::PcapWriter capture;
  if (args.has("pcap")) s.network->set_capture(&capture);

  std::vector<std::string> domains = opts.protocol == trace::ProbeProtocol::kHttps
                                         ? s.https_test_domains
                                         : s.http_test_domains;
  if (args.has("domain")) domains = {args.get("domain")};

  std::vector<net::Ipv4Address> endpoints = s.remote_endpoints;
  if (args.has("endpoint")) {
    int index = args.get_int("endpoint", 0);
    if (index < 0 || index >= static_cast<int>(s.remote_endpoints.size())) {
      std::fprintf(stderr, "endpoint index out of range (0..%zu)\n",
                   s.remote_endpoints.size() - 1);
      return cli::kExitUsage;
    }
    endpoints = {s.remote_endpoints[static_cast<std::size_t>(index)]};
  }

  obs::Observer observer;
  obs::Observer* obs_ptr = cli::wants_observer(args) ? &observer : nullptr;

  trace::DegradationPlan plan;
  plan.tomography = args.has("tomography");
  plan.vantages = scenario::tomography_vantages(s, args.get_int("vantages", 2));
  const trace::DegradationPlan* plan_ptr = plan.tomography ? &plan : nullptr;

  std::vector<trace::CenTraceReport> reports;
  if (common.has_threads) {
    // Hermetic fan-out: identical output for every --threads value.
    reports = scenario::run_trace_fanout(*s.network, s.remote_client, endpoints,
                                         domains, s.control_domain, opts,
                                         common.threads, obs_ptr, plan_ptr);
  } else {
    // Legacy shared-network serial path.
    if (obs_ptr != nullptr) s.network->set_observer(obs_ptr);
    for (net::Ipv4Address endpoint : endpoints) {
      for (const std::string& domain : domains) {
        reports.push_back(trace::measure_with_degradation(
            *s.network, s.remote_client, endpoint, domain, s.control_domain, opts,
            plan_ptr));
      }
    }
    if (obs_ptr != nullptr) s.network->set_observer(nullptr);
  }

  for (const trace::CenTraceReport& r : reports) {
    if (common.json) {
      std::printf("%s\n", report::to_json(r, args.has("sweeps")).c_str());
    } else {
      print_text(r);
    }
  }

  if (args.has("pcap")) {
    s.network->set_capture(nullptr);
    if (!capture.write_file(args.get("pcap"))) {
      std::fprintf(stderr, "failed to write %s\n", args.get("pcap").c_str());
      return cli::kExitRuntime;
    }
    std::fprintf(stderr, "wrote %zu packets to %s\n", capture.size(),
                 args.get("pcap").c_str());
  }
  int rc = cli::kExitOk;
  if (obs_ptr != nullptr) {
    rc = cli::write_observability(args, observer);
    if (rc == cli::kExitOk) rc = cli::write_perf_report(args, observer);
  }
  if (rc == cli::kExitOk && plan.tomography) {
    for (const trace::CenTraceReport& r : reports) {
      if (r.blocked && (r.degradation.mode == trace::DegradationMode::kTomography ||
                        r.degradation.mode == trace::DegradationMode::kUnlocalized)) {
        rc = cli::kExitDegraded;
        break;
      }
    }
  }
  return rc;
}
