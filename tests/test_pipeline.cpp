#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "scenario/pipeline.hpp"

using namespace cen;
using namespace cen::scenario;

namespace {
PipelineOptions fast() {
  PipelineOptions o;
  o.centrace_repetitions = 3;
  o.run_fuzz = false;
  o.run_banner = false;
  return o;
}
}  // namespace

TEST(Pipeline, MaxDomainsCapsPerProtocol) {
  CountryScenario s = make_country(Country::kAZ, Scale::kSmall);
  PipelineOptions o = fast();
  o.max_domains = 2;
  PipelineResult r = run_country_pipeline(s, o);
  // 2 HTTP + 2 HTTPS domains per endpoint.
  EXPECT_EQ(r.remote_traces.size(), s.remote_endpoints.size() * 4);
  std::set<std::string> domains;
  for (const auto& t : r.remote_traces) domains.insert(t.test_domain);
  EXPECT_EQ(domains.size(), 4u);
}

TEST(Pipeline, ZeroRepetitionsRejectedOnEveryPath) {
  // No sweeps means no evidence: every path must refuse rather than
  // report the endpoints "not blocked".
  CountryScenario s = make_country(Country::kAZ, Scale::kSmall);
  for (int threads : {0, 1, 2}) {
    PipelineOptions o = fast();
    o.centrace_repetitions = 0;
    o.threads = threads;
    o.max_endpoints = 1;
    o.max_domains = 1;
    EXPECT_THROW(run_country_pipeline(s, o), std::invalid_argument) << threads;
  }
  trace::CenTraceOptions t;
  t.repetitions = 0;
  for (int threads : {0, 2}) {
    EXPECT_THROW(run_trace_fanout(*s.network, s.remote_client, {s.remote_endpoints.front()},
                                  {s.http_test_domains.front()}, s.control_domain, t,
                                  threads),
                 std::invalid_argument)
        << threads;
  }
}

TEST(Pipeline, MaxEndpointsSamplesWithStride) {
  CountryScenario s = make_country(Country::kBY, Scale::kSmall);
  PipelineOptions o = fast();
  o.max_endpoints = 4;
  o.max_domains = 1;
  PipelineResult r = run_country_pipeline(s, o);
  std::set<std::uint32_t> endpoints;
  for (const auto& t : r.remote_traces) endpoints.insert(t.endpoint.value());
  EXPECT_EQ(endpoints.size(), 4u);
}

TEST(Pipeline, BannerStageOptional) {
  CountryScenario s = make_country(Country::kAZ, Scale::kSmall);
  PipelineOptions o = fast();
  PipelineResult without = run_country_pipeline(s, o);
  EXPECT_TRUE(without.device_probes.empty());

  CountryScenario s2 = make_country(Country::kAZ, Scale::kSmall);
  o.run_banner = true;
  PipelineResult with = run_country_pipeline(s2, o);
  EXPECT_FALSE(with.device_probes.empty());
}

TEST(Pipeline, FuzzCapLimitsFuzzedEndpoints) {
  CountryScenario s = make_country(Country::kKZ, Scale::kSmall);
  PipelineOptions o;
  o.centrace_repetitions = 3;
  o.run_banner = false;
  o.fuzz_max_endpoints = 2;
  PipelineResult r = run_country_pipeline(s, o);
  int fuzzed = 0;
  for (const auto& m : r.measurements) {
    if (m.fuzz) ++fuzzed;
  }
  EXPECT_EQ(fuzzed, 2);
  EXPECT_GT(r.measurements.size(), 2u);  // non-fuzzed blocked endpoints remain
}

TEST(Pipeline, MeasurementsOnlyForBlockedEndpoints) {
  CountryScenario s = make_country(Country::kRU, Scale::kSmall);
  PipelineResult r = run_country_pipeline(s, fast());
  std::set<std::uint32_t> blocked_ips;
  for (const auto& t : r.remote_traces) {
    if (t.blocked) blocked_ips.insert(t.endpoint.value());
  }
  EXPECT_EQ(r.measurements.size(), blocked_ips.size());
  for (const auto& m : r.measurements) {
    auto ip = net::Ipv4Address::parse(m.endpoint_id);
    ASSERT_TRUE(ip);
    EXPECT_TRUE(blocked_ips.count(ip->value()));
  }
}

TEST(Pipeline, WorldSmallScaleRuns) {
  WorldScenario w = make_world(Scale::kSmall);
  EXPECT_EQ(w.endpoints.size(), 20u);
  PipelineOptions o = fast();
  o.run_banner = true;
  PipelineResult r = run_world_pipeline(w, o);
  EXPECT_EQ(r.country, "WORLD");
  EXPECT_GT(r.blocked_remote(), 0u);
  EXPECT_FALSE(r.device_probes.empty());
}

TEST(Pipeline, TransientLossStillConverges) {
  // 3% loss: CenTrace's per-probe retries and repetition voting must keep
  // verdicts stable.
  CountryScenario s = make_country(Country::kAZ, Scale::kSmall);
  PipelineOptions o = fast();
  o.centrace_repetitions = 5;
  o.faults.transient_loss = 0.03;
  PipelineResult noisy = run_country_pipeline(s, o);

  CountryScenario s2 = make_country(Country::kAZ, Scale::kSmall);
  o.faults.transient_loss = 0.0;
  PipelineResult clean = run_country_pipeline(s2, o);

  // Allow a small delta in blocked counts between noisy and clean runs.
  double noisy_rate = double(noisy.blocked_remote()) / noisy.remote_traces.size();
  double clean_rate = double(clean.blocked_remote()) / clean.remote_traces.size();
  EXPECT_NEAR(noisy_rate, clean_rate, 0.12);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  PipelineOptions o = fast();
  CountryScenario a = make_country(Country::kBY, Scale::kSmall);
  CountryScenario b = make_country(Country::kBY, Scale::kSmall);
  PipelineResult ra = run_country_pipeline(a, o);
  PipelineResult rb = run_country_pipeline(b, o);
  ASSERT_EQ(ra.remote_traces.size(), rb.remote_traces.size());
  for (std::size_t i = 0; i < ra.remote_traces.size(); ++i) {
    EXPECT_EQ(ra.remote_traces[i].blocked, rb.remote_traces[i].blocked) << i;
    EXPECT_EQ(ra.remote_traces[i].blocking_hop_ttl, rb.remote_traces[i].blocking_hop_ttl);
  }
}

TEST(Pipeline, IncountryTracesTargetForeignServers) {
  CountryScenario s = make_country(Country::kKZ, Scale::kSmall);
  std::set<std::uint32_t> foreign;
  for (net::Ipv4Address ip : s.foreign_endpoints) foreign.insert(ip.value());
  PipelineResult r = run_country_pipeline(s, fast());
  ASSERT_EQ(r.incountry_traces.size(), 10u);
  for (const auto& t : r.incountry_traces) {
    EXPECT_TRUE(foreign.count(t.endpoint.value()));
  }
}

TEST(Pipeline, LocalisationConsistencyAcrossDomains) {
  // §4.2: blocked measurements for the same endpoint should mostly agree
  // on where the blocking happens (one national device covers most
  // domains), while distinct regional devices may claim a minority.
  CountryScenario s = make_country(Country::kKZ, Scale::kSmall);
  PipelineResult r = run_country_pipeline(s, []{
    PipelineOptions o;
    o.centrace_repetitions = 3;
    o.run_fuzz = false;
    o.run_banner = false;
    return o;
  }());
  ConsistencyStats stats = localisation_consistency(r);
  EXPECT_GT(stats.endpoints_with_multiple_blocked, 0u);
  EXPECT_GT(stats.mean_modal_as_share, 0.5);
  EXPECT_LE(stats.mean_modal_as_share, 1.0);
  EXPECT_GT(stats.mean_modal_hop_share, 0.4);
}

TEST(Pipeline, ConsistencyEmptyOnNoBlocking) {
  PipelineResult empty;
  ConsistencyStats stats = localisation_consistency(empty);
  EXPECT_EQ(stats.endpoints_with_multiple_blocked, 0u);
  EXPECT_EQ(stats.mean_modal_as_share, 0.0);
}
