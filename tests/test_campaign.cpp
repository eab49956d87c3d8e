// Campaign engine acceptance: golden determinism across thread counts,
// crash-safe resume identity, per-component cache invalidation and the
// warm-cache zero-execution guarantee (docs/CAMPAIGN.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "obs/observer.hpp"
#include "report/json_report.hpp"
#include "scenario/country.hpp"

using namespace cen;

namespace {

campaign::CampaignSpec small_spec() {
  campaign::CampaignSpec spec;
  spec.name = "test";
  spec.countries = {scenario::Country::kKZ};
  spec.scale = scenario::Scale::kSmall;
  spec.trace.repetitions = 3;
  spec.max_endpoints = 4;
  spec.max_domains = 2;
  spec.fuzz_max_endpoints = 2;
  spec.batch_size = 3;
  return spec;
}

std::string temp_cache(const std::string& name) {
  std::string path = ::testing::TempDir() + "cendevice_campaign_" + name + ".jsonl";
  std::remove(path.c_str());
  return path;
}

}  // namespace

TEST(Campaign, GoldenAcrossThreads) {
  const campaign::CampaignSpec spec = small_spec();
  std::string jsonl[3];
  std::string summary[3];
  std::string metrics[3];
  const int threads[3] = {0, 1, 4};
  for (int i = 0; i < 3; ++i) {
    obs::Observer observer;
    campaign::RunControl control;
    control.threads = threads[i];
    control.observer = &observer;
    campaign::CampaignResult r = campaign::run(spec, control);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.tool_tasks_executed(), r.trace.tasks + r.probe.tasks + r.fuzz.tasks);
    jsonl[i] = r.to_jsonl();
    summary[i] = r.summary_json();
    metrics[i] = report::to_json(observer);  // sim domain only
  }
  EXPECT_EQ(jsonl[0], jsonl[1]);
  EXPECT_EQ(jsonl[0], jsonl[2]);
  EXPECT_EQ(summary[0], summary[1]);
  EXPECT_EQ(summary[0], summary[2]);
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_EQ(metrics[0], metrics[2]);
  EXPECT_FALSE(jsonl[0].empty());
}

TEST(Campaign, ResumeIdentityAfterBudgetKills) {
  const campaign::CampaignSpec spec = small_spec();

  campaign::CampaignResult golden = campaign::run(spec, {});
  ASSERT_TRUE(golden.complete);

  // Simulate a crash at every batch boundary: run with a one-batch budget
  // until the campaign completes, resuming from the cache file each time.
  const std::string cache = temp_cache("resume");
  int runs = 0;
  campaign::CampaignResult resumed;
  do {
    campaign::RunControl control;
    control.threads = 2;
    control.cache_path = cache;
    control.max_batches = 1;
    resumed = campaign::run(spec, control);
    ASSERT_LT(++runs, 64) << "campaign did not converge";
  } while (!resumed.complete);
  EXPECT_GT(runs, 2) << "budget of one batch should force several resumes";

  EXPECT_EQ(resumed.to_jsonl(), golden.to_jsonl());
  EXPECT_EQ(resumed.summary_json(), golden.summary_json());
  // The final resumed run must have executed only the last tasks; most
  // of its output came from the checkpoint.
  EXPECT_GT(resumed.cache_hits(), 0u);
  std::remove(cache.c_str());
}

TEST(Campaign, ResumeIdentityUnderFaultPlan) {
  campaign::CampaignSpec spec = small_spec();
  spec.faults.default_link.loss = 0.05;
  spec.faults.default_node.icmp_rate_per_sec = 50.0;
  spec.trace.adaptive_max_retries = 6;

  campaign::CampaignResult golden = campaign::run(spec, {});
  ASSERT_TRUE(golden.complete);

  // Thread identity holds under the non-inert plan...
  campaign::RunControl inline_control;
  inline_control.threads = 0;
  campaign::CampaignResult inline_run = campaign::run(spec, inline_control);
  EXPECT_EQ(inline_run.to_jsonl(), golden.to_jsonl());

  // ...and so does kill/resume.
  const std::string cache = temp_cache("resume_faults");
  campaign::CampaignResult resumed;
  int runs = 0;
  do {
    campaign::RunControl control;
    control.threads = 4;
    control.cache_path = cache;
    control.max_batches = 2;
    resumed = campaign::run(spec, control);
    ASSERT_LT(++runs, 64);
  } while (!resumed.complete);
  EXPECT_EQ(resumed.to_jsonl(), golden.to_jsonl());
  std::remove(cache.c_str());
}

TEST(Campaign, NoopRerunIsAllCacheHits) {
  const campaign::CampaignSpec spec = small_spec();
  const std::string cache = temp_cache("noop");

  campaign::RunControl control;
  control.threads = 2;
  control.cache_path = cache;
  campaign::CampaignResult cold = campaign::run(spec, control);
  ASSERT_TRUE(cold.complete);
  EXPECT_GT(cold.tool_tasks_executed(), 0u);
  EXPECT_EQ(cold.cache_hits(), 0u);

  campaign::CampaignResult warm = campaign::run(spec, control);
  ASSERT_TRUE(warm.complete);
  EXPECT_EQ(warm.tool_tasks_executed(), 0u) << "warm re-run must execute zero tool tasks";
  EXPECT_EQ(warm.cache_hits(), warm.trace.tasks + warm.probe.tasks + warm.fuzz.tasks);
  EXPECT_EQ(warm.to_jsonl(), cold.to_jsonl());
  EXPECT_EQ(warm.summary_json(), cold.summary_json());
  std::remove(cache.c_str());
}

TEST(Campaign, CacheInvalidationPerKeyComponent) {
  const campaign::CampaignSpec base = small_spec();
  const std::string cache = temp_cache("invalidate");
  campaign::RunControl control;
  control.threads = 2;
  control.cache_path = cache;

  campaign::CampaignResult cold = campaign::run(base, control);
  ASSERT_TRUE(cold.complete);

  // (a) Tool options: more repetitions re-executes every trace task, but
  // the probe stage (options unchanged, same discovered devices) and the
  // fuzz stage (options unchanged) still hit the cache.
  {
    campaign::CampaignSpec spec = base;
    spec.trace.repetitions = 5;
    campaign::CampaignResult r = campaign::run(spec, control);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.trace.executed, r.trace.tasks);
    EXPECT_EQ(r.trace.cache_hits, 0u);
    EXPECT_EQ(r.probe.cache_hits, r.probe.tasks);
  }

  // (b) Campaign seed: different scenario construction — everything
  // re-executes.
  {
    campaign::CampaignSpec spec = base;
    spec.seed = 99;
    campaign::CampaignResult r = campaign::run(spec, control);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.trace.cache_hits, 0u);
    EXPECT_EQ(r.probe.cache_hits, 0u);
    EXPECT_EQ(r.fuzz.cache_hits, 0u);
  }

  // (c) Fault plan: part of every task's key — everything re-executes.
  {
    campaign::CampaignSpec spec = base;
    spec.faults.transient_loss = 0.01;
    campaign::CampaignResult r = campaign::run(spec, control);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.trace.cache_hits, 0u);
    EXPECT_EQ(r.probe.cache_hits, 0u);
  }

  // (d) Task identity: adding one domain executes only the new
  // (endpoint, domain) tasks; every previously-measured pair stays cached.
  {
    scenario::CountryScenario sc =
        scenario::make_country(scenario::Country::kKZ, scenario::Scale::kSmall, base.seed);
    campaign::CampaignSpec spec = base;
    spec.max_domains = -1;  // explicit lists, no stride resampling
    spec.http_domains = sc.http_test_domains;
    spec.https_domains = sc.https_test_domains;
    campaign::CampaignResult warm = campaign::run(spec, control);
    ASSERT_TRUE(warm.complete);

    spec.http_domains.push_back("extra.domain.example");
    campaign::CampaignResult r = campaign::run(spec, control);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.trace.cache_hits, warm.trace.tasks) << "old pairs must stay cached";
    EXPECT_EQ(r.trace.executed, r.trace.tasks - warm.trace.tasks)
        << "only the new domain's tasks may execute";
    EXPECT_GT(r.trace.executed, 0u);
  }
  std::remove(cache.c_str());
}

TEST(Campaign, SpecJsonRoundTrip) {
  campaign::CampaignSpec spec = small_spec();
  spec.http_domains = {"a.example", "b.example"};
  spec.faults.default_link.loss = 0.125;
  spec.stages.cluster = false;
  spec.trace.protocol = trace::ProbeProtocol::kHttps;

  const std::string doc = campaign::to_json(spec);
  std::string error;
  auto loaded = campaign::spec_from_json(doc, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(campaign::to_json(*loaded), doc);
  EXPECT_EQ(loaded->fingerprint(), spec.fingerprint());

  EXPECT_FALSE(campaign::spec_from_json("{\"countries\":[\"XX\"]}", &error).has_value());
  EXPECT_NE(error.find("XX"), std::string::npos);
  EXPECT_FALSE(campaign::spec_from_json("{\"batch_size\":0}", &error).has_value());
  // Trace bounds the CenTrace constructor enforces are spec errors: a
  // max_ttl of 0 would report every trace "not blocked" with confidence
  // 1, and a negative retry budget sends no UDP datagram at all.
  const std::pair<const char*, int> lowest_legal[] = {
      {"repetitions", 1}, {"max_ttl", 1}, {"retries", 0}, {"adaptive_max_retries", 0}};
  for (const auto& [field, lowest] : lowest_legal) {
    auto doc_with = [&](int v) {
      return "{\"trace\":{\"" + std::string(field) + "\":" + std::to_string(v) + "}}";
    };
    EXPECT_FALSE(campaign::spec_from_json(doc_with(lowest - 1), &error).has_value()) << field;
    EXPECT_NE(error.find(field), std::string::npos) << error;
    EXPECT_TRUE(campaign::spec_from_json(doc_with(lowest), &error).has_value()) << error;
  }
  EXPECT_FALSE(campaign::spec_from_json("not json", &error).has_value());
}

TEST(Campaign, BatchesExecutedCountsEveryStage) {
  campaign::CampaignSpec spec = small_spec();
  spec.stages.ambig = true;
  spec.ambig_max_endpoints = 2;
  spec.ambig.repetitions = 1;
  obs::Observer observer;
  campaign::RunControl control;
  control.threads = 0;
  control.observer = &observer;
  const campaign::CampaignResult r = campaign::run(spec, control);
  ASSERT_TRUE(r.complete);
  ASSERT_GT(r.ambig.batches, 0u);
  EXPECT_EQ(observer.metrics().counter_value("campaign.batches_executed"),
            r.trace.batches + r.probe.batches + r.fuzz.batches + r.ambig.batches);
}

TEST(Campaign, CacheToleratesTornTail) {
  const std::string path = temp_cache("torn");
  {
    campaign::ResultCache cache(path);
    cache.put(campaign::task_cache_key(1, 2, 3, "trace", "t1", 4), "trace", "t1",
              "{\"tool\":\"centrace\"}");
    cache.put(campaign::task_cache_key(1, 2, 3, "trace", "t2", 4), "trace", "t2",
              "{\"tool\":\"centrace\"}");
    cache.flush();
  }
  // Simulate a crash mid-append: a record without its trailing newline.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = "{\"key\":\"00000000000000000000000000000000\",\"stage\":\"tr";
    std::fwrite(torn, 1, sizeof(torn) - 1, f);
    std::fclose(f);
  }
  campaign::ResultCache cache(path);
  EXPECT_EQ(cache.load(), 2u) << "torn tail must be skipped, durable records kept";
  const std::string* doc = cache.find(campaign::task_cache_key(1, 2, 3, "trace", "t1", 4));
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(*doc, "{\"tool\":\"centrace\"}");
  std::remove(path.c_str());
}

TEST(Campaign, StageTogglesStarveDownstream) {
  campaign::CampaignSpec spec = small_spec();
  spec.stages.probe = false;
  spec.stages.fuzz = false;
  campaign::CampaignResult r = campaign::run(spec, {});
  ASSERT_TRUE(r.complete);
  EXPECT_GT(r.trace.tasks, 0u);
  EXPECT_EQ(r.probe.tasks, 0u);
  EXPECT_EQ(r.fuzz.tasks, 0u);
  // Blocked endpoints are still identified (bundled without fuzz/banner).
  EXPECT_GT(r.blocked_endpoints, 0u);
}

TEST(Campaign, CorruptedResultBytesAreInvalidatedBySum) {
  // Regression: every cache record carries an integrity digest ("sum")
  // binding its key to its exact result bytes. A record whose result was
  // damaged on disk but still parses as JSON must be re-executed, never
  // spliced verbatim into campaign output.
  const campaign::CampaignSpec spec = small_spec();
  const std::string cache = temp_cache("sum");
  campaign::RunControl control;
  control.threads = 2;
  control.cache_path = cache;

  campaign::CampaignResult cold = campaign::run(spec, control);
  ASSERT_TRUE(cold.complete);
  const std::size_t total = cold.trace.tasks + cold.probe.tasks + cold.fuzz.tasks;

  // Tamper with one record: change one digit inside its result value. The
  // line still parses as JSON — only the digest can catch this.
  std::string text;
  {
    std::FILE* f = std::fopen(cache.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  bool tampered = false;
  std::size_t line_start = 0;
  while (line_start < text.size() && !tampered) {
    std::size_t eol = text.find('\n', line_start);
    if (eol == std::string::npos) eol = text.size();
    std::size_t result_pos = text.find("\"result\":", line_start);
    if (result_pos != std::string::npos && result_pos < eol) {
      for (std::size_t i = result_pos + 9; i < eol; ++i) {
        if (text[i] >= '0' && text[i] <= '9') {
          text[i] = text[i] == '1' ? '2' : '1';
          tampered = true;
          break;
        }
      }
    }
    line_start = eol + 1;
  }
  ASSERT_TRUE(tampered);
  {
    std::FILE* f = std::fopen(cache.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }

  campaign::CampaignResult warm = campaign::run(spec, control);
  ASSERT_TRUE(warm.complete);
  // Exactly the damaged record re-executes; everything else still hits.
  EXPECT_EQ(warm.tool_tasks_executed(), 1u);
  EXPECT_EQ(warm.cache_hits(), total - 1);
  // The re-executed task is deterministic, so output is unchanged.
  EXPECT_EQ(warm.to_jsonl(), cold.to_jsonl());
  EXPECT_EQ(warm.summary_json(), cold.summary_json());
  std::remove(cache.c_str());
}
