// Determinism contract of the parallel measurement pipeline: the merged
// PipelineResult must be byte-identical (as JSON) for every worker count
// >= 1, with threads=1 as the serial reference — on clean networks AND
// under a non-inert fault plan. Also unit-covers the ThreadPool and the
// integer stride sampler. This suite is the one the TSan preset runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/json.hpp"
#include "core/thread_pool.hpp"
#include "report/json_report.hpp"
#include "scenario/executor.hpp"
#include "scenario/pipeline.hpp"

using namespace cen;
using namespace cen::scenario;

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](int worker, std::size_t i) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 4);
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountReturnsImmediately) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](int, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(10, [&](int, std::size_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](int, std::size_t i) {
                          if (i == 3) throw std::runtime_error("task failed");
                        }),
      std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> count{0};
  pool.parallel_for(5, [&](int, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPool, HardwareThreadsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, ChunkedDispatchCoversEveryIndexOnce) {
  ThreadPool pool(4);
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{16},
                            std::size_t{1000}, std::size_t{5000}}) {
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for_chunked(hits.size(), chunk,
                              [&](int worker, std::size_t begin, std::size_t end) {
                                EXPECT_GE(worker, 0);
                                EXPECT_LT(worker, 4);
                                EXPECT_LT(begin, end);
                                EXPECT_LE(end - begin, chunk == 0 ? 1 : chunk);
                                for (std::size_t i = begin; i < end; ++i) {
                                  hits[i].fetch_add(1);
                                }
                              });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  // chunk = 0 is clamped to 1 rather than spinning forever.
  std::atomic<int> count{0};
  pool.parallel_for_chunked(10, 0, [&](int, std::size_t begin, std::size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ChunkedPropagatesExceptionsAndDrains) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_chunked(
                   64, 8,
                   [&](int, std::size_t begin, std::size_t) {
                     if (begin == 16) throw std::runtime_error("chunk failed");
                   }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for_chunked(5, 2, [&](int, std::size_t begin, std::size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 5);
}

// ------------------------------------------------------------ stride sampler

TEST(StrideSample, CapAtLeastSizeReturnsAll) {
  auto all = stride_sample_indices(5, 5);
  ASSERT_EQ(all.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(all[i], i);
  EXPECT_EQ(stride_sample_indices(5, 9).size(), 5u);
  EXPECT_EQ(stride_sample_indices(5, -1).size(), 5u);
  EXPECT_TRUE(stride_sample_indices(0, -1).empty());
  EXPECT_TRUE(stride_sample_indices(0, 3).empty());
}

TEST(StrideSample, NoDuplicatesStrictlyIncreasingInRange) {
  // Exhaustive over small (n, cap): the float-stride version this replaced
  // could truncate two slots onto one element; the integer version is
  // provably strictly increasing.
  for (std::size_t n = 1; n <= 150; ++n) {
    for (int cap = 1; cap <= static_cast<int>(n); ++cap) {
      auto idx = stride_sample_indices(n, cap);
      ASSERT_EQ(idx.size(), static_cast<std::size_t>(cap));
      EXPECT_EQ(idx.front(), 0u);
      for (std::size_t i = 0; i < idx.size(); ++i) {
        ASSERT_LT(idx[i], n);
        if (i > 0) {
          ASSERT_GT(idx[i], idx[i - 1]);
        }
      }
    }
  }
}

TEST(StrideSample, SpreadsAcrossWholeRange) {
  // cap of 4 out of 100 must not bunch at the front (AS representation).
  auto idx = stride_sample_indices(100, 4);
  ASSERT_EQ(idx.size(), 4u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(idx[1], 25u);
  EXPECT_EQ(idx[2], 50u);
  EXPECT_EQ(idx[3], 75u);
}

// ----------------------------------------------------------- substream seeds

TEST(Executor, TaskSeedsAreReproducibleAndDistinct) {
  std::vector<std::uint64_t> keys;
  for (std::uint32_t ep = 0; ep < 64; ++ep) {
    keys.push_back(task_key(ep, "blocked.example", ep % 4));
  }
  auto a = derive_task_seeds(7, 0x1234, keys);
  auto b = derive_task_seeds(7, 0x1234, keys);
  EXPECT_EQ(a, b);
  std::set<std::uint64_t> distinct(a.begin(), a.end());
  EXPECT_EQ(distinct.size(), a.size());
  // Different stage salt = disjoint substream universe.
  auto c = derive_task_seeds(7, 0x9999, keys);
  EXPECT_NE(a, c);
}

TEST(Executor, KeyDependsOnEveryComponent) {
  std::uint64_t base = task_key(42, "a.example", 1);
  EXPECT_NE(base, task_key(43, "a.example", 1));
  EXPECT_NE(base, task_key(42, "b.example", 1));
  EXPECT_NE(base, task_key(42, "a.example", 2));
}

TEST(Executor, HashedKeyFormIsBitIdentical) {
  // The fan-outs precompute domain_hash once per domain; the decomposed
  // form must reproduce task_key exactly or every substream seed shifts.
  for (const char* domain : {"", "a.example", "blocked.example.org"}) {
    const std::uint64_t dh = domain_hash(domain);
    for (std::uint32_t ep : {0u, 42u, 0xffffffffu}) {
      for (std::uint64_t tag : {0ull, 1ull, 0x20ull}) {
        EXPECT_EQ(task_key(ep, domain, tag), task_key_hashed(ep, dh, tag));
      }
    }
  }
}

// ------------------------------------------------- pipeline determinism

namespace {

PipelineOptions parallel_opts(int threads) {
  PipelineOptions o;
  o.centrace_repetitions = 3;
  o.run_banner = true;
  o.run_fuzz = true;
  o.fuzz_max_endpoints = 1;
  o.threads = threads;
  return o;
}

std::string pipeline_json(Country country, const PipelineOptions& options) {
  CountryScenario s = make_country(country, Scale::kSmall);
  PipelineResult r = run_country_pipeline(s, options);
  return report::to_json(r);
}

}  // namespace

TEST(ParallelPipeline, ByteIdenticalAcrossThreadCounts) {
  const std::string reference = pipeline_json(Country::kKZ, parallel_opts(1));
  EXPECT_FALSE(reference.empty());
  // 0 runs every task inline on the scenario network; -1 sizes the pool
  // to the hardware. Both ride the same hermetic path.
  for (int threads : {0, 2, 4, 8, -1}) {
    EXPECT_EQ(reference, pipeline_json(Country::kKZ, parallel_opts(threads)))
        << "thread count " << threads << " changed the result";
  }
}

TEST(ParallelPipeline, ByteIdenticalUnderNonInertFaultPlan) {
  auto faulty = [](int threads) {
    PipelineOptions o = parallel_opts(threads);
    o.faults.transient_loss = 0.05;
    o.faults.default_link.duplicate = 0.02;
    o.faults.default_link.reorder = 0.02;
    o.faults.default_node.icmp_rate_per_sec = 2.0;
    o.centrace_retry_backoff = kSecond;
    return o;
  };
  const std::string reference = pipeline_json(Country::kAZ, faulty(1));
  for (int threads : {0, 2, 5}) {
    EXPECT_EQ(reference, pipeline_json(Country::kAZ, faulty(threads)))
        << "thread count " << threads << " changed the faulty-run result";
  }
}

TEST(ParallelPipeline, HermeticResultIsValidJson) {
  EXPECT_TRUE(json_valid(pipeline_json(Country::kKZ, parallel_opts(2))));
}

TEST(TraceFanout, ByteIdenticalAcrossThreads) {
  // The fan-out contract includes threads = 0 (inline-hermetic on the
  // prototype network itself — no pool, no replicas): every thread count
  // must produce the same reports.
  auto fanout_json = [](int threads) {
    CountryScenario s = make_country(Country::kKZ, Scale::kSmall);
    std::vector<net::Ipv4Address> endpoints(
        s.remote_endpoints.begin(),
        s.remote_endpoints.begin() + std::min<std::size_t>(3, s.remote_endpoints.size()));
    std::vector<std::string> domains(
        s.http_test_domains.begin(),
        s.http_test_domains.begin() + std::min<std::size_t>(2, s.http_test_domains.size()));
    trace::CenTraceOptions opts;
    opts.repetitions = 3;
    std::vector<trace::CenTraceReport> reports = run_trace_fanout(
        *s.network, s.remote_client, endpoints, domains, s.control_domain, opts, threads);
    std::string out;
    for (const trace::CenTraceReport& r : reports) out += report::to_json(r);
    return out;
  };
  const std::string reference = fanout_json(1);
  EXPECT_FALSE(reference.empty());
  for (int threads : {0, 2, 8}) {
    EXPECT_EQ(reference, fanout_json(threads))
        << "fan-out thread count " << threads << " changed the result";
  }
}

TEST(ParallelPipeline, WorldPipelineIdenticalAcrossThreadCounts) {
  auto world_json = [](int threads) {
    WorldScenario s = make_world(Scale::kSmall);
    PipelineOptions o;
    o.centrace_repetitions = 3;
    o.run_fuzz = false;  // keep the big scenario fast
    o.threads = threads;
    return report::to_json(run_world_pipeline(s, o));
  };
  const std::string reference = world_json(1);
  EXPECT_EQ(reference, world_json(4));
}
