#include "scenario/executor.hpp"

#include <algorithm>
#include <chrono>

namespace cen::scenario {

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

std::uint64_t domain_hash(std::string_view domain) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (char c : domain) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV-1a prime
  }
  return h;
}

std::uint64_t task_key_hashed(std::uint32_t endpoint, std::uint64_t domain_hash,
                              std::uint64_t tag) {
  domain_hash ^= mix64((static_cast<std::uint64_t>(endpoint) << 16) ^ tag);
  return mix64(domain_hash);
}

std::uint64_t task_key(std::uint32_t endpoint, std::string_view domain,
                       std::uint64_t tag) {
  return task_key_hashed(endpoint, domain_hash(domain), tag);
}

std::vector<std::uint64_t> derive_task_seeds(std::uint64_t network_seed,
                                             std::uint64_t stage_salt,
                                             const std::vector<std::uint64_t>& keys) {
  Rng base(mix64(network_seed ^ stage_salt));
  std::vector<std::uint64_t> seeds;
  seeds.reserve(keys.size());
  for (std::uint64_t key : keys) {
    Rng sub = base.fork();
    seeds.push_back(sub.next() ^ key);
  }
  return seeds;
}

ParallelExecutor::ParallelExecutor(sim::Network& prototype, int threads)
    : prototype_(prototype) {
  const sim::Topology& topo = prototype.topology();
  base_hits_ = topo.path_cache_hits();
  base_misses_ = topo.path_cache_misses();
  base_searches_ = topo.path_searches();
  const int workers = threads >= 0 ? threads : ThreadPool::hardware_threads();
  if (workers == 0) return;  // inline: no pool, no replica
  pool_ = std::make_unique<ThreadPool>(workers);
  const std::uint64_t t0 = now_ns();
  replicas_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) replicas_.push_back(prototype.clone());
  perf_.clone_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
}

void ParallelExecutor::set_stats(PoolStats* stats) {
  stats_ = stats;
  if (pool_) pool_->set_stats(stats);
}

std::uint64_t ParallelExecutor::sum_over(std::uint64_t (sim::Topology::*counter)() const,
                                         std::uint64_t base) const {
  if (!pool_) return (prototype_.topology().*counter)() - base;
  std::uint64_t total = 0;
  for (const auto& replica : replicas_) total += (replica->topology().*counter)() - base;
  return total;
}

std::uint64_t ParallelExecutor::path_cache_hits() const {
  return sum_over(&sim::Topology::path_cache_hits, base_hits_);
}

std::uint64_t ParallelExecutor::path_cache_misses() const {
  return sum_over(&sim::Topology::path_cache_misses, base_misses_);
}

std::uint64_t ParallelExecutor::path_searches() const {
  return sum_over(&sim::Topology::path_searches, base_searches_);
}

void ParallelExecutor::run_batch(sim::Network& net, const std::vector<std::uint64_t>& seeds,
                                 std::size_t begin, std::size_t end,
                                 const std::function<void(sim::Network&, std::size_t)>& fn) {
  for (std::size_t i = begin; i < end; ++i) {
    if (perf_tracking_) {
      const std::uint64_t t0 = now_ns();
      net.reset_epoch(seeds[i]);
      perf_.reset_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    } else {
      net.reset_epoch(seeds[i]);
    }
    fn(net, i);
  }
  perf_.tasks.fetch_add(end - begin, std::memory_order_relaxed);
  perf_.batches.fetch_add(1, std::memory_order_relaxed);
}

void ParallelExecutor::run(const std::vector<std::uint64_t>& seeds,
                           const std::function<void(sim::Network&, std::size_t)>& fn) {
  if (pool_) {
    pool_->parallel_for_chunked(
        seeds.size(), kBatch, [&](int worker, std::size_t begin, std::size_t end) {
          run_batch(*replicas_[static_cast<std::size_t>(worker)], seeds, begin, end, fn);
        });
    return;
  }
  const std::size_t n = seeds.size();
  if (n == 0) return;
  // The submission-side statistics the pool would publish for this job.
  const std::uint64_t t0 = stats_ != nullptr ? now_ns() : 0;
  if (stats_ != nullptr) {
    stats_->jobs.fetch_add(1, std::memory_order_relaxed);
    stats_->tasks.fetch_add(n, std::memory_order_relaxed);
    if (n > stats_->peak_pending.load(std::memory_order_relaxed)) {
      stats_->peak_pending.store(n, std::memory_order_relaxed);
    }
  }
  sim::ScopedObserver restore(prototype_, nullptr);
  prototype_.set_observer(nullptr);
  for (std::size_t begin = 0; begin < n; begin += kBatch) {
    run_batch(prototype_, seeds, begin, std::min(n, begin + kBatch), fn);
  }
  if (stats_ != nullptr) {
    const std::uint64_t dt = now_ns() - t0;
    stats_->busy_ns.fetch_add(dt, std::memory_order_relaxed);
    stats_->wall_ns.fetch_add(dt, std::memory_order_relaxed);
  }
}

}  // namespace cen::scenario
