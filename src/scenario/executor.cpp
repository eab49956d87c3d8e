#include "scenario/executor.hpp"

#include <chrono>

namespace cen::scenario {

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One topology counter summed over every replica.
std::uint64_t sum_over(const std::vector<std::unique_ptr<sim::Network>>& replicas,
                       std::uint64_t (sim::Topology::*counter)() const) {
  std::uint64_t total = 0;
  for (const auto& replica : replicas) total += (replica->topology().*counter)();
  return total;
}
}  // namespace

int resolve_threads(int requested) {
  if (requested >= 1) return requested;
  if (requested == 0) return 1;
  return ThreadPool::hardware_threads();
}

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

ParallelExecutor::ParallelExecutor(const sim::Network& prototype, int threads)
    : pool_(resolve_threads(threads)) {
  const std::uint64_t t0 = now_ns();
  replicas_.reserve(static_cast<std::size_t>(pool_.size()));
  for (int i = 0; i < pool_.size(); ++i) {
    replicas_.push_back(prototype.clone());
  }
  perf_.clone_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
}

std::uint64_t ParallelExecutor::path_cache_hits() const {
  return sum_over(replicas_, &sim::Topology::path_cache_hits);
}

std::uint64_t ParallelExecutor::path_cache_misses() const {
  return sum_over(replicas_, &sim::Topology::path_cache_misses);
}

std::uint64_t ParallelExecutor::path_searches() const {
  return sum_over(replicas_, &sim::Topology::path_searches);
}

void ParallelExecutor::run(const std::vector<std::uint64_t>& seeds,
                           const std::function<void(sim::Network&, std::size_t)>& fn) {
  const bool track = perf_tracking_;
  pool_.parallel_for_chunked(
      seeds.size(), batch_,
      [&](int worker, std::size_t begin, std::size_t end) {
        sim::Network& replica = *replicas_[static_cast<std::size_t>(worker)];
        for (std::size_t i = begin; i < end; ++i) {
          if (track) {
            const std::uint64_t t0 = now_ns();
            replica.reset_epoch(seeds[i]);
            perf_.reset_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
          } else {
            replica.reset_epoch(seeds[i]);
          }
          fn(replica, i);
        }
        perf_.tasks.fetch_add(end - begin, std::memory_order_relaxed);
        perf_.batches.fetch_add(1, std::memory_order_relaxed);
      });
}

}  // namespace cen::scenario
