// Deterministic parallel fan-out of measurement tasks over worker-private
// Network replicas.
//
// Real measurement campaigns run vantage points concurrently; the paper's
// pipeline is embarrassingly parallel at the (endpoint, domain, protocol)
// grain. The executor makes that parallelism *deterministic*: every task
// is hermetic — before it runs, the worker's replica is reset to an epoch
// derived purely from the task's identity (via `Rng::fork()` substreams),
// so the result is a function of the task alone. Scheduling order, thread
// count and cursor interleaving can never leak into results, which is what
// lets the golden tests assert byte-identical JSON for 0 (inline), 1, 2, 4,
// ... threads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "core/thread_pool.hpp"
#include "netsim/engine.hpp"

namespace cen::scenario {

/// Stage salts separating the substream universes of the fan-outs. The
/// pipeline and the campaign engine derive their task seeds with the same
/// salts and identity keys, so a campaign trace of (endpoint, domain,
/// protocol) is the same measurement the pipeline produces for that task.
constexpr std::uint64_t kTraceStageSalt = 0x747261636531ULL;  // "trace1"
constexpr std::uint64_t kProbeStageSalt = 0x70726f626532ULL;  // "probe2"
constexpr std::uint64_t kFuzzStageSalt = 0x66757a7a33ULL;     // "fuzz3"
constexpr std::uint64_t kAmbigStageSalt = 0x616d62696734ULL;  // "ambig4"

/// Order-free identity hash of a hermetic task: FNV-1a over the domain
/// mixed with the endpoint and a small stage/protocol tag. Deliberately
/// not std::hash (implementation-defined) — seeds must be stable across
/// platforms and standard libraries.
std::uint64_t task_key(std::uint32_t endpoint, std::string_view domain,
                       std::uint64_t tag);

/// The domain-dependent half of task_key (FNV-1a over the bytes). Fan-outs
/// iterate endpoints x domains, so hashing each domain once and combining
/// with task_key_hashed() replaces O(endpoints x domains) string hashes
/// with O(domains).
std::uint64_t domain_hash(std::string_view domain);

/// task_key() with the domain hash precomputed. Identity:
/// task_key(e, d, t) == task_key_hashed(e, domain_hash(d), t) for all
/// inputs — locked by tests/test_parallel.cpp.
std::uint64_t task_key_hashed(std::uint32_t endpoint, std::uint64_t domain_hash,
                              std::uint64_t tag);

/// Substream seeds for an ordered task list. A base generator seeded from
/// (network seed, stage salt) is forked once per slot — the fork chain
/// encodes the task's position — and each fork's first draw is folded
/// with the task's identity key. Depends only on the list, never on how
/// the tasks are later scheduled.
std::vector<std::uint64_t> derive_task_seeds(std::uint64_t network_seed,
                                             std::uint64_t stage_salt,
                                             const std::vector<std::uint64_t>& keys);

/// Executor overhead accounting (host-clock — wall domain only). clone_ns
/// is always measured (one-time, construction); reset_ns is only sampled
/// when perf tracking is enabled, so the default hot loop takes no
/// per-task timestamps.
struct ExecutorPerf {
  std::atomic<std::uint64_t> clone_ns{0};  // replica construction (total)
  std::atomic<std::uint64_t> reset_ns{0};  // summed reset_epoch time
  std::atomic<std::uint64_t> tasks{0};     // tasks executed
  std::atomic<std::uint64_t> batches{0};   // chunks dispatched
};

class ParallelExecutor {
 public:
  /// Tasks claimed per dispatch (batched epochs): one cursor bump and one
  /// replica-pointer load per batch instead of per task. Purely a
  /// scheduling granularity — every task still gets its own hermetic
  /// sub-epoch (reset_epoch is a cheap RNG re-seed + dirty-state
  /// rollback), so results are byte-identical for any batch size.
  static constexpr std::size_t kBatch = 16;

  /// `threads`: -1 (or any negative) = one worker per hardware thread,
  /// >= 1 = a pool of that many workers, each with its own clone of
  /// `prototype` (only read during construction); 0 = inline: no pool and
  /// no replica — every task runs on `prototype` itself on the calling
  /// thread. Results are byte-identical for every value.
  ParallelExecutor(sim::Network& prototype, int threads);

  /// Pool workers (0 on the inline path).
  int threads() const { return pool_ ? pool_->size() : 0; }

  /// Attach (or detach with nullptr) a PoolStats sink. The inline path
  /// fills jobs/tasks/peak_pending exactly as the pool does. Must not be
  /// called while a run() is in flight.
  void set_stats(PoolStats* stats);

  /// Enable per-task reset_epoch timing (disabled by default; the
  /// --perf-report path turns it on).
  void set_perf_tracking(bool enabled) { perf_tracking_ = enabled; }
  const ExecutorPerf& perf() const { return perf_; }

  /// Aggregate ECMP path-cache statistics over the networks tasks run on
  /// since construction (the replicas, or the prototype inline;
  /// scheduling-dependent — wall-domain reporting only).
  std::uint64_t path_cache_hits() const;
  std::uint64_t path_cache_misses() const;
  /// Whole-graph BFS runs over those networks: one per (network, source).
  std::uint64_t path_searches() const;

  /// Run one hermetic task per seed: task i executes fn(net, i) on a
  /// network freshly reset_epoch(seeds[i]) — a worker-private replica, or
  /// inline the prototype, whose observer is detached for the run and
  /// restored afterwards. fn must write its result into a caller-owned
  /// per-index slot (no shared mutable state). Blocks until every task
  /// completed.
  void run(const std::vector<std::uint64_t>& seeds,
           const std::function<void(sim::Network&, std::size_t)>& fn);

 private:
  /// Tasks [begin, end) on `net`, in order.
  void run_batch(sim::Network& net, const std::vector<std::uint64_t>& seeds,
                 std::size_t begin, std::size_t end,
                 const std::function<void(sim::Network&, std::size_t)>& fn);
  /// `counter` summed over the networks tasks run on, each minus `base`,
  /// its value on the prototype at construction (replicas copy it).
  std::uint64_t sum_over(std::uint64_t (sim::Topology::*counter)() const,
                         std::uint64_t base) const;

  sim::Network& prototype_;
  std::unique_ptr<ThreadPool> pool_;  // null on the inline path
  std::vector<std::unique_ptr<sim::Network>> replicas_;
  // The prototype's path counters at construction.
  std::uint64_t base_hits_ = 0;
  std::uint64_t base_misses_ = 0;
  std::uint64_t base_searches_ = 0;
  PoolStats* stats_ = nullptr;
  bool perf_tracking_ = false;
  ExecutorPerf perf_;
};

}  // namespace cen::scenario
